// Design-space analysis (paper Section VI): sensitivity of both accelerators
// to their architectural knobs around the default design point, plus the
// floorplan/area summaries that bound the space.
#include <iostream>

#include "common/units.hpp"
#include "sim/sensitivity.hpp"

namespace {

using namespace lumos;

void print_sensitivity() {
  const auto tron_points =
      sim::tron_sensitivity(tron::default_tron_config(), nn::bert_base());
  sim::sensitivity_table("TRON design-space sensitivity (BERT-base; * = default)",
                         tron_points)
      .print(std::cout);

  const auto ghost_points = sim::ghost_sensitivity(ghost::default_ghost_config(),
                                                   gnn::gcn_model(), graph::synthetic_cora());
  sim::sensitivity_table("GHOST design-space sensitivity (GCN/Cora; * = default)",
                         ghost_points)
      .print(std::cout);
}

void print_area(const char* name, const phot::AreaReport& area) {
  Table t(std::string(name) + " floorplan");
  t.add_row({"component", "count", "area"});
  for (const phot::AreaItem& item : area.items) {
    t.add_row({item.component, std::to_string(item.count),
               Table::num(item.total_m2 * 1e6, 3) + " mm^2"});
  }
  t.add_row({"TOTAL", "", Table::num(area.total_mm2(), 2) + " mm^2"});
  t.add_row({"  of which photonic", "", Table::num(area.photonic_m2() * 1e6, 2) + " mm^2"});
  t.print(std::cout);
}

void print_areas() {
  print_area("TRON", tron::TronAccelerator(tron::default_tron_config()).area());
  print_area("GHOST", ghost::GhostAccelerator(ghost::default_ghost_config()).area());
  std::cout << '\n';
}

}  // namespace

int main() {
  print_sensitivity();
  print_areas();
  return 0;
}
