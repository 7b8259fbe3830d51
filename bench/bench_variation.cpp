// Ablation E (extension): fabrication process-variation study — the open
// challenge named in the paper's conclusion.  Monte-Carlo over dies: trimming
// power distribution and yield as a function of variation magnitude and
// tuning range.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "photonics/variation.hpp"

namespace {

using namespace lumos;
using namespace lumos::phot;

void print_variation_study() {
  Table t("Ablation E: process variation vs trimming power and yield (16-ring bank, 200 dies)");
  t.add_row({"local sigma", "die sigma", "mean corr.", "worst corr.", "mean bank power",
             "p95 bank power", "yield"});
  for (const double local_nm : {0.1, 0.2, 0.4, 0.6}) {
    for (const double die_nm : {0.4, 0.8, 1.6}) {
      ProcessVariationConfig c;
      c.local_sigma_m = local_nm * 1e-9;
      c.die_sigma_m = die_nm * 1e-9;
      const ProcessVariationModel m(c, MicroringDesign{}, TuningCircuitConfig{});
      const VariationReport r = m.run(0xD1E5);
      t.add_row({Table::num(local_nm, 1) + " nm", Table::num(die_nm, 1) + " nm",
                 Table::num(units::to_nm(r.mean_correction_m), 2) + " nm",
                 Table::num(units::to_nm(r.worst_correction_m), 2) + " nm",
                 Table::num(units::to_mw(r.mean_bank_power_w), 2) + " mW",
                 Table::num(units::to_mw(r.p95_bank_power_w), 2) + " mW",
                 Table::num(100.0 * r.yield, 1) + " %"});
    }
  }
  t.print(std::cout);

  Table y("Yield vs available TO tuning range (0.5 nm local / 1.0 nm die sigma)");
  y.add_row({"TO range", "yield", "mean bank power"});
  for (const double range_nm : {1.0, 2.0, 4.0, 8.0, 12.0, 18.0}) {
    ProcessVariationConfig c;
    c.local_sigma_m = 0.5e-9;
    c.die_sigma_m = 1.0e-9;
    TuningCircuitConfig tuning;
    tuning.to_max_shift_nm = range_nm;
    const ProcessVariationModel m(c, MicroringDesign{}, tuning);
    const VariationReport r = m.run(0xD1E5);
    y.add_row({Table::num(range_nm, 1) + " nm", Table::num(100.0 * r.yield, 1) + " %",
               Table::num(units::to_mw(r.mean_bank_power_w), 2) + " mW"});
  }
  y.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  print_variation_study();
  return 0;
}
