// Reproduces the paper's evaluation: Figs. 8-11 and the headline claims of
// the abstract and Section VI.
//
//   Fig. 8 : EPB of TRON vs the LLM accelerators         (paper: >= 8x)
//   Fig. 9 : throughput of TRON vs the LLM accelerators  (paper: >= 14x)
//   Fig. 10: EPB of GHOST vs the GNN accelerators        (paper: >= 3.8x)
//   Fig. 11: throughput of GHOST vs the GNN accelerators (paper: >= 10.2x)
//
// Each figure prints its workload x platform grid (photonic device first),
// the device's improvement factor over every baseline, and the minimum and
// geomean improvements; the claims table then sets each minimum against the
// paper's bound.  fleetbench's `paper_estimates` workload times these runners.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "arch/accelerator.hpp"
#include "sim/figures.hpp"

namespace {

using namespace lumos;

void print_figure(const sim::FigureData& f, const std::string& figure,
                  const std::string& device, double bound) {
  const bool epb = f.metric == sim::Metric::kEnergyPerBit;
  const std::string metric = epb ? "EPB" : "throughput";
  f.to_table().print(std::cout);

  Table gains(device + " " + metric + " improvement factors (" +
              (epb ? "baseline EPB / " + device + " EPB)" : device + " GOPS / baseline GOPS)"));
  std::vector<std::string> header{"workload"};
  for (std::size_t p = 1; p < f.platforms.size(); ++p) header.push_back(f.platforms[p]);
  gains.add_row(std::move(header));
  for (std::size_t w = 0; w < f.workloads.size(); ++w) {
    std::vector<std::string> row{f.workloads[w]};
    for (std::size_t p = 1; p < f.platforms.size(); ++p) {
      row.push_back(Table::num(f.improvement(w, p), 1) + "x");
    }
    gains.add_row(std::move(row));
  }
  gains.print(std::cout);
  std::cout << figure << " minimum " << metric
            << " improvement: " << Table::num(f.min_improvement(), 2)
            << "x (paper claims >= " << bound << "x)\n"
            << figure << " geomean " << metric
            << " improvement: " << Table::num(f.mean_improvement(), 2) << "x\n\n";
}

void print_claims(const sim::HeadlineClaims& h) {
  Table t("Headline claims: paper vs this reproduction (minimum over all workload/baseline pairs)");
  t.add_row({"claim", "paper", "measured", "holds"});
  const auto row = [&](const char* name, double paper, double measured) {
    t.add_row({name, Table::num(paper, 1) + "x", Table::num(measured, 2) + "x",
               measured >= paper ? "yes" : "NO"});
  };
  row("TRON min throughput gain", 14.0, h.tron_min_throughput_gain);
  row("TRON min EPB gain", 8.0, h.tron_min_epb_gain);
  row("GHOST min throughput gain", 10.2, h.ghost_min_throughput_gain);
  row("GHOST min EPB gain", 3.8, h.ghost_min_epb_gain);
  row("Combined min throughput gain", 10.2,
      std::min(h.tron_min_throughput_gain, h.ghost_min_throughput_gain));
  row("Combined min EPB gain", 3.8, std::min(h.tron_min_epb_gain, h.ghost_min_epb_gain));
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  const arch::TronAdapter tron_acc(tron::default_tron_config());
  const arch::GhostAdapter ghost_acc(ghost::default_ghost_config());
  print_figure(sim::run_fig8_epb_llm(tron_acc), "Fig. 8", "TRON", 8);
  print_figure(sim::run_fig9_gops_llm(tron_acc), "Fig. 9", "TRON", 14);
  print_figure(sim::run_fig10_epb_gnn(ghost_acc), "Fig. 10", "GHOST", 3.8);
  print_figure(sim::run_fig11_gops_gnn(ghost_acc), "Fig. 11", "GHOST", 10.2);
  print_claims(sim::run_headline_claims(tron_acc, ghost_acc));
  return 0;
}
