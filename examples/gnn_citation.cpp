// GNN citation-network study: runs the four GNN families over the three
// citation stand-ins on GHOST, shows the aggregate/combine/update phase
// breakdown, the effect of the scheduling optimisations, and a functional
// forward on a small graph.
//
// Build & run:  ./build/gnn_citation
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "ghost/accelerator.hpp"

int main() {
  using namespace lumos;
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());

  // --- Model x dataset grid -------------------------------------------------
  Table grid("GNN zoo x citation datasets on GHOST");
  grid.add_row({"model", "dataset", "latency", "GOPS", "EPB", "agg time", "combine time"});
  for (const gnn::GnnModelConfig& model : gnn::gnn_model_zoo()) {
    for (const graph::GraphDataset& ds : graph::gnn_dataset_zoo()) {
      const PerfReport r = acc.estimate(model, ds);
      grid.add_row({model.name, ds.name, Table::num(units::to_us(r.latency_s), 1) + " us",
                    Table::num(units::to_gops(r.ops_per_second()), 0),
                    Table::num(units::to_pj(r.energy_per_bit_j()), 3) + " pJ/b",
                    Table::num(units::to_us(r.breakdown.aggregation_time_s), 2) + " us",
                    Table::num(units::to_us(r.breakdown.matmul_time_s), 2) + " us"});
    }
  }
  grid.print(std::cout);

  // --- Scheduling optimisations on/off ---------------------------------------
  Table opt("Scheduling optimisations (GraphSAGE on Pubmed)");
  opt.add_row({"configuration", "latency", "total energy"});
  const auto model = gnn::graphsage_model();
  const auto pubmed = graph::synthetic_pubmed();
  for (const bool enable : {true, false}) {
    ghost::GhostConfig cfg = ghost::default_ghost_config();
    cfg.buffer_and_partition = enable;
    cfg.weight_dac_sharing = enable;
    cfg.workload_balancing = enable;
    const PerfReport r = ghost::GhostAccelerator(cfg).estimate(model, pubmed);
    opt.add_row({enable ? "all on" : "all off",
                 Table::num(units::to_us(r.latency_s), 1) + " us",
                 Table::num(r.total_energy_j * 1e6, 1) + " uJ"});
  }
  opt.print(std::cout);

  // --- Functional forward on a small graph -----------------------------------
  const graph::GraphDataset tiny = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gcn_model(), tiny, 7);
  Rng data(1);
  nn::Matrix x(tiny.graph.node_count(), tiny.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(2);
  const nn::Matrix photonic = acc.forward(weights, tiny.graph, x, rng, {});
  const nn::Matrix exact = gnn::reference_forward(weights, tiny.graph, x);
  std::cout << "Functional GCN on " << tiny.graph.node_count()
            << "-node graph through the noisy photonic path:\n"
            << "  relative error vs exact reference: " << photonic.relative_error(exact)
            << "\n";
  return 0;
}
