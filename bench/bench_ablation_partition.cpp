// Ablation D (DESIGN.md): GHOST scheduling optimisations.
//
// Switches buffer-and-partition, weight-DAC sharing, and workload balancing
// on/off (paper Section V.D) and reports the latency/energy deltas per
// dataset, plus an input-block-size sweep of the partitioner itself.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "ghost/accelerator.hpp"

namespace {

using namespace lumos;

void print_optimization_matrix() {
  const auto model = gnn::gcn_model();
  Table t("Ablation D1: GHOST scheduling optimisations (GCN workload)");
  t.add_row({"dataset", "configuration", "latency", "total energy", "DRAM energy",
             "agg time"});
  for (const graph::GraphDataset& ds : graph::gnn_dataset_zoo()) {
    struct Variant {
      const char* name;
      bool partition, dac_sharing, balancing;
    };
    for (const Variant& v : {Variant{"all optimisations", true, true, true},
                             Variant{"no buffer-and-partition", false, true, true},
                             Variant{"no weight-DAC sharing", true, false, true},
                             Variant{"no workload balancing", true, true, false},
                             Variant{"none", false, false, false}}) {
      ghost::GhostConfig cfg = ghost::default_ghost_config();
      cfg.buffer_and_partition = v.partition;
      cfg.weight_dac_sharing = v.dac_sharing;
      cfg.workload_balancing = v.balancing;
      const PerfReport r = ghost::GhostAccelerator(cfg).estimate(model, ds);
      t.add_row({ds.name, v.name, Table::num(units::to_us(r.latency_s), 2) + " us",
                 Table::num(r.total_energy_j * 1e6, 1) + " uJ",
                 Table::num(r.breakdown.dram_energy_j * 1e6, 1) + " uJ",
                 Table::num(units::to_us(r.breakdown.aggregation_time_s), 3) + " us"});
    }
  }
  t.print(std::cout);
}

void print_block_sweep() {
  const graph::GraphDataset ds = graph::synthetic_cora();
  Table t("Ablation D2: buffer-and-partition input-block-size sweep (Cora)");
  t.add_row({"block size", "input blocks", "tiles", "refetch factor"});
  for (const std::size_t block : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    const graph::PartitionSchedule s = graph::partition_reference(ds.graph, {16, block});
    t.add_row({std::to_string(block), std::to_string(s.input_block_count),
               std::to_string(s.tiles.size()), Table::num(s.refetch_factor(), 2)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  print_optimization_matrix();
  print_block_sweep();
  return 0;
}
