// Scaling studies beyond the paper's fixed workloads:
//   * GHOST on RMAT power-law graphs of growing scale (where does the
//     aggregate phase take over?),
//   * TRON batched inference (how batching amortises the weight stream),
//   * TRON autoregressive decoding (the memory-bound generation regime the
//     paper's LLM motivation implies).
#include <iostream>

#include "arch/accelerator.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "ghost/accelerator.hpp"
#include "tron/accelerator.hpp"

namespace {

using namespace lumos;

void print_graph_scaling() {
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  const auto model = gnn::graphsage_model();
  Table t("GHOST on RMAT graphs (GraphSAGE, 64 features, power-law degrees)");
  t.add_row({"scale", "nodes", "edges", "latency", "GOPS", "agg share"});
  for (const std::size_t scale : {10u, 12u, 14u, 16u}) {
    graph::GraphDataset ds;
    ds.name = "rmat-" + std::to_string(scale);
    ds.graph = graph::rmat(scale, 8, {}, scale);
    ds.feature_dim = 64;
    ds.class_count = 16;
    const PerfReport r = acc.estimate(model, ds);
    t.add_row({std::to_string(scale), std::to_string(ds.graph.node_count()),
               std::to_string(ds.graph.edge_count()),
               Table::num(units::to_us(r.latency_s), 1) + " us",
               Table::num(units::to_gops(r.ops_per_second()), 0),
               Table::num(100.0 * r.breakdown.aggregation_time_s /
                              std::max(r.latency_s, 1e-30),
                          1) +
                   " %"});
  }
  t.print(std::cout);

  // A published-dimension large graph for context.
  const graph::GraphDataset arxiv = graph::synthetic_arxiv();
  const PerfReport r = acc.estimate(gnn::gcn_model(), arxiv);
  std::cout << "GHOST on GCN/" << arxiv.name << " (" << arxiv.graph.node_count()
            << " nodes, " << arxiv.graph.edge_count()
            << " edges): " << Table::num(units::to_us(r.latency_s), 1) << " us, "
            << Table::num(units::to_gops(r.ops_per_second()), 0) << " GOPS, "
            << Table::num(units::to_pj(r.energy_per_bit_j()), 3) << " pJ/b\n\n";
}

void print_batch_scaling() {
  const tron::TronAccelerator acc(tron::default_tron_config());
  const auto model = nn::bert_base();
  Table t("TRON batched inference (BERT-base): weight stream amortisation");
  t.add_row({"batch", "latency/seq", "GOPS", "EPB", "memory stall share"});
  for (const std::size_t batch : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const PerfReport r = acc.estimate(model, batch);
    t.add_row({std::to_string(batch),
               Table::num(units::to_us(r.latency_s / static_cast<double>(batch)), 1) + " us",
               Table::num(units::to_gops(r.ops_per_second()), 0),
               Table::num(units::to_pj(r.energy_per_bit_j()), 3) + " pJ/b",
               Table::num(100.0 * r.breakdown.memory_stall_s / r.latency_s, 1) + " %"});
  }
  t.print(std::cout);
}

void print_generation() {
  const arch::TronAdapter acc(tron::default_tron_config());
  const auto model = nn::gpt2_small();
  const arch::Workload workload = arch::Workload::transformer(model.name, model);
  Table t("TRON autoregressive decoding (GPT-2, 64-token prompt)");
  t.add_row({"generated tokens", "total latency", "ms/token", "GOPS", "stall share"});
  for (const std::size_t tokens : {16u, 64u, 128u, 256u}) {
    const PerfReport r = acc.estimate_generation(workload, 64, tokens);
    t.add_row({std::to_string(tokens), Table::num(r.latency_s * 1e3, 3) + " ms",
               Table::num(r.latency_s * 1e3 / static_cast<double>(tokens), 4),
               Table::num(units::to_gops(r.ops_per_second()), 1),
               Table::num(100.0 * r.breakdown.memory_stall_s / r.latency_s, 1) + " %"});
  }
  t.print(std::cout);
  std::cout << "Single-token decode is weight-stream bound, exactly the regime that\n"
               "motivates PIM/batched serving for LLMs.\n\n";
}

}  // namespace

int main() {
  print_graph_scaling();
  print_batch_scaling();
  print_generation();
  return 0;
}
