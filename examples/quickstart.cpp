// Quickstart: the five-minute tour of the library.
//
//  1. Build the TRON photonic transformer accelerator at its default design
//     point and estimate BERT-base inference (latency / GOPS / EPB).
//  2. Build GHOST and estimate GCN on the Cora stand-in.
//  3. Run a small transformer *functionally* through the noisy analog device
//     models and compare with the exact reference.
//
// Build & run:  ./build/quickstart
#include <iostream>

#include "ghost/accelerator.hpp"
#include "tron/accelerator.hpp"

int main() {
  using namespace lumos;

  // --- 1. TRON performance estimate ---------------------------------------
  const tron::TronAccelerator tron_acc(tron::default_tron_config());
  const nn::TransformerConfig bert = nn::bert_base();
  const PerfReport tr = tron_acc.estimate(bert);
  std::cout << "TRON on " << bert.name << " (seq len " << bert.seq_len << ", int8):\n"
            << "  latency      : " << tr.latency_s * 1e6 << " us\n"
            << "  throughput   : " << tr.ops_per_second() / 1e12 << " TOPS\n"
            << "  energy/bit   : " << tr.energy_per_bit_j() * 1e12 << " pJ/bit\n"
            << "  avg power    : " << tr.average_power_w() << " W\n\n";

  // --- 2. GHOST performance estimate --------------------------------------
  const ghost::GhostAccelerator ghost_acc(ghost::default_ghost_config());
  const graph::GraphDataset cora = graph::synthetic_cora();
  const PerfReport gr = ghost_acc.estimate(gnn::gcn_model(), cora);
  std::cout << "GHOST on GCN/" << cora.name << " (" << cora.graph.node_count()
            << " nodes, " << cora.graph.edge_count() << " edges):\n"
            << "  latency      : " << gr.latency_s * 1e6 << " us\n"
            << "  throughput   : " << gr.ops_per_second() / 1e9 << " GOPS\n"
            << "  energy/bit   : " << gr.energy_per_bit_j() * 1e12 << " pJ/bit\n\n";

  // --- 3. Functional execution through the analog models ------------------
  const nn::TransformerConfig tiny = nn::tiny_transformer(8);
  const nn::TransformerWeights weights = nn::TransformerWeights::random(tiny, 42);
  Rng data(1);
  nn::Matrix x(tiny.seq_len, tiny.d_model);
  x.fill_uniform(data, -1.0, 1.0);

  Rng rng(2);
  const phot::AnalogNoiseConfig noise;  // every non-ideality enabled
  const nn::Matrix photonic = tron_acc.forward(weights, x, rng, noise);
  const nn::Matrix exact = nn::reference_forward(weights, x);
  std::cout << "Functional check (tiny transformer through the noisy photonic path):\n"
            << "  relative error vs exact reference: "
            << photonic.relative_error(exact) << "\n"
            << "  (DAC quantisation, MR tuning error, heterodyne crosstalk,\n"
            << "   detector noise, and ADC quantisation all enabled)\n";
  return 0;
}
