// Fidelity study: int8 functional accuracy of the photonic datapath against
// the exact reference implementations, with each analog non-ideality toggled
// independently (DESIGN.md validation strategy).
#include <cmath>
#include <iostream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "ghost/accelerator.hpp"
#include "tron/accelerator.hpp"

namespace {

using namespace lumos;

phot::AnalogNoiseConfig variant(bool dac, bool tuning, bool xtalk, bool det, bool adc) {
  phot::AnalogNoiseConfig n;
  n.dac_quantization = dac;
  n.mr_tuning_error = tuning;
  n.heterodyne_crosstalk = xtalk;
  n.detector_noise = det;
  n.adc_quantization = adc;
  return n;
}

void print_matmul_fidelity() {
  const tron::TronConfig cfg = tron::default_tron_config();
  const phot::MrBankArray array(cfg.bank, cfg.array_cols);
  Rng data(1);
  nn::Matrix a(16, 48), b(48, 16);
  a.fill_uniform(data, -1.0, 1.0);
  b.fill_uniform(data, -1.0, 1.0);
  const nn::Matrix exact = a.matmul(b);

  Table t("Photonic MatMul relative error by noise source (16x48x16, mean of 10 trials)");
  t.add_row({"noise configuration", "relative error"});
  const auto probe = [&](const char* name, const phot::AnalogNoiseConfig& n) {
    Rng rng(7);
    double err = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
      err += tron::photonic_matmul(a, b, array, rng, n).relative_error(exact);
    }
    t.add_row({name, Table::num(err / 10.0, 5)});
  };
  probe("none (ideal devices)", variant(false, false, false, false, false));
  probe("DAC quantisation only", variant(true, false, false, false, false));
  probe("MR tuning error only", variant(false, true, false, false, false));
  probe("heterodyne crosstalk only", variant(false, false, true, false, false));
  probe("detector noise only", variant(false, false, false, true, false));
  probe("ADC quantisation only", variant(false, false, false, false, true));
  probe("all sources", variant(true, true, true, true, true));
  t.print(std::cout);
}

void print_end_to_end_fidelity() {
  Table t("End-to-end functional fidelity vs exact reference (full noise)");
  t.add_row({"model", "relative error"});

  // TRON: tiny transformer.
  {
    const tron::TronAccelerator acc(tron::default_tron_config());
    const auto model = nn::tiny_transformer(8);
    const auto weights = nn::TransformerWeights::random(model, 3);
    Rng data(4);
    nn::Matrix x(8, model.d_model);
    x.fill_uniform(data, -1.0, 1.0);
    Rng rng(5);
    const nn::Matrix got = acc.forward(weights, x, rng, phot::AnalogNoiseConfig{});
    const nn::Matrix want = nn::reference_forward(weights, x);
    t.add_row({"TRON / tiny transformer", Table::num(got.relative_error(want), 4)});
  }
  // GHOST: each GNN family on the tiny dataset.
  {
    const ghost::GhostAccelerator acc(ghost::default_ghost_config());
    const auto ds = graph::tiny_dataset();
    for (const auto& model : gnn::gnn_model_zoo()) {
      const auto weights = gnn::GnnModelWeights::random(model, ds, 6);
      Rng data(7);
      nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
      x.fill_uniform(data, -1.0, 1.0);
      Rng rng(8);
      const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, phot::AnalogNoiseConfig{});
      const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
      t.add_row({"GHOST / " + model.name, Table::num(got.relative_error(want), 4)});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

void print_precision_sweep() {
  // Paper Section VI: "employing 8-bit model quantization yields algorithmic
  // accuracy comparable to models utilizing full (32-bit) precision".
  // Reproduced as the converter-resolution sweep: photonic MatMul error and
  // GNN argmax agreement vs DAC/ADC bit depth.
  Table t("Precision sweep: analog fidelity vs converter resolution");
  t.add_row({"bits", "matmul rel. error", "GCN argmax agreement"});
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gcn_model(), ds, 40);
  Rng data(41);
  nn::Matrix xg(ds.graph.node_count(), ds.feature_dim);
  xg.fill_uniform(data, -1.0, 1.0);
  nn::Matrix a(12, 32), b(32, 12);
  a.fill_uniform(data, -1.0, 1.0);
  b.fill_uniform(data, -1.0, 1.0);
  const nn::Matrix exact_mm = a.matmul(b);

  for (const int bits : {4, 6, 8, 10}) {
    tron::TronConfig tc = tron::default_tron_config();
    tc.bank.dac.bits = bits;
    tc.bank.adc.bits = bits;
    ghost::GhostConfig gc = ghost::default_ghost_config();
    gc.bank.dac.bits = bits;
    gc.bank.adc.bits = bits;
    try {
      const phot::MrBankArray array(tc.bank, tc.array_cols);
      const ghost::GhostAccelerator ghost_acc(gc);
      Rng rng(42);
      const phot::AnalogNoiseConfig noise;
      double mm_err = 0.0;
      for (int trial = 0; trial < 5; ++trial) {
        mm_err += tron::photonic_matmul(a, b, array, rng, noise).relative_error(exact_mm);
      }
      const nn::Matrix got = ghost_acc.forward(weights, ds.graph, xg, rng, noise);
      const nn::Matrix want = gnn::reference_forward(weights, ds.graph, xg);
      t.add_row({std::to_string(bits), Table::num(mm_err / 5.0, 4),
                 Table::num(nn::argmax_agreement(got, want), 3)});
    } catch (const InvalidArgument&) {
      // The laser sizing rejects detection targets above the RIN ceiling —
      // the physical reason analog optical compute tops out near 8 bits.
      t.add_row({std::to_string(bits), "RIN-limited (infeasible)", "-"});
    }
  }
  t.print(std::cout);
  std::cout << "8-bit converters sit at the knee: finer detection is RIN-limited while\n"
               "coarser quantisation dominates the error - matching the paper's choice.\n\n";
}

}  // namespace

int main() {
  print_matmul_fidelity();
  print_end_to_end_fidelity();
  print_precision_sweep();
  return 0;
}
