// Tests for the extension features: area/floorplan model, batched inference,
// autoregressive generation, and the design-space sensitivity sweeps.
#include <gtest/gtest.h>

#include "arch/accelerator.hpp"
#include "photonics/area.hpp"
#include "sim/sensitivity.hpp"

namespace lumos {
namespace {

TEST(Area, BankArrayAccountsEveryDeviceClass) {
  const phot::AreaReport r = phot::bank_array_area(16, 64);
  EXPECT_GE(r.items.size(), 6u);
  EXPECT_GT(r.total_m2(), 0.0);
  EXPECT_GT(r.photonic_m2(), 0.0);
  EXPECT_LT(r.photonic_m2(), r.total_m2());
  // 2 banks of K rings on each of N waveguides.
  EXPECT_EQ(r.items[0].count, 2u * 16u * 64u);
}

TEST(Area, ScalesWithGeometry) {
  const double small = phot::bank_array_area(8, 16).total_m2();
  const double big = phot::bank_array_area(16, 64).total_m2();
  EXPECT_GT(big, 2.0 * small);
}

TEST(Area, TronFloorplanIsChipScale) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  const phot::AreaReport r = acc.area();
  // A credible accelerator die: between a few mm^2 and a reticle.
  EXPECT_GT(r.total_mm2(), 5.0);
  EXPECT_LT(r.total_mm2(), 900.0);
}

TEST(Area, GhostFloorplanIsChipScale) {
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  const phot::AreaReport r = acc.area();
  EXPECT_GT(r.total_mm2(), 5.0);
  EXPECT_LT(r.total_mm2(), 900.0);
}

TEST(Area, NegativeAreaRejected) {
  phot::AreaReport r;
  EXPECT_THROW(r.add("bad", 1, -1.0), InvalidArgument);
}

TEST(Batch, AmortisesWeightStream) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  const auto model = nn::bert_base();
  const PerfReport b1 = acc.estimate(model, 1);
  const PerfReport b16 = acc.estimate(model, 16);
  // Throughput improves because the per-layer weight stream is shared.
  EXPECT_GT(b16.ops_per_second(), 1.5 * b1.ops_per_second());
  // Per-sequence latency shrinks.
  EXPECT_LT(b16.latency_s / 16.0, b1.latency_s);
  // Stall share shrinks.
  EXPECT_LT(b16.breakdown.memory_stall_s / b16.latency_s,
            b1.breakdown.memory_stall_s / b1.latency_s + 1e-12);
}

TEST(Batch, OpCountScalesLinearly) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  const auto model = nn::gpt2_small();
  EXPECT_EQ(acc.estimate(model, 8).op_count, 8 * model.op_count());
}

TEST(Batch, EpbImprovesWithBatch) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  const auto model = nn::bert_base();
  EXPECT_LT(acc.estimate(model, 16).energy_per_bit_j(),
            acc.estimate(model, 1).energy_per_bit_j());
}

TEST(Generation, TraceShrinksToSingleToken) {
  const auto model = nn::gpt2_small();
  const auto trace = nn::generation_layer_trace(model, 100);
  for (const auto& op : trace) {
    EXPECT_EQ(op.m, 1u) << op.label;
  }
}

TEST(Generation, StepMacsGrowWithContext) {
  const auto model = nn::gpt2_small();
  EXPECT_GT(nn::generation_step_macs(model, 512), nn::generation_step_macs(model, 64));
}

TEST(Generation, StepMacsMatchClosedForm) {
  const auto model = nn::gpt2_small();
  const std::size_t ctx = 128;
  // Per layer: 4 d^2 (projections) + 2*ctx*d (attention) + 2 d d_ff (FF).
  const std::size_t d = model.d_model;
  const std::size_t per_layer = 4 * d * d + 2 * ctx * d + 2 * d * model.d_ff;
  EXPECT_EQ(nn::generation_step_macs(model, ctx), per_layer * model.layers);
}

// TRON generation through the arch sum of batch-1 decode steps.
arch::Workload gpt2_workload() { return arch::Workload::transformer("gpt2", nn::gpt2_small()); }

TEST(Generation, DecodeIsMemoryBound) {
  const arch::TronAdapter acc(tron::default_tron_config());
  const PerfReport r = acc.estimate_generation(gpt2_workload(), 64, 32);
  // Single-token decode streams the full weights per step: stalls dominate.
  EXPECT_GT(r.breakdown.memory_stall_s, 0.5 * r.latency_s);
}

TEST(Generation, LatencyScalesWithTokens) {
  const arch::TronAdapter acc(tron::default_tron_config());
  const PerfReport t16 = acc.estimate_generation(gpt2_workload(), 64, 16);
  const PerfReport t64 = acc.estimate_generation(gpt2_workload(), 64, 64);
  EXPECT_NEAR(t64.latency_s, 4.0 * t16.latency_s, 0.2 * t64.latency_s);
}

TEST(Generation, ThroughputFarBelowBatchedInference) {
  const arch::TronAdapter acc(tron::default_tron_config());
  EXPECT_LT(acc.estimate_generation(gpt2_workload(), 64, 32).ops_per_second(),
            0.2 * acc.estimate(gpt2_workload(), 16).ops_per_second());
}

TEST(Seq2Seq, OriginalTransformerConfig) {
  const auto c = nn::original_transformer();
  EXPECT_EQ(c.kind, nn::TransformerKind::kSeq2Seq);
  EXPECT_EQ(c.layers, 6u);
  EXPECT_EQ(c.decoder_layers, 6u);
  EXPECT_EQ(c.d_model, 512u);
  EXPECT_EQ(c.heads, 8u);
  EXPECT_EQ(c.d_ff, 2048u);
  // ~44M encoder/decoder weights for the base model (no embeddings).
  EXPECT_GT(c.parameter_count(), 40e6);
  EXPECT_LT(c.parameter_count(), 50e6);
}

TEST(Seq2Seq, DecoderTraceMacsMatchClosedForm) {
  const auto c = nn::original_transformer(96, 128);
  std::size_t enc_macs = 0;
  for (const auto& op : nn::layer_trace(c)) enc_macs += op.macs();
  std::size_t dec_macs = 0;
  for (const auto& op : nn::decoder_layer_trace(c)) dec_macs += op.macs();
  EXPECT_EQ(enc_macs * c.layers + dec_macs * c.decoder_layers, c.mac_count());
}

TEST(Seq2Seq, DecoderTraceHasCrossAttention) {
  const auto c = nn::original_transformer(96, 128);
  const auto trace = nn::decoder_layer_trace(c);
  // Two softmaxes per decoder layer: masked self-attention + cross-attention.
  std::size_t softmaxes = 0;
  bool saw_src_dim = false;
  for (const auto& op : trace) {
    if (op.kind == nn::OpKind::kSoftmax) ++softmaxes;
    if (op.kind == nn::OpKind::kMatMul && op.m == 96) saw_src_dim = true;  // K/V over src
  }
  EXPECT_EQ(softmaxes, 2u);
  EXPECT_TRUE(saw_src_dim);
}

TEST(Seq2Seq, TronEstimatesSeq2Seq) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  const PerfReport r = acc.estimate(nn::original_transformer());
  EXPECT_GT(r.latency_s, 0.0);
  EXPECT_EQ(r.op_count, nn::original_transformer().op_count());
  // More work than the encoder-only half alone.
  nn::TransformerConfig enc_only = nn::original_transformer();
  enc_only.decoder_layers = 0;
  EXPECT_GT(r.latency_s, acc.estimate(enc_only).latency_s);
}

TEST(ArgmaxAgreement, PerfectAndBrokenCases) {
  nn::Matrix a(2, 3);
  a(0, 1) = 1.0;  // row 0 argmax = 1
  a(1, 2) = 1.0;  // row 1 argmax = 2
  nn::Matrix b = a;
  EXPECT_DOUBLE_EQ(nn::argmax_agreement(a, b), 1.0);
  b(1, 0) = 2.0;  // row 1 argmax flips to 0
  EXPECT_DOUBLE_EQ(nn::argmax_agreement(a, b), 0.5);
}

TEST(ArgmaxAgreement, NoisyGnnPredictionsMostlyAgree) {
  // The fidelity proxy: noisy photonic GNN inference predicts the same class
  // as the exact reference for the vast majority of nodes.
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gcn_model(), ds, 31);
  Rng data(32);
  nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(33);
  const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, phot::AnalogNoiseConfig{});
  const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
  // Untrained random weights produce near-tie logits, so this is a pessimistic
  // lower bound: a trained model's decision margins are far wider than the
  // analog noise (bench_fidelity reports the error magnitudes directly).
  EXPECT_GE(nn::argmax_agreement(got, want), 0.6);
}

TEST(ArgmaxAgreement, ShapeMismatchRejected) {
  nn::Matrix a(2, 3), b(3, 2);
  EXPECT_THROW((void)nn::argmax_agreement(a, b), InvalidArgument);
}

TEST(Sensitivity, TronSweepCoversEveryKnob) {
  const auto points = sim::tron_sensitivity(tron::default_tron_config(), nn::bert_base());
  EXPECT_GE(points.size(), 20u);
  std::size_t defaults = 0;
  for (const auto& p : points) {
    EXPECT_GT(p.latency_s, 0.0) << p.knob;
    EXPECT_GT(p.ops_per_second, 0.0) << p.knob;
    if (p.is_default) ++defaults;
  }
  EXPECT_EQ(defaults, 5u);  // one default mark per knob family
}

TEST(Sensitivity, GhostSweepCoversEveryKnob) {
  const auto points = sim::ghost_sensitivity(ghost::default_ghost_config(),
                                             gnn::gcn_model(), graph::synthetic_cora());
  EXPECT_GE(points.size(), 20u);
  std::size_t defaults = 0;
  for (const auto& p : points) {
    EXPECT_GT(p.energy_per_bit_j, 0.0) << p.knob;
    if (p.is_default) ++defaults;
  }
  EXPECT_EQ(defaults, 5u);
}

TEST(Sensitivity, MoreDramBandwidthNeverHurtsTron) {
  const auto points = sim::tron_sensitivity(tron::default_tron_config(), nn::bert_base());
  double prev_latency = 1e300;
  for (const auto& p : points) {
    if (p.knob != "dram_gb_per_s") continue;
    EXPECT_LE(p.latency_s, prev_latency + 1e-12);
    prev_latency = p.latency_s;
  }
}

TEST(Sensitivity, TableRendersAllPoints) {
  const auto points = sim::ghost_sensitivity(ghost::default_ghost_config(),
                                             gnn::gcn_model(), graph::synthetic_cora());
  const Table t = sim::sensitivity_table("probe", points);
  EXPECT_EQ(t.row_count(), points.size() + 1);
}

}  // namespace
}  // namespace lumos
