// Tests for the TRON accelerator: softmax LUT, eq. (3) decomposition costs,
// functional photonic ops, attention-head fidelity, and the performance model.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/accelerator.hpp"
#include "nn/ops.hpp"
#include "tron/accelerator.hpp"

namespace lumos::tron {
namespace {

phot::AnalogNoiseConfig no_noise() {
  phot::AnalogNoiseConfig n;
  n.dac_quantization = false;
  n.mr_tuning_error = false;
  n.heterodyne_crosstalk = false;
  n.detector_noise = false;
  n.adc_quantization = false;
  return n;
}

TEST(SoftmaxLut, MatchesExactWithinLutError) {
  const SoftmaxLut lut({});
  EXPECT_LT(lut.approximation_error(), 0.02);
}

TEST(SoftmaxLut, OutputsFormDistribution) {
  const SoftmaxLut lut({});
  Rng rng(1);
  std::vector<double> row(32);
  for (double& v : row) v = rng.uniform(-6.0, 6.0);
  lut.apply(row);
  double sum = 0.0;
  for (const double v : row) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SoftmaxLut, CoarserTableIsWorse) {
  SoftmaxLutConfig fine;
  fine.table_size = 1024;
  SoftmaxLutConfig coarse;
  coarse.table_size = 16;
  EXPECT_LT(SoftmaxLut(fine).approximation_error(), SoftmaxLut(coarse).approximation_error());
}

TEST(SoftmaxLut, CostScalesWithElements) {
  const SoftmaxLut lut({});
  EXPECT_NEAR(lut.energy_j(2000), 2.0 * lut.energy_j(1000), 1e-18);
  EXPECT_GE(lut.latency_s(10000), lut.latency_s(100));
}

TEST(PhotonicMatmul, NoiselessTracksExact) {
  const TronConfig cfg = default_tron_config();
  const phot::MrBankArray array(cfg.bank, cfg.array_cols);
  Rng rng(2);
  Rng data(3);
  nn::Matrix a(6, 24), b(24, 10);
  a.fill_uniform(data, -1.0, 1.0);
  b.fill_uniform(data, -1.0, 1.0);
  const nn::Matrix got = photonic_matmul(a, b, array, rng, no_noise());
  const nn::Matrix want = a.matmul(b);
  EXPECT_LT(got.relative_error(want), 0.05);
}

TEST(PhotonicMatmul, FullNoiseRelativeErrorBounded) {
  const TronConfig cfg = default_tron_config();
  const phot::MrBankArray array(cfg.bank, cfg.array_cols);
  Rng rng(4);
  Rng data(5);
  nn::Matrix a(8, 32), b(32, 8);
  a.fill_uniform(data, -1.0, 1.0);
  b.fill_uniform(data, -1.0, 1.0);
  const nn::Matrix got = photonic_matmul(a, b, array, rng, phot::AnalogNoiseConfig{});
  EXPECT_LT(got.relative_error(a.matmul(b)), 0.25);
}

TEST(PhotonicMatmul, ZeroOperandGivesZero) {
  const TronConfig cfg = default_tron_config();
  const phot::MrBankArray array(cfg.bank, cfg.array_cols);
  Rng rng(6);
  nn::Matrix a(4, 8, 0.0), b(8, 4);
  Rng data(7);
  b.fill_uniform(data, -1.0, 1.0);
  const nn::Matrix got = photonic_matmul(a, b, array, rng, phot::AnalogNoiseConfig{});
  for (const double v : got.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PhotonicResidualAdd, TracksExactSum) {
  const TronConfig cfg = default_tron_config();
  const phot::CoherentSummationUnit adder(cfg.bank, cfg.homodyne, 2);
  Rng rng(8);
  Rng data(9);
  nn::Matrix a(4, 4), b(4, 4);
  a.fill_uniform(data, -1.0, 1.0);
  b.fill_uniform(data, -1.0, 1.0);
  const nn::Matrix got = photonic_residual_add(a, b, adder, rng, no_noise());
  EXPECT_LT(got.relative_error(a.add(b)), 1e-6);
}

TEST(PhotonicLayerNorm, TracksExactLayerNorm) {
  const TronConfig cfg = default_tron_config();
  const phot::MrBank ln_ring(cfg.bank);
  Rng rng(10);
  Rng data(11);
  nn::Matrix x(4, 32);
  x.fill_uniform(data, -2.0, 2.0);
  const std::vector<double> gamma(32, 1.0), beta(32, 0.0);
  const nn::Matrix got = photonic_layer_norm(x, gamma, beta, ln_ring, rng, no_noise());
  nn::Matrix want = x;
  nn::layer_norm_rows(want, gamma, beta);
  EXPECT_LT(got.relative_error(want), 0.02);
}

TEST(AttentionHead, MatchesReferenceAttention) {
  TronConfig cfg = default_tron_config();
  const AttentionHeadUnit head(cfg, {});
  Rng rng(12);
  Rng data(13);
  const std::size_t l = 6, d = 16, hd = 8;
  nn::Matrix x(l, d), wq(d, hd), wk(d, hd), wv(d, hd);
  x.fill_uniform(data, -1.0, 1.0);
  wq.fill_normal(data, 1.0 / std::sqrt(d));
  wk.fill_normal(data, 1.0 / std::sqrt(d));
  wv.fill_normal(data, 1.0 / std::sqrt(d));
  const nn::Matrix got = head.forward(x, wq, wk, wv, rng, no_noise());
  const nn::Matrix want = nn::scaled_dot_product_attention(x.matmul(wq), x.matmul(wk),
                                                           x.matmul(wv));
  EXPECT_LT(got.relative_error(want), 0.15);
}

TEST(Decomposition, SavesConversions) {
  const TronConfig cfg = default_tron_config();
  const AttentionHeadUnit head(cfg, {});
  const ScorePathCosts dec = head.decomposed_score_costs(128, 768, 64);
  const ScorePathCosts naive = head.naive_score_costs(128, 768, 64);
  // Eq. (3) removes the K-matrix ADC read-out and DAC re-imprint.
  EXPECT_LT(dec.adc_conversions, naive.adc_conversions);
  EXPECT_LT(dec.dac_conversions, naive.dac_conversions);
  EXPECT_EQ(naive.adc_conversions - dec.adc_conversions, 128u * 64u);
}

TEST(Decomposition, NaivePaysRoundTripLatency) {
  const TronConfig cfg = default_tron_config();
  const AttentionHeadUnit head(cfg, {});
  const ScorePathCosts dec = head.decomposed_score_costs(128, 768, 64);
  const ScorePathCosts naive = head.naive_score_costs(128, 768, 64);
  // The decomposed path does strictly more MatMul passes (S is L x d_model x L
  // instead of L x d_head x L) but avoids the serialised O/E/O round trip;
  // conversion energy still favours it.
  EXPECT_GT(naive.energy_j, 0.0);
  EXPECT_GT(dec.matmul_passes, 0u);
  EXPECT_GT(naive.latency_s - static_cast<double>(naive.matmul_passes) / cfg.symbol_rate_hz,
            0.0);
}

TEST(Estimate, ReportsArePositiveAndConsistent) {
  const TronAccelerator acc(default_tron_config());
  for (const auto& model : nn::llm_model_zoo()) {
    const PerfReport r = acc.estimate(model);
    EXPECT_GT(r.latency_s, 0.0) << model.name;
    EXPECT_GT(r.dynamic_energy_j, 0.0);
    EXPECT_GT(r.static_power_w, 0.0);
    EXPECT_NEAR(r.total_energy_j, r.dynamic_energy_j + r.static_energy_j, 1e-12);
    EXPECT_EQ(r.op_count, model.op_count());
    EXPECT_EQ(r.platform, "TRON");
    // EPB identity.
    EXPECT_NEAR(r.energy_per_bit_j(),
                r.total_energy_j / (static_cast<double>(r.op_count) * r.bits), 1e-20);
  }
}

TEST(Estimate, MoreLayersScaleLatency) {
  const TronAccelerator acc(default_tron_config());
  nn::TransformerConfig small = nn::bert_base();
  nn::TransformerConfig big = small;
  big.layers = 24;
  EXPECT_NEAR(acc.estimate(big).latency_s, 2.0 * acc.estimate(small).latency_s,
              0.01 * acc.estimate(big).latency_s);
}

TEST(Estimate, LongerSequencesCostMore) {
  const TronAccelerator acc(default_tron_config());
  EXPECT_GT(acc.estimate(nn::bert_base(384)).latency_s,
            acc.estimate(nn::bert_base(128)).latency_s);
}

TEST(Estimate, MoreArraysReduceComputeTime) {
  TronConfig few = default_tron_config();
  few.ff_arrays = 8;
  TronConfig many = default_tron_config();
  many.ff_arrays = 64;
  const auto model = nn::bert_base();
  EXPECT_GE(TronAccelerator(few).estimate(model).breakdown.matmul_time_s,
            TronAccelerator(many).estimate(model).breakdown.matmul_time_s);
}

TEST(Estimate, BreakdownSumsBelowTotals) {
  const TronAccelerator acc(default_tron_config());
  const PerfReport r = acc.estimate(nn::bert_base());
  const PerfBreakdown& b = r.breakdown;
  const double dyn = b.laser_dac_adc_energy_j + b.partial_sum_energy_j + b.softmax_energy_j +
                     b.elementwise_energy_j + b.sram_energy_j + b.dram_energy_j;
  EXPECT_NEAR(dyn, r.dynamic_energy_j, 1e-12);
  EXPECT_LE(b.memory_stall_s, r.latency_s + 1e-12);
}

TEST(Functional, TinyTransformerThroughPhotonicPath) {
  const TronConfig cfg = default_tron_config();
  const TronAccelerator acc(cfg);
  const auto model = nn::tiny_transformer(8);
  const auto weights = nn::TransformerWeights::random(model, 99);
  Rng data(14);
  nn::Matrix x(8, model.d_model);
  x.fill_uniform(data, -1.0, 1.0);

  Rng rng(15);
  const nn::Matrix got = acc.forward(weights, x, rng, no_noise());
  const nn::Matrix want = nn::reference_forward(weights, x);
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  // LayerNorm at every block keeps the analog error from compounding.
  EXPECT_LT(got.relative_error(want), 0.30);
}

TEST(Functional, NoisyForwardStillCorrelates) {
  const TronConfig cfg = default_tron_config();
  const TronAccelerator acc(cfg);
  const auto model = nn::tiny_transformer(4);
  const auto weights = nn::TransformerWeights::random(model, 7);
  Rng data(16);
  nn::Matrix x(4, model.d_model);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(17);
  const nn::Matrix got = acc.forward(weights, x, rng, phot::AnalogNoiseConfig{});
  const nn::Matrix want = nn::reference_forward(weights, x);
  // Pearson correlation between outputs stays high under full noise.
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const auto n = static_cast<double>(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double a = got.flat()[i];
    const double b = want.flat()[i];
    sx += a;
    sy += b;
    sxx += a * a;
    syy += b * b;
    sxy += a * b;
  }
  const double corr = (n * sxy - sx * sy) /
                      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  EXPECT_GT(corr, 0.85);
}

TEST(EstimateBatch, LatencySubLinearButNotBelowBatchOne) {
  const TronAccelerator acc(default_tron_config());
  for (const auto& model : {nn::bert_base(128), nn::gpt2_small(256)}) {
    const PerfReport one = acc.estimate(model, 1);
    for (const std::size_t batch : {std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
      const PerfReport r = acc.estimate(model, batch);
      EXPECT_GE(r.latency_s, one.latency_s) << model.name << " batch " << batch;
      EXPECT_LT(r.latency_s, static_cast<double>(batch) * one.latency_s)
          << model.name << " batch " << batch;
      EXPECT_EQ(r.op_count, batch * one.op_count);
    }
  }
}

TEST(EstimateBatch, AmortisesWeightStreamEnergy) {
  const TronAccelerator acc(default_tron_config());
  const auto model = nn::bert_base(128);
  const PerfReport one = acc.estimate(model, 1);
  const PerfReport sixteen = acc.estimate(model, 16);
  // The DRAM weight stream is paid once per layer regardless of batch.
  EXPECT_EQ(sixteen.breakdown.dram_energy_j, one.breakdown.dram_energy_j);
  // So per-request energy (and EPB) strictly improves with batching.
  EXPECT_LT(sixteen.total_energy_j / 16.0, one.total_energy_j);
  EXPECT_LT(sixteen.energy_per_bit_j(), one.energy_per_bit_j());
}

TEST(EstimateGeneration, LatencyAndEnergyMonotoneInTokens) {
  const arch::TronAdapter acc(default_tron_config());
  double prev_latency = 0.0;
  double prev_energy = 0.0;
  std::size_t prev_ops = 0;
  for (const std::size_t tokens : {std::size_t{8}, std::size_t{16}, std::size_t{64}}) {
    const auto model = nn::gpt2_small(64 + tokens);
    const PerfReport r =
        acc.estimate_generation(arch::Workload::transformer("gpt2", model), 64, tokens);
    EXPECT_GT(r.latency_s, prev_latency);
    EXPECT_GT(r.total_energy_j, prev_energy);
    EXPECT_GT(r.op_count, prev_ops);
    prev_latency = r.latency_s;
    prev_energy = r.total_energy_j;
    prev_ops = r.op_count;
  }
}

TEST(EstimateGeneration, DecodeIsMemoryBound) {
  const arch::TronAdapter acc(default_tron_config());
  const auto model = nn::gpt2_small(128);
  const PerfReport r = acc.estimate_generation(arch::Workload::transformer("gpt2", model), 64, 64);
  // Single-token decode re-streams the weights every step: the stall should
  // dominate the latency (the classic memory-bound regime).
  EXPECT_GT(r.breakdown.memory_stall_s, 0.5 * r.latency_s);
}

TEST(StaticPower, ScalesWithFabric) {
  TronConfig small = default_tron_config();
  small.head_units = 4;
  TronConfig big = default_tron_config();
  big.head_units = 16;
  EXPECT_LT(TronAccelerator(small).static_power_w(), TronAccelerator(big).static_power_w());
}

// Precision sweep: EPB identity holds at every bit width.
class BitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitsSweep, EpbIdentity) {
  TronConfig cfg = default_tron_config();
  cfg.bits = GetParam();
  const TronAccelerator acc(cfg);
  const PerfReport r = acc.estimate(nn::bert_base());
  EXPECT_NEAR(r.energy_per_bit_j() * static_cast<double>(r.op_count) * GetParam(),
              r.total_energy_j, r.total_energy_j * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitsSweep, ::testing::Values(4, 8, 12));

}  // namespace
}  // namespace lumos::tron
