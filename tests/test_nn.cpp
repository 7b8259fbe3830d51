// Tests for the NN substrate: matrices, quantisation, functional layers, the
// transformer reference execution, and the operation trace.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "nn/transformer.hpp"

namespace lumos::nn {
namespace {

TEST(Matrix, MatmulMatchesManual) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  v = 1.0;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = v++;
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 64.0);
}

TEST(Matrix, MatmulShapeMismatchRejected) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)a.matmul(b), lumos::InvalidArgument);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(1);
  Matrix m(5, 7);
  m.fill_uniform(rng, -1.0, 1.0);
  const Matrix tt = m.transposed().transposed();
  EXPECT_NEAR(tt.relative_error(m), 0.0, 1e-15);
}

TEST(Matrix, TransposeCommutesWithMatmul) {
  Rng rng(2);
  Matrix a(4, 6), b(6, 3);
  a.fill_normal(rng, 1.0);
  b.fill_normal(rng, 1.0);
  // (A B)^T == B^T A^T
  const Matrix lhs = a.matmul(b).transposed();
  const Matrix rhs = b.transposed().matmul(a.transposed());
  EXPECT_LT(lhs.relative_error(rhs), 1e-12);
}

TEST(Matrix, AddAndMaxAbs) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -5.0;
  b(0, 0) = 2.0;
  const Matrix c = a.add(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(c.max_abs(), 5.0);
}

TEST(Matrix, RelativeErrorZeroForIdentical) {
  Rng rng(3);
  Matrix m(3, 3);
  m.fill_uniform(rng, -2.0, 2.0);
  EXPECT_DOUBLE_EQ(m.relative_error(m), 0.0);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(4);
  Matrix m(6, 10);
  m.fill_uniform(rng, -5.0, 5.0);
  softmax_rows(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (const double x : m.row(r)) {
      s += x;
      EXPECT_GE(x, 0.0);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Softmax, ShiftInvariant) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{101.0, 102.0, 103.0};
  softmax_inplace(a);
  softmax_inplace(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(LayerNorm, NormalisesRowStatistics) {
  Rng rng(5);
  Matrix m(4, 64);
  m.fill_uniform(rng, -3.0, 7.0);
  std::vector<double> gamma(64, 1.0), beta(64, 0.0);
  layer_norm_rows(m, gamma, beta);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (const double x : m.row(r)) mean += x;
    mean /= 64.0;
    for (const double x : m.row(r)) var += (x - mean) * (x - mean);
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GammaBetaApplied) {
  Matrix m(1, 4);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(0, 2) = 3.0;
  m(0, 3) = 4.0;
  std::vector<double> gamma(4, 2.0), beta(4, 10.0);
  layer_norm_rows(m, gamma, beta);
  double mean = 0.0;
  for (const double x : m.row(0)) mean += x;
  EXPECT_NEAR(mean / 4.0, 10.0, 1e-9);  // beta shifts the mean
}

TEST(Activations, ReluGeluSigmoidTanh) {
  Matrix m(1, 4);
  m(0, 0) = -1.0;
  m(0, 1) = 0.0;
  m(0, 2) = 1.0;
  m(0, 3) = -0.5;
  Matrix r = m;
  relu(r);
  EXPECT_DOUBLE_EQ(r(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r(0, 2), 1.0);
  Matrix s = m;
  sigmoid(s);
  EXPECT_NEAR(s(0, 1), 0.5, 1e-12);
  Matrix t = m;
  tanh_act(t);
  EXPECT_NEAR(t(0, 2), std::tanh(1.0), 1e-12);
  Matrix g = m;
  gelu(g);
  EXPECT_NEAR(g(0, 1), 0.0, 1e-12);
  EXPECT_GT(g(0, 2), 0.8);  // gelu(1) ~ 0.841
}

TEST(Attention, UniformScoresAverageValues) {
  // With Q = 0 all scores are equal, so the output is the mean of V rows.
  Matrix q(3, 4, 0.0);
  Rng rng(6);
  Matrix k(3, 4), v(3, 2);
  k.fill_normal(rng, 1.0);
  v.fill_normal(rng, 1.0);
  const Matrix out = scaled_dot_product_attention(q, k, v);
  for (std::size_t c = 0; c < 2; ++c) {
    const double mean = (v(0, c) + v(1, c) + v(2, c)) / 3.0;
    for (std::size_t r = 0; r < 3; ++r) EXPECT_NEAR(out(r, c), mean, 1e-9);
  }
}

TEST(Attention, RowsAreConvexCombinationsOfV) {
  Rng rng(7);
  Matrix q(4, 8), k(4, 8), v(4, 3);
  q.fill_normal(rng, 1.0);
  k.fill_normal(rng, 1.0);
  v.fill_uniform(rng, 0.0, 1.0);
  const Matrix out = scaled_dot_product_attention(q, k, v);
  // Each output element lies inside [min(V col), max(V col)].
  for (std::size_t c = 0; c < 3; ++c) {
    double lo = 1e300, hi = -1e300;
    for (std::size_t r = 0; r < 4; ++r) {
      lo = std::min(lo, v(r, c));
      hi = std::max(hi, v(r, c));
    }
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_GE(out(r, c), lo - 1e-9);
      EXPECT_LE(out(r, c), hi + 1e-9);
    }
  }
}

TEST(Linear, BiasApplied) {
  Matrix x(1, 2);
  x(0, 0) = 1.0;
  x(0, 1) = 2.0;
  Matrix w(2, 2);
  w(0, 0) = 1.0;
  w(1, 1) = 1.0;
  const std::vector<double> bias{10.0, 20.0};
  const Matrix y = linear(x, w, bias);
  EXPECT_DOUBLE_EQ(y(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 22.0);
}

TEST(TransformerConfig, ZooDimensionsArePublished) {
  const auto zoo = llm_model_zoo();
  ASSERT_EQ(zoo.size(), 4u);
  EXPECT_EQ(zoo[0].name, "BERT-base");
  EXPECT_EQ(zoo[0].layers, 12u);
  EXPECT_EQ(zoo[0].d_model, 768u);
  EXPECT_EQ(zoo[1].name, "BERT-large");
  EXPECT_EQ(zoo[1].d_model, 1024u);
  EXPECT_EQ(zoo[1].heads, 16u);
  EXPECT_EQ(zoo[3].seq_len, 197u);  // ViT-Base/16
}

TEST(TransformerConfig, ParameterCountBertBase) {
  // BERT-base encoder stack: ~85M weights (embeddings excluded).
  const auto c = bert_base();
  const double params = static_cast<double>(c.parameter_count());
  EXPECT_GT(params, 80e6);
  EXPECT_LT(params, 90e6);
}

TEST(TransformerConfig, TraceMacsMatchClosedForm) {
  for (const auto& config : llm_model_zoo()) {
    std::size_t macs = 0;
    for (const OpSpec& op : layer_trace(config)) macs += op.macs();
    EXPECT_EQ(macs * config.layers, config.mac_count()) << config.name;
  }
}

TEST(TransformerConfig, OpCountTwiceMacs) {
  const auto c = bert_base();
  EXPECT_EQ(c.op_count(), 2 * c.mac_count());
}

TEST(TransformerForward, ShapePreserved) {
  const auto config = tiny_transformer(8);
  const auto weights = TransformerWeights::random(config, 42);
  Rng rng(11);
  Matrix x(8, config.d_model);
  x.fill_uniform(rng, -1.0, 1.0);
  const Matrix y = reference_forward(weights, x);
  EXPECT_EQ(y.rows(), 8u);
  EXPECT_EQ(y.cols(), config.d_model);
}

TEST(TransformerForward, OutputIsLayerNormalised) {
  const auto config = tiny_transformer(8);
  const auto weights = TransformerWeights::random(config, 42);
  Rng rng(12);
  Matrix x(8, config.d_model);
  x.fill_uniform(rng, -1.0, 1.0);
  const Matrix y = reference_forward(weights, x);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double mean = 0.0;
    for (const double v : y.row(r)) mean += v;
    EXPECT_NEAR(mean / static_cast<double>(y.cols()), 0.0, 1e-9);
  }
}

TEST(TransformerForward, DeterministicForSeed) {
  const auto config = tiny_transformer(4);
  const auto w1 = TransformerWeights::random(config, 7);
  const auto w2 = TransformerWeights::random(config, 7);
  Rng rng(13);
  Matrix x(4, config.d_model);
  x.fill_uniform(rng, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(reference_forward(w1, x).relative_error(reference_forward(w2, x)), 0.0);
}

TEST(TransformerForward, HeadsMustDivideModel) {
  TransformerConfig bad = tiny_transformer(4);
  bad.heads = 3;  // 32 % 3 != 0
  EXPECT_THROW((void)TransformerWeights::random(bad, 1), lumos::InvalidArgument);
}

// Sequence-length sweep: MACs grow as expected (linear d^2 term + quadratic
// attention term).
class SeqLenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeqLenSweep, MacGrowthBetweenLinearAndQuadratic) {
  const std::size_t l = GetParam();
  const auto c1 = bert_base(l);
  const auto c2 = bert_base(2 * l);
  const double ratio = static_cast<double>(c2.mac_count()) / static_cast<double>(c1.mac_count());
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

INSTANTIATE_TEST_SUITE_P(Lens, SeqLenSweep,
                         ::testing::Values(std::size_t{32}, std::size_t{64}, std::size_t{128},
                                           std::size_t{256}, std::size_t{512}));

}  // namespace
}  // namespace lumos::nn
