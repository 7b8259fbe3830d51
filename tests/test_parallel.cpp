// Tests for the performance kernel layer added with the parallel compute PR:
// the thread pool / parallel_for, the blocked matmul family (parity with a
// naive reference), and the degree-histogram GHOST estimator (bit-identical
// to the per-node reference).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "ghost/accelerator.hpp"
#include "graph/generators.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "perf_report_matchers.hpp"

namespace lumos {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / parallel_for
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.run_chunks(hits.size(), [&](std::size_t c) { ++hits[c]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPoolStillRuns) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.run_chunks(100, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run_chunks(64,
                               [&](std::size_t c) {
                                 if (c == 13) throw InvalidArgument("boom");
                               }),
               InvalidArgument);
}

TEST(ParallelFor, CoversRangeWithoutOverlap) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ChunkBoundariesAreGrainMultiples) {
  // Deterministic partitioning contract: chunk starts depend only on the
  // range and the grain.
  std::vector<std::pair<std::size_t, std::size_t>> chunks(20, {0, 0});
  std::atomic<std::size_t> idx{0};
  parallel_for(0, 100, 32, [&](std::size_t lo, std::size_t hi) {
    chunks[idx.fetch_add(1)] = {lo, hi};
  });
  EXPECT_EQ(idx.load(), 4u);  // ceil(100 / 32)
  for (std::size_t i = 0; i < idx.load(); ++i) {
    EXPECT_EQ(chunks[i].first % 32, 0u);
    EXPECT_EQ(chunks[i].second, std::min<std::size_t>(chunks[i].first + 32, 100));
  }
}

TEST(ParallelFor, EmptyRangeIsNoOp) {
  bool ran = false;
  parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Loops this short often end before a woken worker gets the pool's lock.
// Such a worker must stay out of the next loop's set-up: a thread-sanitized
// build reports the data race if it reads the loop state unlocked.
TEST(ParallelFor, BackToBackTinyLoopsEachRunOnce) {
  std::vector<std::size_t> out(2);
  for (std::size_t loop = 0; loop < 5000; ++loop) {
    parallel_for(0, out.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) out[i] = loop + i;
    });
    ASSERT_EQ(out[0], loop);
    ASSERT_EQ(out[1], loop + 1);
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  std::atomic<int> total{0};
  parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    parallel_for(0, 8, 1, [&](std::size_t, std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

// ---------------------------------------------------------------------------
// Matmul kernel parity
// ---------------------------------------------------------------------------

nn::Matrix naive_matmul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  return out;
}

TEST(BlockedMatmul, MatchesNaiveReferenceAcrossShapes) {
  Rng rng(11);
  // Shapes chosen to exercise every tail path of the register tiling (row
  // tails, column tails, k tails, and the sub-tile small cases).
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 2},    {7, 13, 9},
                                   {33, 65, 31}, {64, 64, 64}, {100, 257, 50},
                                   {128, 300, 96}};
  for (const auto& s : shapes) {
    nn::Matrix a(s[0], s[1]), b(s[1], s[2]);
    a.fill_uniform(rng, -1.0, 1.0);
    b.fill_uniform(rng, -1.0, 1.0);
    const nn::Matrix got = a.matmul(b);
    const nn::Matrix want = naive_matmul(a, b);
    EXPECT_LT(got.relative_error(want), 1e-12)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(BlockedMatmul, MatmulNtMatchesTransposedMatmul) {
  Rng rng(12);
  const std::size_t shapes[][3] = {{5, 9, 3}, {31, 64, 33}, {96, 40, 127}};
  for (const auto& s : shapes) {
    nn::Matrix a(s[0], s[1]), bt(s[2], s[1]);  // b^T stored row-major
    a.fill_uniform(rng, -1.0, 1.0);
    bt.fill_uniform(rng, -1.0, 1.0);
    const nn::Matrix got = a.matmul_nt(bt);
    const nn::Matrix want = naive_matmul(a, bt.transposed());
    EXPECT_LT(got.relative_error(want), 1e-12);
  }
}

TEST(BlockedMatmul, MatmulIntoReusesBufferAcrossShapes) {
  Rng rng(13);
  nn::Matrix out;
  for (const std::size_t n : {60UL, 17UL, 33UL}) {
    nn::Matrix a(n, n + 3), b(n + 3, n + 1);
    a.fill_uniform(rng, -1.0, 1.0);
    b.fill_uniform(rng, -1.0, 1.0);
    a.matmul_into(b, out);
    EXPECT_EQ(out.rows(), n);
    EXPECT_EQ(out.cols(), n + 1);
    EXPECT_LT(out.relative_error(naive_matmul(a, b)), 1e-12);
  }
}

TEST(BlockedMatmul, IntoRejectsAliasedOutput) {
  nn::Matrix a(4, 4, 1.0);
  EXPECT_THROW(a.matmul_into(a, a), InvalidArgument);
}

TEST(BlockedMatmul, DeterministicAcrossRepeats) {
  Rng rng(14);
  nn::Matrix a(77, 130), b(130, 61);
  a.fill_uniform(rng, -1.0, 1.0);
  b.fill_uniform(rng, -1.0, 1.0);
  const nn::Matrix first = a.matmul(b);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a.matmul(b).relative_error(first), 0.0);
  }
}

TEST(Matrix, RelativeErrorZeroReferenceIsInfinity) {
  nn::Matrix zero(2, 2);
  nn::Matrix nonzero(2, 2, 1.0);
  EXPECT_DOUBLE_EQ(zero.relative_error(zero), 0.0);
  EXPECT_EQ(nonzero.relative_error(zero), std::numeric_limits<double>::infinity());
}

TEST(Attention, TransposeFreePathMatchesExplicitTranspose) {
  Rng rng(15);
  nn::Matrix q(37, 16), k(37, 16), v(37, 24);
  q.fill_uniform(rng, -1.0, 1.0);
  k.fill_uniform(rng, -1.0, 1.0);
  v.fill_uniform(rng, -1.0, 1.0);
  const nn::Matrix got = nn::scaled_dot_product_attention(q, k, v);
  // Reference: materialised K^T through the naive kernel.
  nn::Matrix scores = naive_matmul(q, k.transposed());
  const double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(q.cols()));
  for (double& s : scores.flat()) s *= inv_sqrt_dk;
  nn::softmax_rows(scores);
  const nn::Matrix want = naive_matmul(scores, v);
  EXPECT_LT(got.relative_error(want), 1e-12);
}

// ---------------------------------------------------------------------------
// Degree histogram + GHOST estimator parity
// ---------------------------------------------------------------------------

void expect_histogram_matches(const graph::CsrGraph& g) {
  const auto hist = g.degree_histogram();
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t prev_degree = 0;
  bool first = true;
  for (const graph::DegreeBucket& bucket : hist) {
    EXPECT_GT(bucket.count, 0u);
    if (!first) {
      EXPECT_GT(bucket.degree, prev_degree);  // ascending, distinct
    }
    first = false;
    prev_degree = bucket.degree;
    vertices += bucket.count;
    edges += bucket.degree * bucket.count;
  }
  EXPECT_EQ(vertices, g.node_count());
  EXPECT_EQ(edges, g.edge_count());
  // Cross-check per-vertex counts.
  for (const graph::DegreeBucket& bucket : hist) {
    std::size_t count = 0;
    for (std::size_t v = 0; v < g.node_count(); ++v) {
      if (g.degree(static_cast<graph::NodeId>(v)) == bucket.degree) ++count;
    }
    EXPECT_EQ(count, bucket.count);
  }
}

TEST(DegreeHistogram, MatchesPerNodeDegrees) {
  expect_histogram_matches(graph::rmat(10, 8, {}, 3));
  expect_histogram_matches(graph::synthetic_cora().graph);
  expect_histogram_matches(graph::erdos_renyi(500, 2000, 4));
}

void expect_estimates_identical(const ghost::GhostAccelerator& acc,
                                const gnn::GnnModelConfig& model,
                                const graph::GraphDataset& ds) {
  const PerfReport a = acc.estimate(model, ds, 1, ghost::AggregateCosting::kDegreeHistogram);
  const PerfReport b = acc.estimate(model, ds, 1, ghost::AggregateCosting::kPerNodeReference);
  // Bit-identical, not just close: the histogram reorders only integer
  // arithmetic.
  lumos::testing::expect_reports_identical(a, b);
}

TEST(GhostEstimator, HistogramBitIdenticalToPerNodeLoop) {
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  graph::GraphDataset rmat_ds;
  rmat_ds.name = "rmat-12";
  rmat_ds.graph = graph::rmat(12, 8, {}, 5);
  rmat_ds.feature_dim = 64;
  rmat_ds.class_count = 16;
  for (const auto& model : gnn::gnn_model_zoo()) {
    expect_estimates_identical(acc, model, rmat_ds);
    expect_estimates_identical(acc, model, graph::synthetic_cora());
  }
}

TEST(GhostEstimator, ParityHoldsWithOptimisationsToggledOff) {
  ghost::GhostConfig cfg = ghost::default_ghost_config();
  cfg.buffer_and_partition = false;
  cfg.workload_balancing = false;
  const ghost::GhostAccelerator acc(cfg);
  graph::GraphDataset ds;
  ds.name = "rmat-11";
  ds.graph = graph::rmat(11, 6, {}, 9);
  ds.feature_dim = 32;
  ds.class_count = 8;
  expect_estimates_identical(acc, gnn::gcn_model(), ds);
}

}  // namespace
}  // namespace lumos
