// Pins the benchmark's own arithmetic (fleetbench/src/measure.hpp and the
// ledger and set-up bookkeeping of bench.hpp) on fixed inputs: interval
// coverage and span self time, the ledger sum and verdict, order statistics,
// set-up slices, simulated event counting, and the queue-stability verdict.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench.hpp"
#include "measure.hpp"

namespace fleetbench {
namespace {

TEST(Coverage, MergesOverlapsAndSkipsGaps) {
  EXPECT_DOUBLE_EQ(covered_s({}), 0.0);
  EXPECT_DOUBLE_EQ(covered_s({{0.0, 1.0}}), 1.0);
  // Two parallel children overlapping on [2, 3], then a disjoint one.
  EXPECT_DOUBLE_EQ(covered_s({{5.0, 6.0}, {1.0, 3.0}, {2.0, 4.0}}), 4.0);
  // A child nested inside another adds nothing.
  EXPECT_DOUBLE_EQ(covered_s({{0.0, 10.0}, {2.0, 3.0}}), 10.0);
}

TEST(SelfTime, SubtractsWhatChildrenCover) {
  const std::vector<Span> spans{
      {"plan", -1, 0.0, 1.0},
      {"cells", -1, 1.0, 9.0},
      {"cell", 1, 1.5, 8.0},     // child of cells, runs in parallel with the next
      {"cell", 1, 2.0, 8.5},
      {"trace", 2, 1.5, 3.0},    // child of the first cell
      {"simulate", 2, 3.0, 8.0},
      {"merge", -1, 9.0, 9.5},
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 1.0);
  EXPECT_DOUBLE_EQ(self[1], 8.0 - 7.0);  // cells cover [1.5, 8.5]
  EXPECT_DOUBLE_EQ(self[2], 0.0);        // trace + simulate fill the first cell
  EXPECT_DOUBLE_EQ(self[3], 6.5);        // a leaf is all self time
  EXPECT_DOUBLE_EQ(self[6], 0.5);
}

TEST(Ledger, TopLevelSpansAccountForTheWall) {
  const std::vector<Span> spans{
      {"plan", -1, 0.0, 1.0},
      {"cells", -1, 1.0, 9.0},
      {"cell", 1, 1.0, 9.0},  // children never count twice
      {"merge", -1, 9.0, 9.5},
  };
  EXPECT_DOUBLE_EQ(unattributed_fraction(spans, 9.5), 0.0);
  EXPECT_NEAR(unattributed_fraction(spans, 10.0), 0.05, 1e-12);
  // Spans longer than the untraced wall (tracing cost time) read negative.
  EXPECT_NEAR(unattributed_fraction(spans, 9.5 / 1.1), -0.1, 1e-12);
  EXPECT_DOUBLE_EQ(total_s(spans, "cell"), 8.0);
  EXPECT_DOUBLE_EQ(max_s(spans, "merge"), 0.5);
  EXPECT_DOUBLE_EQ(max_s(spans, "absent"), 0.0);
}

TEST(Ledger, ClosesOnTheMedianPassWithinTheBand) {
  Report closes;
  // One noisy pass does not open the ledger; the median pass decides.
  report_ledger({0.01, -0.30, 0.02}, closes);
  ASSERT_EQ(closes.checks().size(), 1u);
  EXPECT_TRUE(closes.checks()[0].ok);
  EXPECT_DOUBLE_EQ(closes.layers()[0].value, 0.01);

  Report opens;
  report_ledger({0.10, 0.20, kLedgerBand + 0.01}, opens);
  EXPECT_FALSE(opens.checks()[0].ok);
  EXPECT_EQ(opens.failed(), 1u);
}

TEST(Setup, SlicesReportTheMeanPerSetUp) {
  SetupSampler sampler;
  int calls = 0;
  for (int slice = 0; slice < 3; ++slice) {
    sampler.slice([&] {
      ++calls;
      return SetupTimes{1e-3, 2e-3};
    });
  }
  EXPECT_GE(calls, 3);
  EXPECT_NEAR(sampler.layers().catalog_s, 1e-3, 1e-12);
  EXPECT_NEAR(sampler.layers().eval_workloads_s, 2e-3, 1e-12);
  // The slice wall per set-up spans at least the whole slice over its calls.
  EXPECT_GT(sampler.total_s(), 0.0);
  EXPECT_LE(sampler.total_s(), SetupSampler::kSliceSeconds * 3.0);
}

TEST(Recorder, ScopedSpansNestAndClose) {
  SpanRecorder rec;
  {
    const ScopedSpan outer(rec, "outer");
    const ScopedSpan inner(rec, "inner", outer.id());
  }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
  EXPECT_GE(self_times(spans)[0], 0.0);
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.75), 1.75);
}

TEST(Events, CountEverySimulatedEventSource) {
  lumos::serve::FleetMetrics m;
  m.completed = 90;
  m.shed_requests = 6;
  m.timed_out_requests = 4;
  m.retried_attempts = 7;
  m.dispatches = 30;
  m.decode_steps = 200;
  m.slot_failures = 3;
  m.slot_recoveries = 2;
  EXPECT_EQ(issued_requests(m), 100u);
  EXPECT_EQ(simulated_events(m), 100u + 7u + 30u + 200u + 3u + 2u);
}

TEST(QueueTrend, FlatNoiseIsStableAndARampIsNot) {
  std::vector<double> flat;
  for (int i = 0; i < 100; ++i) flat.push_back(i % 2 == 0 ? 4.0 : 6.0);
  const QueueTrend steady = queue_trend(flat, 0.25, 8.0);
  EXPECT_TRUE(steady.flat);
  EXPECT_NEAR(steady.mean_depth, 5.0, 1e-12);
  EXPECT_LT(std::abs(steady.rise), 0.25);

  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(2.0 * i);
  const QueueTrend diverging = queue_trend(ramp, 0.25, 8.0);
  EXPECT_FALSE(diverging.flat);
  EXPECT_NEAR(diverging.rise, 2.0 * 49.0, 1e-9);  // second half: windows 50..99
  EXPECT_NEAR(diverging.mean_depth, 149.0, 1e-9);
}

}  // namespace
}  // namespace fleetbench
