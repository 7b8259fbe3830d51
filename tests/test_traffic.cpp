// Tests for the traffic layer: TrafficSource pull semantics, open-loop parity
// (Scenario traffic knobs vs an explicit materialised trace), closed-loop
// determinism and session accounting, trace statistics (MMPP long-run offered
// rate and burst-fraction occupancy), per-request prompt-length sampling
// (moments, bounds, bucket grid, pinned draws), the seq-aware estimate cache / scheduler
// buckets, and the shared string<->enum name tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "perf_report_matchers.hpp"
#include "serve/names.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {
namespace {

using lumos::testing::expect_reports_identical;

Scenario base_scenario(WorkloadCatalog catalog, const FleetConfig& fleet) {
  Scenario scenario;
  scenario.fleet = fleet;
  scenario.catalog = std::move(catalog);
  scenario.batch.max_batch = 8;
  return scenario;
}

void expect_same_fleet_metrics(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.goodput_qps, b.goodput_qps);
  EXPECT_EQ(a.fleet_energy_j, b.fleet_energy_j);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.estimate_lookups, b.estimate_lookups);
  EXPECT_EQ(a.estimate_misses, b.estimate_misses);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.mean_session_s, b.mean_session_s);
  EXPECT_EQ(a.p50_session_s, b.p50_session_s);
  EXPECT_EQ(a.p99_session_s, b.p99_session_s);
  EXPECT_EQ(a.max_session_s, b.max_session_s);
}

// ---------------------------------------------------------------------------
// TrafficSource pull semantics
// ---------------------------------------------------------------------------

TEST(TrafficSource, OpenLoopPopsTraceInOrderAndExhausts) {
  std::vector<Request> trace{{0, 0.1, 0}, {1, 0.2, 1}, {2, 0.5, 0}};
  OpenLoopSource source(trace);
  EXPECT_EQ(source.total_requests(), 3u);
  EXPECT_EQ(source.next_arrival_time(), 0.1);
  EXPECT_EQ(source.pop_arrival().id, 0u);
  source.on_complete(trace[0], 1.0, CompletionStatus::kOk);  // open loop ignores feedback
  EXPECT_EQ(source.next_arrival_time(), 0.2);
  EXPECT_EQ(source.pop_arrival().id, 1u);
  EXPECT_EQ(source.pop_arrival().id, 2u);
  EXPECT_TRUE(std::isinf(source.next_arrival_time()));
}

TEST(TrafficSource, ClosedLoopIssuesOnePerSessionUntilCompletionFeedback) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  ClosedLoopConfig cfg;
  cfg.sessions = 4;
  cfg.requests_per_session = 2;
  cfg.think_time_mean_s = 1e-3;
  cfg.seed = 5;
  ClosedLoopSource source(catalog, cfg);
  EXPECT_EQ(source.total_requests(), 8u);

  // All four first issues are pending; drain them.
  std::vector<Request> in_flight;
  while (!std::isinf(source.next_arrival_time())) {
    in_flight.push_back(source.pop_arrival());
  }
  ASSERT_EQ(in_flight.size(), 4u);
  // Sessions wait for completions: nothing pending until feedback arrives.
  source.on_complete(in_flight[0], 1.0, CompletionStatus::kOk);
  EXPECT_FALSE(std::isinf(source.next_arrival_time()));
  EXPECT_GE(source.next_arrival_time(), 1.0);  // completion + think
  const Request second = source.pop_arrival();
  EXPECT_EQ(second.session, in_flight[0].session);
  EXPECT_EQ(second.workload, in_flight[0].workload);  // sessions are tenant-pinned
}

// ---------------------------------------------------------------------------
// Open-loop parity: Scenario traffic knobs == explicit materialised trace
// ---------------------------------------------------------------------------

TEST(OpenLoopParity, ScenarioKnobsMatchExplicitTraceBitForBit) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  const FleetConfig fleet = FleetConfig::cycled({"tron", "ghost"}, 4);

  Scenario generated = base_scenario(catalog, fleet);
  generated.traffic.open.offered_qps = 20000.0;
  generated.traffic.open.request_count = 8000;
  generated.traffic.open.seed = 71;

  Scenario explicit_trace = base_scenario(catalog, fleet);
  explicit_trace.trace = generate_trace(catalog, generated.traffic.open);

  expect_same_fleet_metrics(simulate(generated), simulate(explicit_trace));
}

// ---------------------------------------------------------------------------
// Closed loop: determinism, completion accounting, session latencies
// ---------------------------------------------------------------------------

Scenario closed_scenario(std::size_t sessions, std::size_t per_session,
                         double think_s, std::uint64_t seed) {
  Scenario scenario =
      base_scenario(WorkloadCatalog::mixed_default(), FleetConfig::cycled({"tron", "ghost"}, 4));
  scenario.traffic.mode = LoopMode::kClosed;
  scenario.traffic.closed.sessions = sessions;
  scenario.traffic.closed.requests_per_session = per_session;
  scenario.traffic.closed.think_time_mean_s = think_s;
  scenario.traffic.closed.seed = seed;
  return scenario;
}

TEST(ClosedLoop, CompletesEverySessionAndMeasuresSessionLatency) {
  const FleetMetrics m = simulate(closed_scenario(32, 20, 1e-3, 9));
  EXPECT_EQ(m.completed, 32u * 20u);
  EXPECT_EQ(m.sessions, 32u);
  EXPECT_GT(m.mean_session_s, 0.0);
  EXPECT_GE(m.p99_session_s, m.p50_session_s);
  EXPECT_GE(m.max_session_s, m.p99_session_s);
  // A session spans 20 request round trips: its end-to-end latency dominates
  // any single request's latency.
  EXPECT_GT(m.p50_session_s, m.p50_latency_s);
  // Per-tenant completions are whole sessions (each session is pinned to one
  // catalog entry), so every tenant count is a multiple of requests/session.
  std::size_t tenant_total = 0;
  for (const TenantMetrics& t : m.tenants) {
    EXPECT_EQ(t.completed % 20u, 0u) << t.name;
    tenant_total += t.completed;
  }
  EXPECT_EQ(tenant_total, m.completed);
}

TEST(ClosedLoop, RunsAreBitReproducible) {
  const Scenario scenario = closed_scenario(24, 16, 5e-4, 33);
  expect_same_fleet_metrics(simulate(scenario), simulate(scenario));
}

TEST(ClosedLoop, ZeroThinkTimeCompletes) {
  const FleetMetrics m = simulate(closed_scenario(8, 10, 0.0, 3));
  EXPECT_EQ(m.completed, 80u);
}

TEST(ClosedLoop, MoreSessionsRaiseThroughput) {
  // Closed-loop load scales with concurrency: 4x the sessions against the
  // same fleet must push more requests per simulated second.
  const FleetMetrics few = simulate(closed_scenario(8, 16, 1e-3, 13));
  const FleetMetrics many = simulate(closed_scenario(32, 16, 1e-3, 13));
  EXPECT_GT(many.throughput_qps, few.throughput_qps);
}

TEST(ClosedLoop, SeqLenDistributionsFlowThroughSessions) {
  Scenario scenario = closed_scenario(16, 12, 1e-3, 21);
  scenario.catalog.apply_seqlen_dist(SeqLenDist::kLogNormal);
  const FleetMetrics m = simulate(scenario);
  EXPECT_EQ(m.completed, 16u * 12u);
  // Sampled lengths shatter the per-(workload, seq) cache key space: more
  // distinct estimates than the fixed-length run's (workload x batch) grid.
  const FleetMetrics fixed = simulate(closed_scenario(16, 12, 1e-3, 21));
  EXPECT_GT(m.estimate_misses, fixed.estimate_misses);
}

// ---------------------------------------------------------------------------
// Trace statistics (satellite): MMPP offered rate + burst occupancy
// ---------------------------------------------------------------------------

TEST(TraceStats, MmppLongRunRateMatchesOfferedQps) {
  // The rate's error shrinks with the number of burst cycles the trace spans:
  // 300k requests at 200 QPS span about 6,000 cycles (0.25 s each), and the
  // error's spread over seeds is 0.5%, a tenth of the band.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  TraceConfig cfg;
  cfg.offered_qps = 200.0;
  cfg.request_count = 300000;
  cfg.process = ArrivalProcess::kBursty;
  cfg.seed = 101;
  const std::vector<Request> trace = generate_trace(catalog, cfg);
  const double rate = static_cast<double>(trace.size()) / trace.back().arrival_s;
  EXPECT_NEAR(rate, cfg.offered_qps, 0.05 * cfg.offered_qps);
}

TEST(TraceStats, MmppBurstOccupancyMatchesBurstFraction) {
  // Classify fixed windows as high/low by arrival count; the time fraction
  // spent high must track kBurstFraction.  The 4x rate separation makes the
  // two states unambiguous at this window size (low ~125/window, high ~500).
  // One trace spans only about 80 burst cycles, so the occupancy is the mean
  // over 8 seeded traces: over 40 disjoint groups of 8 seeds its error has a
  // standard deviation of 0.007 against the 0.05 band (one trace: 0.021).
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  TraceConfig cfg;
  cfg.offered_qps = 20000.0;
  cfg.request_count = 400000;
  cfg.process = ArrivalProcess::kBursty;
  const double low_qps = cfg.offered_qps / (1.0 + kBurstFraction * (kBurstMultiplier - 1.0));
  const double high_qps = kBurstMultiplier * low_qps;
  const double window_s = 0.01;
  const double threshold = 0.5 * (low_qps + high_qps) * window_s;
  constexpr std::uint64_t kTraces = 8;
  double occupancy = 0.0;
  for (cfg.seed = 1; cfg.seed <= kTraces; ++cfg.seed) {
    const std::vector<Request> trace = generate_trace(catalog, cfg);
    const double duration = trace.back().arrival_s;
    const auto windows = static_cast<std::size_t>(duration / window_s);
    std::vector<std::size_t> counts(windows + 1, 0);
    for (const Request& r : trace) {
      ++counts[static_cast<std::size_t>(r.arrival_s / window_s)];
    }
    std::size_t high_windows = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      if (static_cast<double>(counts[w]) > threshold) ++high_windows;
    }
    occupancy += static_cast<double>(high_windows) / static_cast<double>(windows) /
                 static_cast<double>(kTraces);
  }
  EXPECT_NEAR(occupancy, kBurstFraction, 0.05);
}

// ---------------------------------------------------------------------------
// Prompt-length sampling (LengthDist at kPromptFloor and kPromptGrid):
// moments, bounds, bucket grid
// ---------------------------------------------------------------------------

TEST(SeqLenSampler, FixedDrawsNothingAndReturnsZero) {
  Rng a(1, 2);
  Rng b(1, 2);
  const LengthDist fixed = WorkloadCatalog::tron_default().at(0).prompt();
  EXPECT_EQ(fixed.shape, SeqLenDist::kFixed);
  EXPECT_EQ(fixed.sample(a, kPromptFloor, kPromptGrid), 0u);
  // No draw was consumed: the streams stay aligned.
  EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(SeqLenSampler, UniformMomentsBoundsAndGrid) {
  // Around 128: uniform over [64, 256].
  const LengthDist dist{SeqLenDist::kUniform, 128};
  Rng rng(42, 7);
  const std::size_t n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::uint32_t lowest = 0xFFFFFFFFu;
  std::uint32_t highest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t len = dist.sample(rng, kPromptFloor, kPromptGrid);
    ASSERT_EQ(len % kPromptGrid, 0u);  // on the grid (256 is a multiple)
    lowest = std::min(lowest, len);
    highest = std::max(highest, len);
    sum += len;
    sum_sq += static_cast<double>(len) * len;
  }
  EXPECT_EQ(lowest, 64u);
  EXPECT_EQ(highest, 256u);
  const double mean = sum / static_cast<double>(n);
  const double stddev = std::sqrt(sum_sq / static_cast<double>(n) - mean * mean);
  // Round-up bucketing shifts the uniform mean from the midpoint (160) by up
  // to one bucket; the spread stays ~span/sqrt(12).
  EXPECT_GT(mean, 160.0);
  EXPECT_LT(mean, 160.0 + static_cast<double>(kPromptGrid));
  EXPECT_NEAR(stddev, (256.0 - 64.0) / std::sqrt(12.0), 6.0);
}

TEST(SeqLenSampler, LogNormalMedianBoundsAndGrid) {
  // Around 128: median 128, clamped to [16, 512].
  const LengthDist dist{SeqLenDist::kLogNormal, 128};
  Rng rng(11, 3);
  const std::size_t n = 50000;
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t len = dist.sample(rng, kPromptFloor, kPromptGrid);
    ASSERT_GE(len, kPromptFloor);
    ASSERT_LE(len, 512u);
    ASSERT_EQ(len % kPromptGrid, 0u);
    samples.push_back(len);
  }
  // The log-normal median 128 lands in [128, 128 + grid] after round-up
  // bucketing.
  const double median = percentile(samples, 0.5);
  EXPECT_GE(median, 128.0);
  EXPECT_LE(median, 128.0 + static_cast<double>(kPromptGrid));
  // Mean of a log-normal exceeds its median (right skew) even after clamping.
  double sum = 0.0;
  for (const double v : samples) sum += v;
  EXPECT_GT(sum / static_cast<double>(n), median);
}

// Prompt and decode lengths of every request of a generated trace, pinned as
// FNV-1a 64 digests (each value widened to 64 bits, low byte first) for each
// prompt shape x {decode off, fixed 16, uniform 15, log-normal 32}.  Recorded
// when prompts and decode drew from two samplers with their own bound fields;
// vit's native 197 and the 15 tokens are odd, so rounding a uniform lower
// bound up instead of down moves the uniform rows.
TEST(PinnedBits, LengthDraws) {
  const SeqLenDist shapes[] = {SeqLenDist::kFixed, SeqLenDist::kUniform,
                               SeqLenDist::kLogNormal};
  const struct {
    SeqLenDist dist;
    std::size_t tokens;  // 0: decode off
  } decodes[] = {{SeqLenDist::kFixed, 0},
                 {SeqLenDist::kFixed, 16},
                 {SeqLenDist::kUniform, 15},
                 {SeqLenDist::kLogNormal, 32}};
  const std::uint64_t pins[3][4] = {
      {0xdd14fcc6528cab25ull, 0x1935c37df3fbeb25ull, 0xf3aed17035ae4d4cull,
       0xa9dcd738b8e8d360ull},
      {0x4a66b44d03e9e70cull, 0xa1057028811dd08cull, 0xa5f3ebd959f397f1ull,
       0xead8f82e58c353f5ull},
      {0x3fe47a0e2ca13436ull, 0xc19af38d8ae01eb6ull, 0xd93bec6b97a4435bull,
       0x1992a61a5c7350dbull},
  };
  for (std::size_t p = 0; p < std::size(shapes); ++p) {
    for (std::size_t d = 0; d < std::size(decodes); ++d) {
      WorkloadCatalog catalog = WorkloadCatalog::tron_default();
      catalog.apply_seqlen_dist(shapes[p]);
      if (decodes[d].tokens > 0) catalog.apply_decode(decodes[d].dist, decodes[d].tokens);
      TraceConfig cfg;
      cfg.offered_qps = 1000.0;
      cfg.request_count = 4000;
      cfg.seed = 7;
      std::uint64_t h = 0xcbf29ce484222325ull;
      const auto add = [&h](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
          h ^= (value >> (8 * byte)) & 0xff;
          h *= 0x100000001b3ull;
        }
      };
      for (const Request& r : generate_trace(catalog, cfg)) {
        add(r.seq_len);
        add(r.decode_tokens);
      }
      EXPECT_EQ(h, pins[p][d]) << seqlen_dist_name(shapes[p]) << " prompts, decode row " << d
                               << std::hex << ": digest " << h;
    }
  }
}

TEST(SeqLenSampler, SeqStreamIsIndependentOfArrivalsAndMix) {
  // Switching an entry's distribution must not perturb arrival times or the
  // workload mix (independent rng streams).
  WorkloadCatalog fixed = WorkloadCatalog::tron_default();
  WorkloadCatalog sampled = WorkloadCatalog::tron_default();
  sampled.apply_seqlen_dist(SeqLenDist::kUniform);
  TraceConfig cfg;
  cfg.offered_qps = 5000.0;
  cfg.request_count = 4000;
  cfg.seed = 77;
  const std::vector<Request> a = generate_trace(fixed, cfg);
  const std::vector<Request> b = generate_trace(sampled, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].seq_len, 0u);
    EXPECT_NE(b[i].seq_len, 0u);
  }
}

// ---------------------------------------------------------------------------
// Seq-aware estimate cache and scheduler buckets
// ---------------------------------------------------------------------------

TEST(SeqLenCache, SeqKeyedEstimatesMatchWithSeqLenWorkloads) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const EstimateCache cache("tron", catalog);
  const tron::TronAccelerator acc(arch::tron_config_by_name("tron"));
  for (const std::uint32_t seq : {64u, 384u}) {
    nn::TransformerConfig config = catalog.workload(0).transformer_config();
    config.seq_len = seq;
    expect_reports_identical(cache.estimate(0, 4, seq), acc.estimate(config, 4));
  }
  // Seq 0 is the native config, and distinct buckets are distinct keys.
  expect_reports_identical(cache.estimate(0, 4),
                           acc.estimate(catalog.workload(0).transformer_config(), 4));
  EXPECT_NE(cache.estimate(0, 4, 64).latency_s, cache.estimate(0, 4, 384).latency_s);
}

TEST(SeqLenScheduler, BatchesNeverMixSeqBuckets) {
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait_s = 0.0;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  // Same workload, two seq buckets, interleaved arrivals.
  sched->enqueue({0, 0.0, 7, 128}, 0.0);
  sched->enqueue({1, 0.0, 7, 256}, 0.0);
  sched->enqueue({2, 0.0, 7, 128}, 0.0);
  sched->enqueue({3, 0.0, 7, 256}, 0.0);
  const std::vector<Request> first = sched->pop(0.1);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].seq_len, first[1].seq_len);
  const std::vector<Request> second = sched->pop(0.1);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].seq_len, second[1].seq_len);
  EXPECT_NE(first[0].seq_len, second[0].seq_len);
}

TEST(SeqLenWorkload, WithSeqLenOverridesTransformersAndRejectsGnn) {
  const arch::Workload w =
      arch::Workload::transformer("bert", sim::transformer_by_name("bert-base", 128));
  const arch::Workload longer = w.with_seq_len(384);
  EXPECT_EQ(longer.transformer_config().seq_len, 384u);
  EXPECT_EQ(longer.name(), "bert");
  EXPECT_EQ(w.transformer_config().seq_len, 128u);  // original untouched
  const arch::Workload g =
      arch::Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  EXPECT_THROW((void)g.with_seq_len(64), InvalidArgument);
}

TEST(SeqLenSimulation, OpenLoopWithSampledLengthsCompletesDeterministically) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_seqlen_dist(SeqLenDist::kUniform);
  Scenario scenario = base_scenario(catalog, FleetConfig::homogeneous("tron", 4));
  scenario.traffic.open.offered_qps = 10000.0;
  scenario.traffic.open.request_count = 6000;
  scenario.traffic.open.seed = 19;
  const FleetMetrics a = simulate(scenario);
  const FleetMetrics b = simulate(scenario);
  EXPECT_EQ(a.completed, 6000u);
  expect_same_fleet_metrics(a, b);
  // Distinct seq buckets inflate the key space past the fixed-length grid.
  EXPECT_GT(a.estimate_misses, 4u);
}

// ---------------------------------------------------------------------------
// Shared name tables
// ---------------------------------------------------------------------------

TEST(Names, RoundTripAndAliases) {
  EXPECT_EQ(process_from_name(process_name(ArrivalProcess::kBursty)), ArrivalProcess::kBursty);
  EXPECT_EQ(scheduler_from_name(scheduler_name(SchedulerKind::kFifo)), SchedulerKind::kFifo);
  EXPECT_EQ(routing_from_name(routing_name(RoutingPolicy::kEnergyAware)),
            RoutingPolicy::kEnergyAware);
  EXPECT_EQ(routing_from_name("energy"), RoutingPolicy::kEnergyAware);  // CLI alias
  EXPECT_EQ(autoscaler_from_name(autoscaler_name(AutoscalerPolicy::kQueueDepth)),
            AutoscalerPolicy::kQueueDepth);
  EXPECT_EQ(loop_mode_from_name(loop_mode_name(LoopMode::kClosed)), LoopMode::kClosed);
  EXPECT_EQ(seqlen_dist_from_name(seqlen_dist_name(SeqLenDist::kLogNormal)),
            SeqLenDist::kLogNormal);
}

TEST(Names, UnknownNamesThrowListingAccepted) {
  try {
    (void)scheduler_from_name("lifo");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lifo"), std::string::npos) << what;
    EXPECT_NE(what.find("fifo"), std::string::npos) << what;
    EXPECT_NE(what.find("batch"), std::string::npos) << what;
  }
  EXPECT_THROW((void)loop_mode_from_name("ajar"), InvalidArgument);
  EXPECT_THROW((void)seqlen_dist_from_name("zipf"), InvalidArgument);
}

}  // namespace
}  // namespace lumos::serve
