// Tests for cell-sharded simulation (serve/shard.hpp), the metrics merge
// (FleetMetrics::merge), the event heap (serve/event_heap.hpp), and the
// batch-buffer arena (serve/arena.hpp).  The load-bearing contracts:
//
//   * cells == 1 is bit-identical to the serial simulator;
//   * for fixed K, simulate_sharded equals the serial ascending fold of the
//     plan's cells — independent of LUMOS_THREADS (CI runs 1 and 4);
//   * FleetMetrics::merge adds raw sums and finalizes once: it is pairwise
//     commutative bit for bit, the merged tally is the sum of the cells',
//     and its percentiles are exact over the union multiset;
//   * RequestArena never hands out a buffer that is still live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/arena.hpp"
#include "serve/event_heap.hpp"
#include "serve/shard.hpp"

namespace lumos::serve {
namespace {

Scenario open_loop_scenario(std::size_t fleet_size, std::size_t requests) {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", fleet_size);
  s.catalog = WorkloadCatalog::tron_default();
  s.batch.max_batch = 8;
  s.traffic.open.offered_qps = 60000.0;
  s.traffic.open.request_count = requests;
  s.traffic.open.seed = 11;
  return s;
}

// The robustness kitchen sink: faults, timeouts, retries, and admission all
// enabled so the sharded parity below exercises every event source.
Scenario faulted_scenario(std::size_t fleet_size, std::size_t requests) {
  Scenario s = open_loop_scenario(fleet_size, requests);
  s.traffic.open.offered_qps = 120000.0;  // saturated: sheds and timeouts
  s.catalog.apply_timeout(5e-3);
  s.sim.faults.mtbf_s = 0.02;
  s.sim.faults.mttr_s = 0.005;
  s.sim.faults.seed = 7;
  s.sim.retry.max_attempts = 3;
  s.sim.retry.base_backoff_s = 1e-4;
  s.sim.admission.policy = AdmissionPolicy::kQueueCap;
  s.sim.admission.queue_cap = 256;
  return s;
}

// Every scalar field of `a` and `b`, and of their tenants, agrees bit for bit.
void expect_bit_identical(const FleetMetrics& a, const FleetMetrics& b) {
#define EXPECT_SAME(field) EXPECT_EQ(a.field, b.field) << #field
  EXPECT_SAME(offered_qps);
  EXPECT_SAME(completed);
  EXPECT_SAME(within_slo);
  EXPECT_SAME(duration_s);
  EXPECT_SAME(throughput_qps);
  EXPECT_SAME(goodput_qps);
  EXPECT_SAME(slo_latency_s);
  EXPECT_SAME(slo_attainment);
  EXPECT_SAME(p50_latency_s);
  EXPECT_SAME(p95_latency_s);
  EXPECT_SAME(p99_latency_s);
  EXPECT_SAME(p999_latency_s);
  EXPECT_SAME(mean_latency_s);
  EXPECT_SAME(max_latency_s);
  EXPECT_SAME(mean_queue_depth);
  EXPECT_SAME(peak_queue_depth);
  EXPECT_SAME(dispatches);
  EXPECT_SAME(batch_histogram);
  EXPECT_SAME(mean_batch_size);
  EXPECT_SAME(fleet_energy_j);
  EXPECT_SAME(energy_per_request_j);
  EXPECT_SAME(fleet_utilization);
  EXPECT_SAME(fleet_cost_usd);
  EXPECT_SAME(cost_per_request_usd);
  EXPECT_SAME(autoscale_grows);
  EXPECT_SAME(autoscale_shrinks);
  EXPECT_SAME(initial_fleet_size);
  EXPECT_SAME(peak_fleet_size);
  EXPECT_SAME(final_fleet_size);
  EXPECT_SAME(mean_fleet_size);
  EXPECT_SAME(shed_requests);
  EXPECT_SAME(timed_out_requests);
  EXPECT_SAME(attempt_timeouts);
  EXPECT_SAME(retried_attempts);
  EXPECT_SAME(failed_batches);
  EXPECT_SAME(requeued_requests);
  EXPECT_SAME(slot_failures);
  EXPECT_SAME(slot_recoveries);
  EXPECT_SAME(drop_rate);
  EXPECT_SAME(fleet_availability);
  EXPECT_SAME(observed_mttr_s);
  EXPECT_SAME(sessions);
  EXPECT_SAME(mean_session_s);
  EXPECT_SAME(p50_session_s);
  EXPECT_SAME(p99_session_s);
  EXPECT_SAME(max_session_s);
  EXPECT_SAME(decode_requests);
  EXPECT_SAME(generated_tokens);
  EXPECT_SAME(aborted_decode_tokens);
  EXPECT_SAME(decode_steps);
  EXPECT_SAME(tokens_per_s);
  EXPECT_SAME(mean_ttft_s);
  EXPECT_SAME(p50_ttft_s);
  EXPECT_SAME(p95_ttft_s);
  EXPECT_SAME(p99_ttft_s);
  EXPECT_SAME(max_ttft_s);
  EXPECT_SAME(mean_tpot_s);
  EXPECT_SAME(p50_tpot_s);
  EXPECT_SAME(p95_tpot_s);
  EXPECT_SAME(p99_tpot_s);
  EXPECT_SAME(max_tpot_s);
  EXPECT_SAME(ttft_slo_requests);
  EXPECT_SAME(within_ttft_slo);
  EXPECT_SAME(tpot_slo_requests);
  EXPECT_SAME(within_tpot_slo);
  EXPECT_SAME(ttft_attainment);
  EXPECT_SAME(tpot_attainment);
  EXPECT_SAME(decode_occupancy);
  EXPECT_SAME(mean_decode_occupancy);
  EXPECT_SAME(estimate_lookups);
  EXPECT_SAME(estimate_misses);
  EXPECT_SAME(tally);
#undef EXPECT_SAME
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t w = 0; w < a.tenants.size(); ++w) {
    const TenantMetrics& ta = a.tenants[w];
    const TenantMetrics& tb = b.tenants[w];
#define EXPECT_SAME(field) EXPECT_EQ(ta.field, tb.field) << #field << " of tenant " << w
    EXPECT_SAME(name);
    EXPECT_SAME(priority);
    EXPECT_SAME(slo_latency_s);
    EXPECT_SAME(completed);
    EXPECT_SAME(within_slo);
    EXPECT_SAME(slo_attainment);
    EXPECT_SAME(goodput_qps);
    EXPECT_SAME(mean_latency_s);
    EXPECT_SAME(p50_latency_s);
    EXPECT_SAME(p99_latency_s);
    EXPECT_SAME(max_latency_s);
    EXPECT_SAME(shed);
    EXPECT_SAME(timed_out);
    EXPECT_SAME(drop_rate);
    EXPECT_SAME(cost_usd);
#undef EXPECT_SAME
  }
}

// ---------------------------------------------------------------------------
// Sharded parity contracts
// ---------------------------------------------------------------------------

TEST(Shard, CellsOneIsBitIdenticalToSerial) {
  const Scenario s = open_loop_scenario(8, 20000);
  expect_bit_identical(simulate(s), simulate_sharded(s, 1));
}

TEST(Shard, CellsOneWithFaultsIsBitIdenticalToSerial) {
  const Scenario s = faulted_scenario(4, 10000);
  expect_bit_identical(simulate(s), simulate_sharded(s, 1));
}

// The thread-independence contract: simulate_sharded must equal the serial
// ascending fold of its own plan's cells, whatever LUMOS_THREADS is (the CI
// matrix runs this suite under 1 and 4 threads).  Faults + retries +
// admission on so every event source crosses the shard boundary machinery.
TEST(Shard, ShardedEqualsSerialCellFoldUnderAnyThreadCount) {
  const Scenario s = faulted_scenario(8, 20000);
  const CellPlan plan = CellPlan::build(s, 4);
  ASSERT_EQ(plan.cells.size(), 4u);
  FleetMetrics folded = simulate(plan.cells[0]);
  for (std::size_t c = 1; c < plan.cells.size(); ++c) {
    folded.merge(simulate(plan.cells[c]));
  }
  folded.latency_state.reset();
  expect_bit_identical(folded, simulate_sharded(s, 4));
}

TEST(Shard, ShardedClosedLoopRunsEverySession) {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", 4);
  s.catalog = WorkloadCatalog::tron_default();
  s.traffic.mode = LoopMode::kClosed;
  s.traffic.closed.sessions = 10;  // unequal split: 3+3+2+2
  s.traffic.closed.requests_per_session = 16;
  const FleetMetrics m = simulate_sharded(s, 4);
  EXPECT_EQ(m.sessions, 10u);
  EXPECT_EQ(m.completed, 10u * 16u);
  EXPECT_GT(m.p99_session_s, 0.0);
}

TEST(Shard, CellSlicesPartitionFleetAndTraffic) {
  Scenario s = open_loop_scenario(6, 9001);
  const CellPlan plan = CellPlan::build(s, 4);  // slots 2+2+1+1
  ASSERT_EQ(plan.cells.size(), 4u);
  std::size_t slots = 0;
  std::size_t requests = 0;
  double qps = 0.0;
  for (const Scenario& cell : plan.cells) {
    slots += cell.fleet.accelerators.size();
    requests += cell.traffic.open.request_count;
    qps += cell.traffic.open.offered_qps;
    EXPECT_TRUE(cell.sim.keep_latency_state);
    EXPECT_NE(cell.traffic.open.seed, s.traffic.open.seed);
  }
  EXPECT_EQ(slots, 6u);
  EXPECT_EQ(requests, 9001u);
  EXPECT_NEAR(qps, s.traffic.open.offered_qps, 1e-9);
  // Distinct cells, distinct streams.
  EXPECT_NE(plan.cells[0].traffic.open.seed, plan.cells[1].traffic.open.seed);
  EXPECT_NE(plan.cells[0].sim.faults.seed, plan.cells[1].sim.faults.seed);
}

TEST(Shard, BuildRejectsBadPlans) {
  const Scenario s = open_loop_scenario(4, 1000);
  EXPECT_THROW(CellPlan::build(s, 0), InvalidArgument);
  EXPECT_THROW(CellPlan::build(s, 5), InvalidArgument);  // more cells than slots

  Scenario observed = s;
  observed.observe.trace.enabled = true;
  EXPECT_THROW(CellPlan::build(observed, 2), InvalidArgument);
  EXPECT_NO_THROW(CellPlan::build(observed, 1));  // serial observed runs stay legal

  Scenario closed = s;
  closed.traffic.mode = LoopMode::kClosed;
  closed.traffic.closed.sessions = 2;
  EXPECT_THROW(CellPlan::build(closed, 3), InvalidArgument);  // a cell would be empty

  Scenario traced = s;
  traced.trace = {{0, 0.0, 0}, {1, 1e-5, 0}};
  EXPECT_THROW(CellPlan::build(traced, 3), InvalidArgument);
}

TEST(Shard, ExplicitTraceDealsRoundRobin) {
  Scenario s = open_loop_scenario(4, 1000);
  for (std::size_t i = 0; i < 10; ++i) {
    s.trace.push_back({i, static_cast<double>(i) * 1e-5, 0});
  }
  const CellPlan plan = CellPlan::build(s, 4);
  ASSERT_EQ(plan.cells[0].trace.size(), 3u);  // 0, 4, 8
  EXPECT_EQ(plan.cells[0].trace[1].id, 4u);
  ASSERT_EQ(plan.cells[3].trace.size(), 2u);  // 3, 7
  EXPECT_EQ(plan.cells[3].trace[0].id, 3u);
  // Each slice stays arrival-ordered.
  for (const Scenario& cell : plan.cells) {
    EXPECT_TRUE(std::is_sorted(
        cell.trace.begin(), cell.trace.end(),
        [](const Request& a, const Request& b) { return a.arrival_s < b.arrival_s; }));
  }
}

// ---------------------------------------------------------------------------
// FleetMetrics::merge
// ---------------------------------------------------------------------------

// A closed-loop decoding fleet that keeps its latency state, so every
// retained sample kind — tenant, session, TTFT and TPOT — is populated.
Scenario closed_loop_decode_scenario() {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", 8);
  s.catalog = WorkloadCatalog::tron_default();
  s.catalog.apply_decode(SeqLenDist::kLogNormal, 16);
  s.batch.max_batch = 8;
  s.sim.decode_mode = DecodeMode::kContinuous;
  s.sim.keep_latency_state = true;
  s.traffic.mode = LoopMode::kClosed;
  s.traffic.closed.sessions = 64;
  s.traffic.closed.requests_per_session = 24;
  return s;
}

// The same fleet under seeded slot faults: availability and MTTR go live too.
Scenario faulted_closed_loop_decode_scenario(std::uint64_t seed) {
  Scenario s = closed_loop_decode_scenario();
  s.sim.faults.mtbf_s = 0.01;
  s.sim.faults.mttr_s = 0.002;
  s.sim.faults.seed = seed;
  s.traffic.closed.seed = seed;
  return s;
}

// Every field finalize() derives.
constexpr double FleetMetrics::*kDerived[] = {
    &FleetMetrics::throughput_qps,       &FleetMetrics::goodput_qps,
    &FleetMetrics::slo_attainment,       &FleetMetrics::p50_latency_s,
    &FleetMetrics::p95_latency_s,        &FleetMetrics::p99_latency_s,
    &FleetMetrics::p999_latency_s,       &FleetMetrics::mean_latency_s,
    &FleetMetrics::max_latency_s,        &FleetMetrics::mean_queue_depth,
    &FleetMetrics::mean_batch_size,      &FleetMetrics::energy_per_request_j,
    &FleetMetrics::fleet_utilization,    &FleetMetrics::cost_per_request_usd,
    &FleetMetrics::mean_fleet_size,      &FleetMetrics::drop_rate,
    &FleetMetrics::fleet_availability,   &FleetMetrics::observed_mttr_s,
    &FleetMetrics::mean_session_s,       &FleetMetrics::p50_session_s,
    &FleetMetrics::p99_session_s,        &FleetMetrics::max_session_s,
    &FleetMetrics::tokens_per_s,         &FleetMetrics::mean_ttft_s,
    &FleetMetrics::p50_ttft_s,           &FleetMetrics::p95_ttft_s,
    &FleetMetrics::p99_ttft_s,           &FleetMetrics::max_ttft_s,
    &FleetMetrics::mean_tpot_s,          &FleetMetrics::p50_tpot_s,
    &FleetMetrics::p95_tpot_s,           &FleetMetrics::p99_tpot_s,
    &FleetMetrics::max_tpot_s,           &FleetMetrics::ttft_attainment,
    &FleetMetrics::tpot_attainment,      &FleetMetrics::mean_decode_occupancy,
};
constexpr double TenantMetrics::*kTenantDerived[] = {
    &TenantMetrics::slo_attainment, &TenantMetrics::goodput_qps,
    &TenantMetrics::mean_latency_s, &TenantMetrics::p50_latency_s,
    &TenantMetrics::p99_latency_s,  &TenantMetrics::max_latency_s,
    &TenantMetrics::drop_rate,
};

// Raw sums add and one finalize derives the rest, so a merge gives the same
// bits in either order — on runs where every metric family is live:
// availability, MTTR, sessions, TTFT and TPOT.
TEST(MetricsMerge, PairwiseCommutative) {
  const FleetMetrics a = simulate(faulted_closed_loop_decode_scenario(7));
  const FleetMetrics b = simulate(faulted_closed_loop_decode_scenario(8));
  for (const FleetMetrics* m : {&a, &b}) {
    ASSERT_LT(m->fleet_availability, 1.0);
    ASSERT_GT(m->observed_mttr_s, 0.0);
    ASSERT_GT(m->sessions, 0u);
    ASSERT_GT(m->mean_ttft_s, 0.0);
    ASSERT_GT(m->mean_tpot_s, 0.0);
  }
  FleetMetrics ab = a;
  ab.merge(b);
  FleetMetrics ba = b;
  ba.merge(a);
  expect_bit_identical(ab, ba);
}

TEST(MetricsMerge, ExactStatePercentilesMatchUnionMultiset) {
  Scenario sa = open_loop_scenario(4, 5000);
  sa.sim.keep_latency_state = true;
  Scenario sb = open_loop_scenario(4, 7000);
  sb.traffic.open.seed = 99;
  sb.sim.keep_latency_state = true;
  const FleetMetrics a = simulate(sa);
  const FleetMetrics b = simulate(sb);
  ASSERT_TRUE(a.latency_state != nullptr && !a.latency_state->hdr);

  // Manual union of every tenant sample from both runs.
  std::vector<double> all;
  for (const FleetMetrics* m : {&a, &b}) {
    for (const SampleRun& run : m->latency_state->tenant_samples) {
      all.insert(all.end(), run.values().begin(), run.values().end());
    }
  }
  ASSERT_EQ(all.size(), a.completed + b.completed);

  FleetMetrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.p50_latency_s, percentile(all, 0.50));
  EXPECT_EQ(merged.p99_latency_s, percentile(all, 0.99));
  EXPECT_EQ(merged.p999_latency_s, percentile(all, 0.999));
  EXPECT_EQ(merged.max_latency_s, std::max(a.max_latency_s, b.max_latency_s));
  // The merged state survived (both sides carried one), so a further merge
  // stays exact.
  EXPECT_TRUE(merged.latency_state != nullptr);
}

TEST(MetricsMerge, KeptStateVectorsAreAscending) {
  const FleetMetrics m = simulate(closed_loop_decode_scenario());
  ASSERT_NE(m.latency_state, nullptr);
  const LatencyState& st = *m.latency_state;
  const auto ascending = [](const SampleRun& run) {
    return std::is_sorted(run.values().begin(), run.values().end());
  };
  ASSERT_EQ(st.tenant_samples.size(), m.tenants.size());
  for (const SampleRun& run : st.tenant_samples) EXPECT_TRUE(ascending(run));
  EXPECT_EQ(st.session_samples.size(), m.sessions);
  EXPECT_TRUE(ascending(st.session_samples));
  EXPECT_EQ(st.ttft_samples.size(), m.decode_requests);
  EXPECT_TRUE(ascending(st.ttft_samples));
  EXPECT_FALSE(st.tpot_samples.empty());
  EXPECT_TRUE(ascending(st.tpot_samples));
  // Keeping the state changes nothing the run reports.
  Scenario dropped = closed_loop_decode_scenario();
  dropped.sim.keep_latency_state = false;
  const FleetMetrics d = simulate(dropped);
  EXPECT_EQ(d.latency_state, nullptr);
  expect_bit_identical(m, d);
  EXPECT_EQ(m.mean_ttft_s, d.mean_ttft_s);
  EXPECT_EQ(m.p99_ttft_s, d.p99_ttft_s);
  EXPECT_EQ(m.mean_tpot_s, d.mean_tpot_s);
  EXPECT_EQ(m.p99_tpot_s, d.p99_tpot_s);
}

// A four-cell closed-loop decode run: every merged percentile equals the
// sorting reference over the concatenated per-cell states (simulate_sharded
// folds exactly these cells), and the maxima match; the means divide carried
// sums, so they agree with a re-summed union to within rounding.
TEST(MetricsMerge, ShardedClosedLoopDecodeMatchesConcatenatedCellStates) {
  const Scenario s = closed_loop_decode_scenario();
  const FleetMetrics merged = simulate_sharded(s, 4);
  ASSERT_NE(merged.latency_state, nullptr);

  const CellPlan plan = CellPlan::build(s, 4);
  std::vector<std::vector<double>> tenants(merged.tenants.size());
  std::vector<double> fleet, sessions, ttft, tpot;
  const auto append = [](std::vector<double>& to, const SampleRun& run) {
    to.insert(to.end(), run.values().begin(), run.values().end());
  };
  for (const Scenario& cell : plan.cells) {
    const FleetMetrics m = simulate(cell);
    for (std::size_t w = 0; w < tenants.size(); ++w) {
      append(tenants[w], m.latency_state->tenant_samples[w]);
      append(fleet, m.latency_state->tenant_samples[w]);
    }
    append(sessions, m.latency_state->session_samples);
    append(ttft, m.latency_state->ttft_samples);
    append(tpot, m.latency_state->tpot_samples);
  }
  ASSERT_FALSE(sessions.empty());
  ASSERT_FALSE(ttft.empty());
  ASSERT_FALSE(tpot.empty());

  for (std::size_t w = 0; w < tenants.size(); ++w) {
    if (tenants[w].empty()) continue;
    EXPECT_EQ(merged.tenants[w].p50_latency_s, percentile(tenants[w], 0.50)) << w;
    EXPECT_EQ(merged.tenants[w].p99_latency_s, percentile(tenants[w], 0.99)) << w;
    EXPECT_EQ(merged.tenants[w].max_latency_s, tenants[w].back()) << w;
  }
  EXPECT_EQ(merged.p50_latency_s, percentile(fleet, 0.50));
  EXPECT_EQ(merged.p95_latency_s, percentile(fleet, 0.95));
  EXPECT_EQ(merged.p99_latency_s, percentile(fleet, 0.99));
  EXPECT_EQ(merged.p999_latency_s, percentile(fleet, 0.999));
  EXPECT_EQ(merged.max_latency_s, fleet.back());

  EXPECT_EQ(merged.sessions, sessions.size());
  EXPECT_EQ(merged.p50_session_s, percentile(sessions, 0.50));
  EXPECT_EQ(merged.p99_session_s, percentile(sessions, 0.99));
  EXPECT_EQ(merged.max_session_s, sessions.back());
  EXPECT_EQ(merged.p50_ttft_s, percentile(ttft, 0.50));
  EXPECT_EQ(merged.p95_ttft_s, percentile(ttft, 0.95));
  EXPECT_EQ(merged.p99_ttft_s, percentile(ttft, 0.99));
  EXPECT_EQ(merged.max_ttft_s, ttft.back());
  EXPECT_EQ(merged.p50_tpot_s, percentile(tpot, 0.50));
  EXPECT_EQ(merged.p95_tpot_s, percentile(tpot, 0.95));
  EXPECT_EQ(merged.p99_tpot_s, percentile(tpot, 0.99));
  EXPECT_EQ(merged.max_tpot_s, tpot.back());

  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  EXPECT_NEAR(merged.mean_session_s, mean(sessions), 1e-12 * mean(sessions));
  EXPECT_NEAR(merged.mean_ttft_s, mean(ttft), 1e-12 * mean(ttft));
  EXPECT_NEAR(merged.mean_tpot_s, mean(tpot), 1e-12 * mean(tpot));
}

TEST(MetricsMerge, HdrStatesMergeAndMismatchesThrow) {
  Scenario sa = open_loop_scenario(4, 5000);
  sa.sim.percentile_mode = PercentileMode::kHdr;
  sa.sim.keep_latency_state = true;
  Scenario sb = sa;
  sb.traffic.open.seed = 123;
  const FleetMetrics a = simulate(sa);
  FleetMetrics b = simulate(sb);
  FleetMetrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.completed, a.completed + b.completed);
  EXPECT_GT(merged.p99_latency_s, 0.0);

  // Mixing exact and hdr states is a config error, not a silent average.
  Scenario sc = open_loop_scenario(4, 5000);
  sc.sim.keep_latency_state = true;
  const FleetMetrics c = simulate(sc);
  FleetMetrics bad = a;
  EXPECT_THROW(bad.merge(c), InvalidArgument);

  // Mismatched sketch resolutions throw too (HdrHistogram::merge contract).
  Scenario sd = sa;
  sd.sim.hdr_relative_error = 0.05;
  const FleetMetrics d = simulate(sd);
  FleetMetrics bad2 = a;
  EXPECT_THROW(bad2.merge(d), InvalidArgument);
}

TEST(MetricsMerge, MismatchedCatalogsThrow) {
  Scenario sa = open_loop_scenario(4, 2000);
  const FleetMetrics a = simulate(sa);
  FleetMetrics b = a;
  b.tenants.pop_back();
  FleetMetrics m = a;
  EXPECT_THROW(m.merge(b), InvalidArgument);
}

// The tally is additive: a sharded run's tally is the sum of its cells',
// added in ascending cell order, and finalize() on the merged counters, that
// tally and the merged state reassigns every derived field to the same bits.
TEST(MetricsMerge, ShardedTallyIsTheCellSumAndFinalizeReproducesIt) {
  const Scenario s = faulted_closed_loop_decode_scenario(7);
  const FleetMetrics merged = simulate_sharded(s, 4);
  ASSERT_NE(merged.latency_state, nullptr);
  const CellPlan plan = CellPlan::build(s, 4);
  Tally sum;
  for (const Scenario& cell : plan.cells) sum += simulate(cell).tally;
  EXPECT_EQ(merged.tally, sum);
  EXPECT_GT(sum.down_slot_s, 0.0);
  EXPECT_GT(sum.repair_s, 0.0);

  FleetMetrics refinalized = merged;
  refinalized.tally = sum;
  const double poison = std::nan("");
  for (const auto field : kDerived) refinalized.*field = poison;
  for (TenantMetrics& t : refinalized.tenants) {
    for (const auto field : kTenantDerived) t.*field = poison;
  }
  finalize(refinalized);
  expect_bit_identical(merged, refinalized);
}

// A merge needs both sides' latency state, and the error names the knob
// that keeps it.
TEST(MetricsMerge, MergeWithoutStateThrows) {
  Scenario kept = open_loop_scenario(4, 4000);
  kept.sim.keep_latency_state = true;
  Scenario dropped = open_loop_scenario(4, 2000);
  dropped.traffic.open.seed = 5;
  const FleetMetrics with_state = simulate(kept);
  const FleetMetrics without_state = simulate(dropped);
  ASSERT_EQ(without_state.latency_state, nullptr);
  for (const auto& [into, from] : {std::pair{&with_state, &without_state},
                                   std::pair{&without_state, &with_state},
                                   std::pair{&without_state, &without_state}}) {
    FleetMetrics m = *into;
    try {
      m.merge(*from);
      FAIL() << "a merge without latency state must throw";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("keep_latency_state"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// EventHeap
// ---------------------------------------------------------------------------

struct Ev {
  double time_s = 0.0;
  std::uint64_t seq = 0;
};
struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

TEST(EventQueues, EventHeapIsStableTotalOrderAtEqualTimes) {
  EventHeap<Ev, EvLater> heap;
  for (std::uint64_t s : {5u, 1u, 3u, 0u, 4u, 2u}) heap.push({1.0, s});
  for (std::uint64_t expect = 0; expect < 6; ++expect) {
    EXPECT_EQ(heap.pop().seq, expect);
  }
}

// ---------------------------------------------------------------------------
// RequestArena
// ---------------------------------------------------------------------------

TEST(Arena, ReusesBuffersWithoutAliasingLiveOnes) {
  RequestArena arena;
  Rng rng(7);
  // Live buffers tagged with their identity; the arena must never hand a
  // still-live buffer out again (data() pointers of live buffers stay
  // distinct) and released capacity must actually be reused.
  std::vector<std::vector<Request>> live;
  for (std::size_t round = 0; round < 2000; ++round) {
    if (live.empty() || rng.next_below(2) == 0) {
      std::vector<Request> b = arena.acquire();
      ASSERT_TRUE(b.empty());  // released buffers come back cleared
      const std::size_t n = 1 + rng.next_below(8);
      for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.id = (static_cast<std::uint64_t>(round) << 8) | i;
        b.push_back(r);
      }
      for (const std::vector<Request>& other : live) {
        ASSERT_NE(b.data(), other.data());
      }
      live.push_back(std::move(b));
    } else {
      const std::size_t pick = rng.next_below(live.size());
      // Verify the buffer still holds exactly what was written (no aliasing
      // corrupted it), then hand it back.
      for (std::size_t i = 1; i < live[pick].size(); ++i) {
        ASSERT_EQ(live[pick][i].id, live[pick][0].id + i);
      }
      arena.release(std::move(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(arena.outstanding(), live.size());
  }
  EXPECT_LT(arena.allocations(), arena.acquires());  // reuse actually happened
  while (!live.empty()) {
    arena.release(std::move(live.back()));
    live.pop_back();
  }
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_THROW(arena.release({}), InvalidArgument);
}

// Requeue/retry churn in a real run: fault-aborted batches and retries cycle
// buffers through the arena, and a live batch is never recycled — if it were,
// completions would double-count or lose requests and the terminal-count
// invariant (completed + shed + timed out == issued) would break.
TEST(Arena, FaultRetryChurnPreservesTerminalAccounting) {
  const Scenario s = faulted_scenario(4, 15000);
  const FleetMetrics m = simulate(s);
  EXPECT_GT(m.requeued_requests, 0u);   // fault-aborts exercised the release path
  EXPECT_GT(m.retried_attempts, 0u);    // retry heap exercised it too
  EXPECT_EQ(m.completed + m.shed_requests + m.timed_out_requests, 15000u);
}

}  // namespace
}  // namespace lumos::serve
