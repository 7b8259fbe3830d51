// Tests for the elastic-serving subsystem: autoscaling policies (growth,
// drain-before-retire shrink, parity of a no-op autoscaler with a static
// fleet), per-tenant SLOs and strict priority tiers (parity of all-zero
// tiers with the untiered scheduler), FleetMetrics percentile edge cases,
// and the campaign autoscaler axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "serve/campaign.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Request make_request(std::uint64_t id, double arrival_s, std::uint32_t workload) {
  return {id, arrival_s, workload};
}

// Scenario over an explicit pre-materialised trace.
FleetMetrics simulate_trace(const FleetConfig& fleet, const WorkloadCatalog& catalog,
                            std::vector<Request> trace, SchedulerKind scheduler,
                            const BatchPolicy& policy, const SimConfig& sim = {}) {
  Scenario scenario;
  scenario.fleet = fleet;
  scenario.catalog = catalog;
  scenario.scheduler = scheduler;
  scenario.batch = policy;
  scenario.sim = sim;
  scenario.trace = std::move(trace);
  return simulate(scenario);
}

std::vector<Request> tron_trace(const WorkloadCatalog& catalog, double qps_fraction,
                                std::size_t requests, std::uint64_t seed) {
  TraceConfig cfg;
  cfg.offered_qps = qps_fraction * fleet_capacity_qps(catalog, "tron", 2, 8);
  cfg.request_count = requests;
  cfg.seed = seed;
  return generate_trace(catalog, cfg);
}

// `exact_queue_integral = false` relaxes only the time-weighted queue-depth
// integral: an enabled-but-pinned autoscaler wakes the loop at interval
// boundaries, splitting `queued * dt` terms into sums that are equal in exact
// arithmetic but may round differently.  Every event-ordering-dependent
// metric stays bit-exact.
void expect_bit_identical(const FleetMetrics& a, const FleetMetrics& b,
                          bool exact_queue_integral = true) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_EQ(a.goodput_qps, b.goodput_qps);
  EXPECT_EQ(a.fleet_energy_j, b.fleet_energy_j);
  EXPECT_EQ(a.fleet_utilization, b.fleet_utilization);
  if (exact_queue_integral) {
    EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  } else {
    EXPECT_NEAR(a.mean_queue_depth, b.mean_queue_depth,
                1e-9 * std::max(a.mean_queue_depth, 1.0));
  }
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
}

// ---------------------------------------------------------------------------
// Parity: elastic machinery off must be bit-identical to the static simulator
// ---------------------------------------------------------------------------

TEST(ElasticParity, NoOpAutoscalerBitIdenticalToStaticFleet) {
  // A pinned autoscaler (min_slots == max_slots == the fleet size) evaluates
  // every interval but can never act; its extra event-loop wakeups must not
  // change a single bit of the results.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 0.7, 8000, 91);
  BatchPolicy policy;
  policy.max_batch = 8;

  const FleetMetrics off =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  SimConfig pinned;
  pinned.autoscaler.policy = AutoscalerPolicy::kQueueDepth;
  pinned.autoscaler.min_slots = 2;
  pinned.autoscaler.max_slots = 2;
  const FleetMetrics on =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, pinned);
  EXPECT_EQ(on.autoscale_grows, 0u);
  EXPECT_EQ(on.autoscale_shrinks, 0u);
  expect_bit_identical(off, on, /*exact_queue_integral=*/false);
}

TEST(ElasticParity, DisabledAutoscalerIsTheStaticSimulator) {
  // policy == kNone must not even wake the loop: explicit default SimConfig
  // vs an explicitly-disabled autoscaler, bit-exact across the board.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 0.8, 6000, 90);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig off;
  off.autoscaler.policy = AutoscalerPolicy::kNone;
  off.autoscaler.interval_s = 1e-5;  // ignored: kNone never evaluates
  expect_bit_identical(
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy),
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, off));
}

TEST(ElasticParity, AllZeroPrioritiesBitIdenticalToUntiered) {
  WorkloadCatalog untouched = WorkloadCatalog::tron_default();
  WorkloadCatalog zeroed = WorkloadCatalog::tron_default();
  for (std::size_t i = 0; i < zeroed.size(); ++i) zeroed.set_priority(i, 0);
  EXPECT_TRUE(zeroed.priorities().empty());  // all-zero collapses to untiered

  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(untouched, 0.9, 8000, 92);
  BatchPolicy policy;
  policy.max_batch = 8;
  expect_bit_identical(
      simulate_trace(fleet, untouched, trace, SchedulerKind::kDynamicBatch, policy),
      simulate_trace(fleet, zeroed, trace, SchedulerKind::kDynamicBatch, policy));
}

// ---------------------------------------------------------------------------
// Priority tiers in the schedulers
// ---------------------------------------------------------------------------

TEST(PriorityScheduler, FifoPopsLowerTierFirstDespiteArrivalOrder) {
  // Workload 0 is tier 1, workload 1 is tier 0: the later-arriving tier-0
  // request must pop first; within a tier, arrival order still rules.
  const auto sched = make_scheduler(SchedulerKind::kFifo, {}, {1, 0});
  sched->enqueue(make_request(0, 0.0, 0), 0.0);
  sched->enqueue(make_request(1, 0.1, 1), 0.1);
  sched->enqueue(make_request(2, 0.2, 0), 0.2);
  EXPECT_EQ(sched->pop(0.3).front().id, 1u);
  EXPECT_EQ(sched->pop(0.3).front().id, 0u);
  EXPECT_EQ(sched->pop(0.3).front().id, 2u);
}

TEST(PriorityScheduler, FifoMaskStillFiltersAcrossTiers) {
  // The tier-0 workload is masked out (no idle compatible accelerator): the
  // tier-1 request must dispatch rather than head-of-line block.
  const auto sched = make_scheduler(SchedulerKind::kFifo, {}, {1, 0});
  sched->enqueue(make_request(0, 0.0, 0), 0.0);
  sched->enqueue(make_request(1, 0.1, 1), 0.1);
  const std::vector<char> only_workload_0{1, 0};
  const WorkloadMask mask(&only_workload_0);
  EXPECT_EQ(sched->pop(0.2, mask).front().id, 0u);
}

TEST(PriorityScheduler, DynamicBatchServesLowerTierBeforeLongerWaitingBucket) {
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait_s = 0.0;  // everything is ready immediately
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy, {1, 0});
  sched->enqueue(make_request(0, 0.0, 0), 0.0);   // tier 1, waiting longest
  sched->enqueue(make_request(1, 0.5, 1), 0.5);   // tier 0, fresh
  const std::vector<Request> first = sched->pop(0.6);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().workload, 1u);
  EXPECT_EQ(sched->pop(0.6).front().workload, 0u);
}

TEST(PriorityScheduler, DeadlinesOfLowTiersStillWakeTheLoop) {
  // next_deadline_s must ignore tiers: a lone tier-1 bucket's deadline is the
  // only reason the loop would wake, tier order only reorders ready work.
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = 0.5;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy, {7});
  sched->enqueue(make_request(0, 1.0, 0), 1.0);
  EXPECT_EQ(sched->next_deadline_s(), 1.5);
}

TEST(PriorityServing, OverloadFavoursTierZeroTail) {
  // 3x overload on a mixed two-tier catalog: tier-0 tenants keep a far
  // better tail than tier-1 tenants on the same fleet.
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_default_tiers();
  ASSERT_FALSE(catalog.priorities().empty());
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 3.0, 12000, 93);
  BatchPolicy policy;
  policy.max_batch = 8;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  ASSERT_EQ(m.tenants.size(), catalog.size());
  double tier0_worst_p99 = 0.0;
  double tier1_best_p99 = 1e300;
  for (const TenantMetrics& t : m.tenants) {
    if (t.priority == 0) {
      tier0_worst_p99 = std::max(tier0_worst_p99, t.p99_latency_s);
    } else {
      tier1_best_p99 = std::min(tier1_best_p99, t.p99_latency_s);
    }
  }
  EXPECT_LT(tier0_worst_p99, 0.5 * tier1_best_p99);
}

// ---------------------------------------------------------------------------
// Per-tenant SLOs
// ---------------------------------------------------------------------------

TEST(TenantSlo, PerEntrySloOverridesGlobalAndFeedsAggregate) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  // Impossible SLO for one tenant only: its attainment collapses while the
  // others stay perfect, and the aggregate counts each request against its
  // own tenant's SLO.
  catalog.set_slo(1, 1e-12);
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 4);
  const std::vector<Request> trace = tron_trace(catalog, 0.2, 4000, 94);
  BatchPolicy policy;
  policy.max_batch = 8;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  ASSERT_EQ(m.tenants.size(), catalog.size());
  EXPECT_EQ(m.tenants[1].slo_latency_s, 1e-12);
  EXPECT_EQ(m.tenants[1].slo_attainment, 0.0);
  std::size_t expected_within = 0;
  for (const TenantMetrics& t : m.tenants) {
    if (t.slo_latency_s != 1e-12) {
      EXPECT_EQ(t.slo_attainment, 1.0) << t.name;
    }
    expected_within += static_cast<std::size_t>(t.slo_attainment *
                                                static_cast<double>(t.completed) +
                                                0.5);
  }
  EXPECT_NEAR(m.slo_attainment,
              static_cast<double>(expected_within) / static_cast<double>(m.completed),
              1e-12);
  EXPECT_LT(m.slo_attainment, 1.0);
  EXPECT_GT(m.slo_attainment, 0.5);
}

TEST(TenantSlo, CatalogRejectsBadSlo) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  EXPECT_THROW(catalog.set_slo(0, 0.0), InvalidArgument);
  EXPECT_THROW(catalog.set_slo(0, -1.0), InvalidArgument);
}

TEST(TenantMetricsEdge, SingleRequestTrace) {
  // A 1-sample tenant: every percentile is that sample; the other tenants
  // report zeroed metrics without dividing by zero.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const std::vector<Request> trace{make_request(0, 0.0, 2)};
  const FleetMetrics m = simulate_trace(FleetConfig::homogeneous("tron", 1), catalog, trace,
                                  SchedulerKind::kFifo, BatchPolicy{});
  EXPECT_EQ(m.completed, 1u);
  ASSERT_EQ(m.tenants.size(), catalog.size());
  const TenantMetrics& served = m.tenants[2];
  EXPECT_EQ(served.completed, 1u);
  EXPECT_GT(served.p50_latency_s, 0.0);
  EXPECT_EQ(served.p50_latency_s, served.p99_latency_s);
  EXPECT_EQ(served.p50_latency_s, served.max_latency_s);
  EXPECT_EQ(served.p50_latency_s, m.p999_latency_s);
  EXPECT_EQ(served.slo_attainment, 1.0);
  for (const std::uint32_t w : {0u, 1u, 3u}) {
    EXPECT_EQ(m.tenants[w].completed, 0u);
    EXPECT_EQ(m.tenants[w].p99_latency_s, 0.0);
    EXPECT_EQ(m.tenants[w].slo_attainment, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Percentile edge cases
// ---------------------------------------------------------------------------

TEST(PercentileEdge, SingleSampleIsEveryPercentile) {
  for (const double q : {0.0, 0.5, 0.95, 0.999, 1.0}) {
    std::vector<double> one{3.5};
    EXPECT_EQ(percentile(one, q), 3.5) << "q=" << q;
  }
}

TEST(PercentileEdge, AllIdenticalLatencies) {
  std::vector<double> same(1000, 2.25);
  EXPECT_EQ(percentile(same, 0.5), 2.25);
  EXPECT_EQ(percentile(same, 0.999), 2.25);
}

TEST(PercentileEdge, P999OnShortRunsTakesTheMax) {
  // Nearest-rank on n <= 1000: ceil(0.999 * n) == n, so p99.9 is the max.
  std::vector<double> ten{9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  EXPECT_EQ(percentile(ten, 0.999), 10.0);
  std::vector<double> hundred;
  for (int i = 100; i > 0; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 0.999), 100.0);
  // First n where the nearest rank drops below the max: ceil(0.999*1001) =
  // 1000, so index 999 of the sorted 0..1000.
  std::vector<double> thousand_one;
  for (int i = 0; i < 1001; ++i) thousand_one.push_back(i);
  EXPECT_EQ(percentile(thousand_one, 0.999), 999.0);
}

// ---------------------------------------------------------------------------
// Autoscaler policies and the elastic event loop
// ---------------------------------------------------------------------------

TEST(Autoscaler, ValidationNamesBadFields) {
  const auto expect_invalid = [](AutoscalerConfig cfg, const char* field) {
    try {
      validate_autoscaler(cfg);
      FAIL() << "expected InvalidArgument naming " << field;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  AutoscalerConfig cfg;
  cfg.policy = AutoscalerPolicy::kQueueDepth;
  AutoscalerConfig bad = cfg;
  bad.interval_s = 0.0;
  expect_invalid(bad, "interval_s");
  bad = cfg;
  bad.min_slots = 0;
  expect_invalid(bad, "min_slots");
  bad = cfg;
  bad.max_slots = 1;
  bad.min_slots = 2;
  expect_invalid(bad, "max_slots");
  bad = cfg;
  bad.grow_scale = -0.5;
  expect_invalid(bad, "grow_scale");
  // kNone never validates its knobs, and its step never moves the fleet.
  AutoscalerConfig off;
  off.interval_s = -1.0;
  EXPECT_NO_THROW(validate_autoscaler(off));
  EXPECT_EQ(autoscale_step(off, FamilySignals{0, 100, 1.0}), 0);
}

TEST(Autoscaler, StepDirectionsMatchSignals) {
  AutoscalerConfig cfg;
  cfg.policy = AutoscalerPolicy::kQueueDepth;
  FamilySignals s;
  s.active_slots = 2;
  s.queued = 20;  // 10 per slot > 4: grow
  s.utilization = 1.0;
  EXPECT_EQ(autoscale_step(cfg, s), 1);
  s.queued = 0;
  s.utilization = 0.1;  // idle: shrink
  EXPECT_EQ(autoscale_step(cfg, s), -1);
  s.utilization = 0.9;  // busy, no backlog: hold
  EXPECT_EQ(autoscale_step(cfg, s), 0);

  cfg.policy = AutoscalerPolicy::kTargetUtilization;
  s.utilization = 0.95;  // above 0.65 + 0.15
  EXPECT_EQ(autoscale_step(cfg, s), 1);
  s.utilization = 0.2;  // below 0.65 - 0.15
  s.queued = 0;
  EXPECT_EQ(autoscale_step(cfg, s), -1);
  s.queued = 50;  // backlog blocks the shrink
  EXPECT_EQ(autoscale_step(cfg, s), 0);
  s.queued = 0;
  s.utilization = 0.65;  // inside the band
  EXPECT_EQ(autoscale_step(cfg, s), 0);

  // Each threshold is strict: a signal on a constant holds, one step past it
  // moves the fleet.
  const double high = kUtilizationTarget + kUtilizationBand;
  const double low = kUtilizationTarget - kUtilizationBand;
  s.utilization = high;
  EXPECT_EQ(autoscale_step(cfg, s), 0);
  s.utilization = std::nextafter(high, 1.0);
  EXPECT_EQ(autoscale_step(cfg, s), 1);
  s.utilization = low;
  EXPECT_EQ(autoscale_step(cfg, s), 0);
  s.utilization = std::nextafter(low, 0.0);
  EXPECT_EQ(autoscale_step(cfg, s), -1);
  cfg.policy = AutoscalerPolicy::kQueueDepth;
  s.queued = 2 * static_cast<std::size_t>(kQueueHighPerSlot);  // exactly the bound per slot
  EXPECT_EQ(autoscale_step(cfg, s), 0);
  ++s.queued;
  EXPECT_EQ(autoscale_step(cfg, s), 1);
  s.queued = 0;
  s.utilization = kQueueLowUtilization;
  EXPECT_EQ(autoscale_step(cfg, s), 0);
  s.utilization = std::nextafter(kQueueLowUtilization, 0.0);
  EXPECT_EQ(autoscale_step(cfg, s), -1);
}

TEST(Elastic, GrowsUnderOverloadAndBeatsTheStaticFleet) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 2.0, 20000, 95);
  BatchPolicy policy;
  policy.max_batch = 8;

  const FleetMetrics flat =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  SimConfig sim;
  sim.autoscaler.policy = AutoscalerPolicy::kQueueDepth;
  sim.autoscaler.max_slots = 8;
  const FleetMetrics elastic =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);

  EXPECT_EQ(elastic.completed, trace.size());
  EXPECT_GT(elastic.autoscale_grows, 0u);
  EXPECT_GT(elastic.peak_fleet_size, elastic.initial_fleet_size);
  EXPECT_GT(elastic.mean_fleet_size, 2.0);
  EXPECT_GT(elastic.goodput_qps, 2.0 * flat.goodput_qps);
  EXPECT_LT(elastic.p99_latency_s, flat.p99_latency_s);
}

TEST(Elastic, RunsAreBitReproducible) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 1.5, 10000, 96);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.autoscaler.policy = AutoscalerPolicy::kTargetUtilization;
  sim.autoscaler.max_slots = 8;
  const FleetMetrics a =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  const FleetMetrics b =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  expect_bit_identical(a, b);
  EXPECT_EQ(a.autoscale_grows, b.autoscale_grows);
  EXPECT_EQ(a.autoscale_shrinks, b.autoscale_shrinks);
  EXPECT_EQ(a.peak_fleet_size, b.peak_fleet_size);
  EXPECT_EQ(a.mean_fleet_size, b.mean_fleet_size);
}

TEST(Elastic, ShrinkDrainsBeforeRetiringAndDropsNothing) {
  // Load that collapses after a burst: the fleet grows into the burst and
  // must shrink afterwards.  Draining means every dispatched request still
  // completes — nothing is lost, and the retired capacity shows up as a
  // mean fleet size strictly between the floor and the peak.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const double capacity = fleet_capacity_qps(catalog, "tron", 2, 8);
  TraceConfig burst_cfg;
  burst_cfg.offered_qps = 3.0 * capacity;
  burst_cfg.request_count = 6000;
  burst_cfg.seed = 97;
  std::vector<Request> trace = generate_trace(catalog, burst_cfg);
  // Quiet tail at 5% load: the autoscaler must give the capacity back.
  TraceConfig tail_cfg;
  tail_cfg.offered_qps = 0.05 * capacity;
  tail_cfg.request_count = 4000;
  tail_cfg.seed = 98;
  const double burst_end = trace.back().arrival_s;
  for (const Request& r : generate_trace(catalog, tail_cfg)) {
    trace.push_back({r.id + burst_cfg.request_count, burst_end + 1e-4 + r.arrival_s,
                     r.workload});
  }

  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.autoscaler.policy = AutoscalerPolicy::kQueueDepth;
  sim.autoscaler.max_slots = 8;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_EQ(m.completed, trace.size());  // drain-before-retire loses nothing
  EXPECT_GT(m.autoscale_grows, 0u);
  EXPECT_GT(m.autoscale_shrinks, 0u);
  EXPECT_GT(m.peak_fleet_size, m.initial_fleet_size);
  EXPECT_LT(m.final_fleet_size, m.peak_fleet_size);  // capacity was returned
  EXPECT_GT(m.mean_fleet_size, static_cast<double>(m.final_fleet_size));
  EXPECT_LT(m.mean_fleet_size, static_cast<double>(m.peak_fleet_size));
}

TEST(Elastic, GrowScaleInstantiatesScaledRegistryVariants) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 2.0, 10000, 99);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.autoscaler.policy = AutoscalerPolicy::kQueueDepth;
  sim.autoscaler.max_slots = 8;
  sim.autoscaler.grow_scale = 0.5;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_EQ(m.completed, trace.size());
  EXPECT_GT(m.autoscale_grows, 0u);
}

TEST(Elastic, MixedFleetScalesPerFamily) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  const FleetConfig fleet = FleetConfig::cycled({"tron", "ghost"}, 2);
  TraceConfig cfg;
  cfg.offered_qps = 2.0 * fleet_capacity_qps(catalog, fleet, 8);
  cfg.request_count = 12000;
  cfg.seed = 100;
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.autoscaler.policy = AutoscalerPolicy::kQueueDepth;
  sim.autoscaler.max_slots = 6;
  const FleetMetrics m = simulate_trace(fleet, catalog, generate_trace(catalog, cfg),
                                  SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_EQ(m.completed, 12000u);
  EXPECT_GT(m.autoscale_grows, 0u);
  EXPECT_GT(m.peak_fleet_size, 2u);
}

// ---------------------------------------------------------------------------
// Registry scaled-spec helper
// ---------------------------------------------------------------------------

TEST(ScaledSpecName, CanonicalFormsAndCompounding) {
  EXPECT_EQ(arch::scaled_spec_name("tron", 0.5), "tron@0.5");
  EXPECT_EQ(arch::scaled_spec_name("tron", 1.0), "tron");
  EXPECT_EQ(arch::scaled_spec_name("ghost-eco", 2.0), "ghost-eco@2");
  EXPECT_EQ(arch::scaled_spec_name("tron@2", 0.5), "tron");   // compounds to 1
  EXPECT_EQ(arch::scaled_spec_name("tron@0.5", 0.5), "tron@0.25");
  EXPECT_THROW((void)arch::scaled_spec_name("bort", 0.5), InvalidArgument);
  EXPECT_THROW((void)arch::scaled_spec_name("tron", 0.0), InvalidArgument);
  EXPECT_THROW((void)arch::scaled_spec_name("tron", -2.0), InvalidArgument);
  // Round trip: the scaled name is itself a valid registry spec, including
  // tiny scales that must not collapse to "@0".
  EXPECT_NO_THROW((void)arch::make_accelerator(arch::scaled_spec_name("tron", 0.5)));
  EXPECT_EQ(arch::scaled_spec_name("tron", 1e-7), "tron@1e-07");
  EXPECT_NO_THROW((void)arch::make_accelerator(arch::scaled_spec_name("tron", 1e-7)));
}

// ---------------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------------

TEST(ElasticCampaign, AutoscalerAxisExpandsTheGrid) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.sim.autoscaler.max_slots = 6;
  cfg.base.traffic.open.request_count = 3000;
  cfg.base.traffic.open.seed = 29;
  cfg.qps = {0.8 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  cfg.autoscalers = {AutoscalerPolicy::kNone, AutoscalerPolicy::kQueueDepth};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].autoscaler, AutoscalerPolicy::kNone);
  EXPECT_EQ(points[1].autoscaler, AutoscalerPolicy::kQueueDepth);
  EXPECT_EQ(points[0].metrics.autoscale_grows, 0u);
  EXPECT_EQ(points[0].metrics.tenants.size(), catalog.size());
}

TEST(ElasticCampaign, ValidationNamesAutoscalerFields) {
  CampaignConfig cfg;
  cfg.base.catalog = WorkloadCatalog::tron_default();
  cfg.base.traffic.open.request_count = 100;
  cfg.qps = {1000.0};
  cfg.autoscalers.clear();
  try {
    (void)run_campaign(cfg);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("autoscalers"), std::string::npos) << e.what();
  }
  cfg.autoscalers = {AutoscalerPolicy::kQueueDepth};
  cfg.base.sim.autoscaler.min_slots = 0;
  EXPECT_THROW((void)run_campaign(cfg), InvalidArgument);
}

}  // namespace
}  // namespace lumos::serve
