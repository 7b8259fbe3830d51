// Tests for the robustness subsystem: slot failure injection (seeded per-slot
// fault process, mid-batch aborts and requeues), request timeouts and retries
// with backoff, admission control (queue cap / tier shed / SLO-aware), the
// no-fault parity contract (disabled knobs are bit-identical to the baseline
// simulator), overload direction (tier-aware shedding keeps tier-0 goodput
// while the no-admission baseline collapses), and the campaign fault /
// admission grid axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/campaign.hpp"
#include "serve/faults.hpp"
#include "serve/names.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

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

void expect_bit_identical(const FleetMetrics& a, const FleetMetrics& b) {
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
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  // Robustness counters are part of the bit-reproducibility contract.
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.timed_out_requests, b.timed_out_requests);
  EXPECT_EQ(a.attempt_timeouts, b.attempt_timeouts);
  EXPECT_EQ(a.retried_attempts, b.retried_attempts);
  EXPECT_EQ(a.failed_batches, b.failed_batches);
  EXPECT_EQ(a.requeued_requests, b.requeued_requests);
  EXPECT_EQ(a.slot_failures, b.slot_failures);
  EXPECT_EQ(a.slot_recoveries, b.slot_recoveries);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.fleet_availability, b.fleet_availability);
  EXPECT_EQ(a.observed_mttr_s, b.observed_mttr_s);
}

void expect_invalid(const std::function<void()>& fn, const char* field) {
  try {
    fn();
    FAIL() << "expected InvalidArgument naming " << field;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(FaultValidation, DisabledConfigIsAlwaysValid) {
  FaultConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_NO_THROW(validate_faults(off));
  off.mttr_s = -1.0;  // mttr is only checked when injection is enabled
  EXPECT_NO_THROW(validate_faults(off));
}

TEST(FaultValidation, NamesBadFields) {
  FaultConfig cfg;
  cfg.mtbf_s = std::numeric_limits<double>::infinity();
  expect_invalid([&] { validate_faults(cfg); }, "mtbf_s");
  cfg.mtbf_s = 1e-3;
  cfg.mttr_s = 0.0;
  expect_invalid([&] { validate_faults(cfg); }, "mttr_s");
  cfg.mttr_s = -1e-3;
  expect_invalid([&] { validate_faults(cfg); }, "mttr_s");
}

TEST(RetryValidation, NamesBadFields) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.enabled());  // max_attempts == 1: no retries
  EXPECT_NO_THROW(validate_retry(policy));
  policy.max_attempts = 0;
  expect_invalid([&] { validate_retry(policy); }, "max_attempts");
  policy = {};
  policy.base_backoff_s = -1e-3;
  expect_invalid([&] { validate_retry(policy); }, "base_backoff_s");
}

TEST(AdmissionValidation, KnobsCheckedPerPolicy) {
  AdmissionConfig cfg;  // kNone is always valid, knobs ignored
  cfg.queue_cap = 0;
  EXPECT_NO_THROW(validate_admission(cfg));

  // The two capped policies read the cap; SLO-aware admission does not.
  for (const AdmissionPolicy policy : {AdmissionPolicy::kQueueCap, AdmissionPolicy::kTierShed}) {
    cfg.policy = policy;
    expect_invalid([&] { validate_admission(cfg); }, "queue_cap");
  }
  cfg.policy = AdmissionPolicy::kSloAware;
  EXPECT_NO_THROW(validate_admission(cfg));
}

// Each policy's verdict on either side of its boundary.  The tier-shed caps
// are 64, 16 and 4 at kTierShedFactor (0.25), and the SLO-aware limit is the
// 6 s SLO itself; the predicted wait is 2 s on every row.
TEST(Admission, VerdictsAtEachPolicyBoundary) {
  const double slo_s = 6.0;
  const double over_s = std::nextafter(4.0, 8.0);
  ASSERT_EQ(2.0 + 4.0, slo_s);
  ASSERT_EQ(2.0 + over_s, std::nextafter(slo_s, 8.0));  // one ULP above
  struct Row {
    AdmissionPolicy policy;
    std::uint32_t tier;
    std::size_t queued;
    double service_s;
    bool admitted;
  };
  const Row rows[] = {
      {AdmissionPolicy::kNone, 2, 1000000, over_s, true},
      {AdmissionPolicy::kQueueCap, 2, 63, 0.0, true},
      {AdmissionPolicy::kQueueCap, 2, 64, 0.0, false},
      {AdmissionPolicy::kTierShed, 0, 63, 0.0, true},
      {AdmissionPolicy::kTierShed, 0, 64, 0.0, false},
      {AdmissionPolicy::kTierShed, 1, 15, 0.0, true},
      {AdmissionPolicy::kTierShed, 1, 16, 0.0, false},
      {AdmissionPolicy::kTierShed, 2, 3, 0.0, true},
      {AdmissionPolicy::kTierShed, 2, 4, 0.0, false},
      {AdmissionPolicy::kSloAware, 0, 1000000, 4.0, true},
      {AdmissionPolicy::kSloAware, 0, 0, over_s, false},
  };
  for (const Row& row : rows) {
    AdmissionConfig config;
    config.policy = row.policy;
    config.queue_cap = 64;
    AdmissionSignals signals;
    signals.tier = row.tier;
    signals.queued = row.queued;
    signals.predicted_wait_s = 2.0;
    signals.service_s = row.service_s;
    signals.slo_s = slo_s;
    EXPECT_EQ(admit(config, signals), row.admitted)
        << admission_name(row.policy) << " tier " << row.tier << " queued " << row.queued
        << " service " << row.service_s;
  }
}

// ---------------------------------------------------------------------------
// Enum names (CLI discovery + JSON writers)
// ---------------------------------------------------------------------------

TEST(RobustnessNames, AdmissionRoundTrips) {
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kNone, AdmissionPolicy::kQueueCap, AdmissionPolicy::kTierShed,
        AdmissionPolicy::kSloAware}) {
    EXPECT_EQ(admission_from_name(admission_name(p)), p);
  }
  const std::vector<std::string> names = admission_names();
  EXPECT_EQ(names.size(), 4u);
  EXPECT_NE(std::find(names.begin(), names.end(), "tier-shed"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "slo-aware"), names.end());
  EXPECT_THROW((void)admission_from_name("bogus"), InvalidArgument);
}

TEST(RobustnessNames, CompletionStatusRoundTrips) {
  for (const CompletionStatus s :
       {CompletionStatus::kOk, CompletionStatus::kShed, CompletionStatus::kTimeout}) {
    EXPECT_EQ(completion_status_from_name(completion_status_name(s)), s);
  }
  EXPECT_EQ(completion_status_names().size(), 3u);
  EXPECT_STREQ(completion_status_name(CompletionStatus::kTimeout), "timeout");
  EXPECT_THROW((void)completion_status_from_name("dropped"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

TEST(RetryBackoff, PureFunctionOfPolicyIdAttempt) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  for (const std::uint64_t id : {0ull, 7ull, 123456789ull}) {
    for (const std::size_t attempt : {1u, 2u, 3u}) {
      EXPECT_EQ(retry_backoff_s(policy, id, attempt), retry_backoff_s(policy, id, attempt));
    }
  }
}

// Attempt k waits base_backoff_s * kBackoffMultiplier^(k-1) within
// +/- kBackoffJitter: 0.9-1.1, 1.8-2.2 and 3.6-4.4 ms at the 1 ms default,
// bands that do not overlap, so the growth shows through the jitter.
TEST(RetryBackoff, GrowsGeometricallyInsideTheJitterBand) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  double nominal = policy.base_backoff_s;
  for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
    bool varied = false;
    const double first = retry_backoff_s(policy, 0, attempt);
    for (std::uint64_t id = 0; id < 64; ++id) {
      const double d = retry_backoff_s(policy, id, attempt);
      EXPECT_GE(d, nominal * (1.0 - kBackoffJitter)) << "attempt " << attempt;
      EXPECT_LE(d, nominal * (1.0 + kBackoffJitter)) << "attempt " << attempt;
      varied = varied || d != first;
    }
    EXPECT_TRUE(varied);  // the jitter stream actually keys on the request id
    nominal *= kBackoffMultiplier;
  }
  // Recorded when the multiplier and the jitter were RetryPolicy fields.
  EXPECT_EQ(retry_backoff_s(policy, 0, 1), 0x1.1be6a77f3790cp-10);
  EXPECT_EQ(retry_backoff_s(policy, 42, 2), 0x1.08c625213ce71p-9);
  EXPECT_EQ(retry_backoff_s(policy, 42, 3), 0x1.0fff628222eacp-8);
}

// ---------------------------------------------------------------------------
// Slot fault process
// ---------------------------------------------------------------------------

FaultConfig fast_faults() {
  FaultConfig cfg;
  cfg.mtbf_s = 1e-3;
  cfg.mttr_s = 2e-4;
  cfg.seed = 7;
  return cfg;
}

TEST(FaultProcess, ReplaysBitForBit) {
  SlotFaultProcess a(fast_faults());
  SlotFaultProcess b(fast_faults());
  for (int i = 0; i < 3; ++i) {
    a.add_slot(0.0);
    b.add_slot(0.0);
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a.next_event_s(), b.next_event_s());
    ASSERT_EQ(a.next_event_slot(), b.next_event_slot());
    EXPECT_EQ(a.advance(a.next_event_slot()), b.advance(b.next_event_slot()));
  }
}

TEST(FaultProcess, SlotStreamsAreIndependentOfFleetSize) {
  // Slot 0's transition schedule must not depend on how many other slots are
  // tracked: drain slot 0's first transitions from a 1-slot and a 4-slot
  // process and compare.
  const auto slot0_transitions = [](std::size_t fleet) {
    SlotFaultProcess p(fast_faults());
    for (std::size_t i = 0; i < fleet; ++i) p.add_slot(0.0);
    std::vector<double> times;
    while (times.size() < 10) {
      const std::size_t slot = p.next_event_slot();
      const double t = p.next_event_s();
      p.advance(slot);
      if (slot == 0) times.push_back(t);
    }
    return times;
  };
  EXPECT_EQ(slot0_transitions(1), slot0_transitions(4));
}

TEST(FaultProcess, RemovedSlotsStopTransitioning) {
  SlotFaultProcess p(fast_faults());
  p.add_slot(0.0);
  p.add_slot(0.0);
  p.remove_slot(0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.next_event_slot(), 1u);
    p.advance(1);
  }
  p.remove_slot(1);
  EXPECT_EQ(p.next_event_s(), std::numeric_limits<double>::infinity());
}

TEST(FaultProcess, AlternatesUpAndDownPhases) {
  SlotFaultProcess p(fast_faults());
  p.add_slot(0.0);
  EXPECT_TRUE(p.up(0));
  EXPECT_FALSE(p.advance(0));  // first transition is a failure
  EXPECT_FALSE(p.up(0));
  EXPECT_TRUE(p.advance(0));  // then a recovery
  EXPECT_TRUE(p.up(0));
}

TEST(FaultProcess, PinnedTransitions) {
  // FNV-1a 64 over the first 500 (slot, instant bits) transitions of an
  // 8-slot process, recorded when `next_event_s` and `next_event_slot` each
  // scanned every slot.  Slot 3 is removed before transition 150 and slot 8
  // added at transition 300.
  SlotFaultProcess p(fast_faults());
  for (int i = 0; i < 8; ++i) p.add_slot(0.0);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (int n = 0; n < 500; ++n) {
    if (n == 150) p.remove_slot(3);
    const std::size_t slot = p.next_event_slot();
    const double t = p.next_event_s();
    if (n == 300) p.add_slot(t);
    p.advance(slot);
    add(slot);
    add(std::bit_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(h, 0x7a3e27fbcde9cc99ull) << std::hex << h;
}

// ---------------------------------------------------------------------------
// No-fault parity: disabled knobs are the baseline simulator, bit for bit
// ---------------------------------------------------------------------------

TEST(FaultParity, DisabledKnobsBitIdenticalToDefault) {
  // Explicitly-disabled robustness knobs with aggressive sub-knob values must
  // not perturb a single bit: the disabled paths may not even look at them.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 0.9, 8000, 121);
  BatchPolicy policy;
  policy.max_batch = 8;

  SimConfig configured;
  configured.faults.mtbf_s = 0.0;  // disabled
  configured.faults.mttr_s = 1e-9;
  configured.retry.max_attempts = 1;  // disabled
  configured.retry.base_backoff_s = 1e-9;
  configured.admission.policy = AdmissionPolicy::kNone;  // disabled
  configured.admission.queue_cap = 1;

  const FleetMetrics base =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  const FleetMetrics off =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, configured);
  expect_bit_identical(base, off);
  EXPECT_EQ(off.shed_requests, 0u);
  EXPECT_EQ(off.timed_out_requests, 0u);
  EXPECT_EQ(off.retried_attempts, 0u);
  EXPECT_EQ(off.slot_failures, 0u);
  EXPECT_EQ(off.drop_rate, 0.0);
  EXPECT_EQ(off.fleet_availability, 1.0);
  EXPECT_TRUE(off.slot_availability.empty());
}

TEST(FaultParity, GenerousTimeoutBitIdenticalToNoTimeout) {
  // A timeout no request can ever hit exercises the timeout bookkeeping
  // without changing a single event: bit-identical to the untimed catalog.
  const WorkloadCatalog untimed = WorkloadCatalog::tron_default();
  WorkloadCatalog timed = WorkloadCatalog::tron_default();
  timed.apply_timeout(1e9);
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(untimed, 1.2, 8000, 122);
  BatchPolicy policy;
  policy.max_batch = 8;
  const FleetMetrics a =
      simulate_trace(fleet, untimed, trace, SchedulerKind::kDynamicBatch, policy);
  const FleetMetrics b =
      simulate_trace(fleet, timed, trace, SchedulerKind::kDynamicBatch, policy);
  expect_bit_identical(a, b);
  EXPECT_EQ(b.attempt_timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Fault injection end to end
// ---------------------------------------------------------------------------

SimConfig faulty_sim() {
  SimConfig sim;
  sim.faults.mtbf_s = 20e-3;
  sim.faults.mttr_s = 2e-3;
  sim.faults.seed = 5;
  return sim;
}

TEST(FaultServing, AbortedBatchesRequeueWithoutLoss) {
  // Faults only (no timeouts, no admission): every issued request still
  // completes exactly once — aborted batches requeue, nothing is dropped or
  // double-counted.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 0.8, 12000, 123);
  BatchPolicy policy;
  policy.max_batch = 8;
  const FleetMetrics m = simulate_trace(fleet, catalog, trace,
                                        SchedulerKind::kDynamicBatch, policy, faulty_sim());
  EXPECT_EQ(m.completed, trace.size());
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.timed_out_requests, 0u);
  EXPECT_GT(m.slot_failures, 0u);
  EXPECT_GT(m.failed_batches, 0u);
  EXPECT_GT(m.requeued_requests, 0u);
  EXPECT_GE(m.slot_failures, m.failed_batches);  // idle slots fail too
  EXPECT_LT(m.fleet_availability, 1.0);
  EXPECT_GT(m.fleet_availability, 0.5);
  ASSERT_EQ(m.slot_availability.size(), 2u);
  for (const SlotAvailability& s : m.slot_availability) {
    EXPECT_EQ(s.spec, "tron");
    EXPECT_GT(s.failures, 0u);
    EXPECT_LT(s.uptime_fraction, 1.0);
    EXPECT_GT(s.uptime_fraction, 0.0);
    if (s.repairs > 0) {
      EXPECT_GT(s.observed_mttr_s, 0.0);
    }
  }
}

TEST(FaultServing, FaultOverloadRunsAreBitReproducible) {
  // Everything on at once — faults, timeouts, retries, tier shedding — twice,
  // bit-identical (with the CI LUMOS_THREADS matrix this pins thread-count
  // independence too).
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_default_tiers();
  catalog.apply_timeout(0.2);
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 1.5, 10000, 124);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim = faulty_sim();
  sim.retry.max_attempts = 3;
  sim.admission.policy = AdmissionPolicy::kTierShed;
  sim.admission.queue_cap = 128;
  const FleetMetrics a =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  const FleetMetrics b =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  expect_bit_identical(a, b);
  // Conservation: one terminal status per issued request.
  EXPECT_EQ(a.completed + a.shed_requests + a.timed_out_requests, trace.size());
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].shed, b.tenants[i].shed);
    EXPECT_EQ(a.tenants[i].timed_out, b.tenants[i].timed_out);
    EXPECT_EQ(a.tenants[i].drop_rate, b.tenants[i].drop_rate);
  }
}

TEST(FaultServing, DrainBeforeRetireSurvivesMidBatchFailure) {
  // Autoscaler shrink (drain-before-retire) interleaved with slot failures:
  // requests from aborted batches requeue exactly once and everything still
  // completes; the whole run replays bit-for-bit.
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const double capacity = fleet_capacity_qps(catalog, "tron", 2, 8);
  TraceConfig burst_cfg;
  burst_cfg.offered_qps = 3.0 * capacity;
  burst_cfg.request_count = 6000;
  burst_cfg.seed = 125;
  std::vector<Request> trace = generate_trace(catalog, burst_cfg);
  TraceConfig tail_cfg;
  tail_cfg.offered_qps = 0.05 * capacity;
  tail_cfg.request_count = 4000;
  tail_cfg.seed = 126;
  const double burst_end = trace.back().arrival_s;
  for (const Request& r : generate_trace(catalog, tail_cfg)) {
    trace.push_back({r.id + burst_cfg.request_count, burst_end + 1e-4 + r.arrival_s,
                     r.workload});
  }

  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim = faulty_sim();
  sim.autoscaler.policy = AutoscalerPolicy::kQueueDepth;
  sim.autoscaler.max_slots = 8;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_EQ(m.completed, trace.size());  // no loss, no duplication
  EXPECT_GT(m.autoscale_grows, 0u);
  EXPECT_GT(m.autoscale_shrinks, 0u);
  EXPECT_GT(m.slot_failures, 0u);
  EXPECT_GT(m.requeued_requests, 0u);
  const FleetMetrics again =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  expect_bit_identical(m, again);
}

// ---------------------------------------------------------------------------
// Timeouts and retries end to end
// ---------------------------------------------------------------------------

TEST(TimeoutServing, TimeoutsAreTerminalWithoutRetries) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_timeout(5e-4);  // tight: overload queues blow through it
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 2.0, 10000, 127);
  BatchPolicy policy;
  policy.max_batch = 8;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  EXPECT_GT(m.timed_out_requests, 0u);
  EXPECT_EQ(m.retried_attempts, 0u);  // retries disabled: every timeout is terminal
  EXPECT_EQ(m.attempt_timeouts, m.timed_out_requests);
  EXPECT_EQ(m.completed + m.timed_out_requests, trace.size());
  EXPECT_EQ(m.drop_rate, static_cast<double>(m.timed_out_requests) /
                             static_cast<double>(trace.size()));
  std::size_t tenant_timeouts = 0;
  for (const TenantMetrics& t : m.tenants) tenant_timeouts += t.timed_out;
  EXPECT_EQ(tenant_timeouts, m.timed_out_requests);
}

TEST(TimeoutServing, RetriesReissueTimedOutAttempts) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_timeout(5e-4);
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 2.0, 10000, 127);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.retry.max_attempts = 3;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_GT(m.retried_attempts, 0u);
  // Every attempt past its deadline either re-issues or goes terminal.
  EXPECT_EQ(m.attempt_timeouts, m.retried_attempts + m.timed_out_requests);
  EXPECT_EQ(m.completed + m.timed_out_requests, trace.size());
}

// ---------------------------------------------------------------------------
// Admission control end to end
// ---------------------------------------------------------------------------

TEST(AdmissionServing, QueueCapBoundsTheQueue) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 3.0, 10000, 128);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.admission.policy = AdmissionPolicy::kQueueCap;
  sim.admission.queue_cap = 64;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_GT(m.shed_requests, 0u);
  EXPECT_LE(m.peak_queue_depth, 64u);
  EXPECT_EQ(m.completed + m.shed_requests, trace.size());
  std::size_t tenant_shed = 0;
  for (const TenantMetrics& t : m.tenants) tenant_shed += t.shed;
  EXPECT_EQ(tenant_shed, m.shed_requests);
}

TEST(AdmissionServing, SloAwareShedsWhenPredictedLatencyBlowsTheSlo) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 2);
  const std::vector<Request> trace = tron_trace(catalog, 3.0, 10000, 129);
  BatchPolicy policy;
  policy.max_batch = 8;
  SimConfig sim;
  sim.admission.policy = AdmissionPolicy::kSloAware;
  const FleetMetrics m =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy, sim);
  EXPECT_GT(m.shed_requests, 0u);
  EXPECT_EQ(m.completed + m.shed_requests, trace.size());
  // Shedding the predicted-to-miss excess leaves the admitted load far better
  // off than the admit-everything baseline at the same 3x overload.
  const FleetMetrics baseline =
      simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  EXPECT_GT(m.slo_attainment, 2.0 * baseline.slo_attainment);
  EXPECT_GT(m.goodput_qps, baseline.goodput_qps);
}

TEST(AdmissionServing, TierShedProtectsTierZeroWhileBaselineCollapses) {
  // The headline overload direction (mirrors the bench's overload_faults
  // section): at 2x capacity with slot faults, tier-aware admission holds the
  // premium tenant's SLO attainment >= 0.9 while the admit-everything
  // baseline collapses below 0.1 overall.
  WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.25);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);
  const FleetConfig fleet = FleetConfig::cycled({"tron"}, 4);
  const double capacity = fleet_capacity_qps(catalog, fleet, 8);
  const EstimateCache cache("tron", catalog);
  double slowest = 0.0;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    slowest = std::max(slowest, cache.estimate(w, 1).latency_s);
  }
  const double slo_s = 10.0 * slowest;
  catalog.set_slo(0, 3.0 * slo_s);
  catalog.set_timeout(2, 15.0 * slo_s);

  const auto run = [&](AdmissionPolicy admission) {
    Scenario scenario;
    scenario.fleet = fleet;
    scenario.catalog = catalog;
    scenario.scheduler = SchedulerKind::kDynamicBatch;
    scenario.batch.max_batch = 8;
    scenario.sim.faults.mtbf_s = 50e-3;
    scenario.sim.faults.mttr_s = 5e-3;
    scenario.sim.retry.max_attempts = 3;
    scenario.sim.admission.policy = admission;
    scenario.traffic.open.offered_qps = 2.0 * capacity;
    scenario.traffic.open.request_count = 20000;
    scenario.traffic.open.seed = 29;
    return simulate(scenario);
  };

  const FleetMetrics none = run(AdmissionPolicy::kNone);
  const FleetMetrics shed = run(AdmissionPolicy::kTierShed);
  EXPECT_LT(none.slo_attainment, 0.1);  // unbounded queues: everyone misses
  ASSERT_EQ(shed.tenants.size(), 3u);
  EXPECT_EQ(shed.tenants[0].priority, 0u);
  EXPECT_GE(shed.tenants[0].slo_attainment, 0.9);  // tier 0 rides above the storm
  EXPECT_GT(shed.tenants[1].shed + shed.tenants[2].shed, 0u);  // tier 1 pays
  EXPECT_GT(shed.goodput_qps, 1.3 * none.goodput_qps);
}

// ---------------------------------------------------------------------------
// Capacity pricing with sampled sequence lengths
// ---------------------------------------------------------------------------

TEST(CapacityPricing, DistributedSeqLensRepriceCapacity) {
  // Sampled prompt lengths price capacity over their draws: the grid rounds
  // every draw up and the log-normal's right skew lifts its mean above the
  // native length, so the fleet's unloaded capacity estimate drops.  An
  // all-fixed catalog prices at the native lengths.
  const WorkloadCatalog fixed = WorkloadCatalog::tron_default();
  WorkloadCatalog heavy = WorkloadCatalog::tron_default();
  heavy.apply_seqlen_dist(SeqLenDist::kLogNormal);

  const double fixed_qps = fleet_capacity_qps(fixed, "tron", 2, 8);
  const double heavy_qps = fleet_capacity_qps(heavy, "tron", 2, 8);
  EXPECT_GT(fixed_qps, 0.0);
  EXPECT_LT(heavy_qps, fixed_qps);
  // The Monte-Carlo pricing draw is fixed-seed: repeat calls are bit-equal.
  EXPECT_EQ(heavy_qps, fleet_capacity_qps(heavy, "tron", 2, 8));
  // And the fleet-shaped overload agrees in direction.
  EXPECT_LT(fleet_capacity_qps(heavy, FleetConfig::homogeneous("tron", 2), 8),
            fleet_capacity_qps(fixed, FleetConfig::homogeneous("tron", 2), 8));
}

// ---------------------------------------------------------------------------
// Campaign grid axes
// ---------------------------------------------------------------------------

TEST(RobustCampaign, AdmissionAndFaultAxesExpandTheGrid) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.sim.faults.mttr_s = 2e-3;
  cfg.base.traffic.open.request_count = 3000;
  cfg.base.traffic.open.seed = 30;
  cfg.qps = {0.8 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  cfg.admissions = {AdmissionPolicy::kNone, AdmissionPolicy::kQueueCap};
  cfg.fault_mtbfs_s = {0.0, 20e-3};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].admission, AdmissionPolicy::kNone);
  EXPECT_EQ(points[0].fault_mtbf_s, 0.0);
  EXPECT_EQ(points[1].admission, AdmissionPolicy::kNone);
  EXPECT_EQ(points[1].fault_mtbf_s, 20e-3);
  EXPECT_EQ(points[3].admission, AdmissionPolicy::kQueueCap);
  EXPECT_EQ(points[3].fault_mtbf_s, 20e-3);
  EXPECT_EQ(points[0].metrics.slot_failures, 0u);
  EXPECT_GT(points[1].metrics.slot_failures, 0u);
}

TEST(RobustCampaign, ParallelFaultSweepMatchesSerialSimulation) {
  // Fault/retry/admission campaigns stay bit-identical to a serial re-run of
  // the same grid point (with the CI LUMOS_THREADS matrix this is the
  // thread-count determinism pin for the robustness path).
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_default_tiers();
  catalog.apply_timeout(0.1);
  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.sim.faults.mttr_s = 2e-3;
  cfg.base.sim.retry.max_attempts = 3;
  cfg.base.traffic.open.request_count = 5000;
  cfg.base.traffic.open.seed = 18;
  cfg.qps = {1.5 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  cfg.admissions = {AdmissionPolicy::kTierShed};
  cfg.fault_mtbfs_s = {20e-3};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);

  Scenario scenario;
  scenario.fleet = FleetConfig::cycled(cfg.fleet_templates.front(), 2);
  scenario.catalog = catalog;
  scenario.scheduler = SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.batch.max_wait_s = cfg.base.batch.max_wait_s;
  scenario.sim.admission = cfg.base.sim.admission;
  scenario.sim.admission.policy = AdmissionPolicy::kTierShed;
  scenario.sim.faults = cfg.base.sim.faults;
  scenario.sim.faults.mtbf_s = cfg.fault_mtbfs_s[0];
  scenario.sim.retry = cfg.base.sim.retry;
  scenario.traffic.open.offered_qps = cfg.qps[0];
  scenario.traffic.open.request_count = cfg.base.traffic.open.request_count;
  scenario.traffic.open.seed = cfg.base.traffic.open.seed + 0x9E3779B9u * 1;
  const FleetMetrics serial = simulate(scenario);
  expect_bit_identical(points[0].metrics, serial);
}

TEST(RobustCampaign, ValidationNamesRobustFields) {
  CampaignConfig good;
  good.base.catalog = WorkloadCatalog::tron_default();
  good.base.traffic.open.request_count = 100;
  good.qps = {1000.0};

  CampaignConfig cfg = good;
  cfg.admissions.clear();
  expect_invalid([&] { (void)run_campaign(cfg); }, "admissions");
  cfg = good;
  cfg.fault_mtbfs_s.clear();
  expect_invalid([&] { (void)run_campaign(cfg); }, "fault_mtbfs_s");
  cfg = good;
  cfg.fault_mtbfs_s = {-1.0};
  expect_invalid([&] { (void)run_campaign(cfg); }, "fault_mtbfs_s");
  cfg = good;
  cfg.fault_mtbfs_s = {1e-3};
  cfg.base.sim.faults.mttr_s = 0.0;
  expect_invalid([&] { (void)run_campaign(cfg); }, "mttr_s");
  cfg = good;
  cfg.base.sim.retry.max_attempts = 0;
  expect_invalid([&] { (void)run_campaign(cfg); }, "max_attempts");
  cfg = good;
  cfg.admissions = {AdmissionPolicy::kQueueCap};
  cfg.base.sim.admission.queue_cap = 0;
  expect_invalid([&] { (void)run_campaign(cfg); }, "queue_cap");
}

}  // namespace
}  // namespace lumos::serve
