// Generated-scenario property tests: a seeded generator samples the serving
// simulator's feature cross-product (fleet kind and size, routing, scheduler,
// sequence lengths, decode, priority tiers, timeouts and retries, slot
// faults, admission, autoscaling, percentile mode, open or closed loop) and
// every generated scenario must satisfy the laws below.  Hand-written
// scenarios pin one feature at a time; the laws catch the interactions no
// single test thought of (the failed-slot gauge drifting past the active
// fleet once the autoscaler retired a down slot was one).
//
// Laws, on every scenario:
//   * completed + shed + timed-out == issued, and the tenants sum to the
//     fleet counters;
//   * 0 <= sum of tenant cost_usd <= fleet_cost_usd;
//   * an observed run (tracer at 1/2, timeline, profiler) equals the
//     unobserved run on every simulated field;
//   * open loops: simulate_sharded(s, 1) == simulate(s);
//   * fleets every cell can serve alone (single kind, tron+v100 over the
//     transformer mix): the two CellPlan cells merge to the same metrics in
//     either order, and simulate_sharded(s, 2) equals that fold;
//   * generated + aborted decode tokens >= lane-steps (sum of k x
//     decode_occupancy[k]);
//   * every timeline window has failed_slots <= active_slots.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/campaign.hpp"
#include "serve/names.hpp"
#include "serve/shard.hpp"

#include "fleet_metrics_matchers.hpp"

namespace lumos::serve {
namespace {

using lumos::testing::expect_bit_identical;

constexpr std::size_t kMaxRequests = 3500;

enum class FleetKind { kTron, kTronGhost, kTronV100, kGhost };

struct Generated {
  Scenario scenario;
  FleetKind kind = FleetKind::kTron;
  std::size_t issued = 0;  // requests the traffic source will issue
  std::string label;       // the sampled knobs, for failure messages
};

// One scenario per seed.  Loads, timeouts, fault rates and autoscaler steps
// scale with the fleet's unloaded capacity, so every sampled feature
// actually fires inside a run of at most kMaxRequests requests.
Generated generate(std::uint64_t seed) {
  Rng rng(seed, 0x5CE7A210);
  const auto coin = [&]() { return rng.next_below(2) == 1; };
  Generated g;
  Scenario& s = g.scenario;
  std::string& label = g.label;

  g.kind = static_cast<FleetKind>(rng.next_below(4));
  const std::size_t slots = 2 + rng.next_below(4);
  std::vector<std::string> specs;
  switch (g.kind) {
    case FleetKind::kTron:
      specs = {"tron"};
      s.catalog = WorkloadCatalog::tron_default();
      break;
    case FleetKind::kTronGhost:
      specs = {"tron", "ghost"};
      s.catalog = WorkloadCatalog::mixed_default();
      break;
    case FleetKind::kTronV100:
      // The transformer mix, which either slot kind serves alone: every
      // CellPlan cell then covers the catalog.
      specs = {"tron", "v100"};
      s.catalog = WorkloadCatalog::tron_default();
      break;
    case FleetKind::kGhost:
      specs = {"ghost"};
      s.catalog = WorkloadCatalog::ghost_default();
      break;
  }
  const RoutingPolicy routings[] = {RoutingPolicy::kFirstIdle, RoutingPolicy::kEnergyAware,
                                    RoutingPolicy::kCostAware};
  s.fleet = FleetConfig::cycled(specs, slots, routings[rng.next_below(3)]);
  label = "fleet " + s.fleet.label() + " x" + std::to_string(slots) + ", " +
          routing_name(s.fleet.routing);

  std::size_t batch = 1;
  if (coin()) {
    s.scheduler = SchedulerKind::kFifo;
    label += ", fifo";
  } else {
    s.scheduler = SchedulerKind::kDynamicBatch;
    batch = 1 + rng.next_below(8);
    s.batch.max_batch = batch;
    s.batch.max_wait_s = rng.uniform(0.0, 4e-3);
    label += ", batch<=" + std::to_string(batch);
  }

  const bool transformers = g.kind != FleetKind::kGhost;
  if (transformers && coin()) {
    const SeqLenDist dist = coin() ? SeqLenDist::kUniform : SeqLenDist::kLogNormal;
    s.catalog.apply_seqlen_dist(dist);
    label += std::string(", seqlen ") + seqlen_dist_name(dist);
  }
  if (transformers && coin()) {
    const SeqLenDist dist = coin() ? SeqLenDist::kFixed : SeqLenDist::kLogNormal;
    s.catalog.apply_decode(dist, 2 + rng.next_below(15));
    s.sim.decode_mode = coin() ? DecodeMode::kContinuous : DecodeMode::kMonolithic;
    label += std::string(", decode ") + seqlen_dist_name(dist) + " " +
             decode_mode_name(s.sim.decode_mode);
  }
  if (coin()) {
    s.catalog.apply_default_tiers();
    label += ", tiers";
  }

  // Scales: per-request service time of the whole fleet and the run length.
  const double capacity_qps = fleet_capacity_qps(s.catalog, s.fleet, batch);
  const std::size_t requests = 1000 + rng.next_below(kMaxRequests - 1000 + 1);
  const bool closed = coin();
  const double load = closed ? 1.0 : rng.uniform(0.3, 2.3);
  const double run_s = static_cast<double>(requests) / (load * capacity_qps);
  const double batch_s = static_cast<double>(slots * batch) / capacity_qps;
  if (closed) {
    s.traffic.mode = LoopMode::kClosed;
    s.traffic.closed.sessions = 4 + rng.next_below(32);
    s.traffic.closed.requests_per_session = requests / s.traffic.closed.sessions;
    s.traffic.closed.think_time_mean_s = rng.uniform(0.0, 2.0) * batch_s;
    s.traffic.closed.seed = seed;
    g.issued = s.traffic.closed.sessions * s.traffic.closed.requests_per_session;
    label += ", closed " + std::to_string(s.traffic.closed.sessions) + " sessions";
  } else {
    s.traffic.open.process = coin() ? ArrivalProcess::kPoisson : ArrivalProcess::kBursty;
    s.traffic.open.offered_qps = load * capacity_qps;
    s.traffic.open.request_count = requests;
    s.traffic.open.seed = seed;
    g.issued = requests;
    label += std::string(", open ") + process_name(s.traffic.open.process) + " at " +
             std::to_string(load) + "x";
  }

  if (coin()) {
    s.catalog.apply_timeout(rng.uniform(2.0, 30.0) * batch_s);
    s.sim.retry.max_attempts = 1 + rng.next_below(3);
    s.sim.retry.base_backoff_s = rng.uniform(0.1, 2.0) * batch_s;
    s.sim.retry.seed = seed;
    label += ", timeout x" + std::to_string(s.sim.retry.max_attempts);
  }
  if (coin()) {
    s.sim.faults.mtbf_s = rng.uniform(0.1, 1.0) * run_s;
    s.sim.faults.mttr_s = rng.uniform(0.01, 0.2) * run_s;
    s.sim.faults.seed = seed;
    label += ", faults";
  }
  const AdmissionPolicy admissions[] = {AdmissionPolicy::kNone, AdmissionPolicy::kQueueCap,
                                        AdmissionPolicy::kTierShed,
                                        AdmissionPolicy::kSloAware};
  s.sim.admission.policy = admissions[rng.next_below(4)];
  s.sim.admission.queue_cap = 4 + rng.next_below(64);
  label += std::string(", admission ") + admission_name(s.sim.admission.policy);
  const AutoscalerPolicy scalers[] = {AutoscalerPolicy::kNone, AutoscalerPolicy::kQueueDepth,
                                      AutoscalerPolicy::kTargetUtilization};
  s.sim.autoscaler.policy = scalers[rng.next_below(3)];
  if (s.sim.autoscaler.policy != AutoscalerPolicy::kNone) {
    s.sim.autoscaler.interval_s = run_s / (10.0 + rng.uniform(0.0, 50.0));
    s.sim.autoscaler.min_slots = 1;
    s.sim.autoscaler.max_slots = 1 + rng.next_below(6);
    s.sim.autoscaler.grow_scale = rng.next_below(4) == 0 ? 0.5 : 1.0;
    label += std::string(", autoscale ") + autoscaler_name(s.sim.autoscaler.policy);
  }
  if (coin()) {
    s.sim.percentile_mode = PercentileMode::kHdr;
    label += ", hdr";
  }
  return g;
}

std::size_t tenant_sum(const FleetMetrics& m, std::size_t TenantMetrics::*field) {
  std::size_t sum = 0;
  for (const TenantMetrics& t : m.tenants) sum += t.*field;
  return sum;
}

class GeneratedScenario : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedScenario, SatisfiesEveryLaw) {
  const Generated g = generate(GetParam());
  const Scenario& s = g.scenario;
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ": " + g.label);
  const FleetMetrics m = simulate(s);

  // Conservation: every issued request reaches exactly one terminal state.
  EXPECT_EQ(m.completed + m.shed_requests + m.timed_out_requests, g.issued);
  EXPECT_EQ(tenant_sum(m, &TenantMetrics::completed), m.completed);
  EXPECT_EQ(tenant_sum(m, &TenantMetrics::within_slo), m.within_slo);
  EXPECT_EQ(tenant_sum(m, &TenantMetrics::shed), m.shed_requests);
  EXPECT_EQ(tenant_sum(m, &TenantMetrics::timed_out), m.timed_out_requests);

  // Attribution covers the served share of the fleet's dollars, never more.
  double tenant_cost_usd = 0.0;
  for (const TenantMetrics& t : m.tenants) {
    EXPECT_GE(t.cost_usd, 0.0) << t.name;
    tenant_cost_usd += t.cost_usd;
  }
  EXPECT_LE(tenant_cost_usd, m.fleet_cost_usd);

  // Decode tokens: every lane-step generated one token, kept or aborted.
  std::size_t lane_steps = 0;
  for (std::size_t k = 0; k < m.decode_occupancy.size(); ++k) {
    lane_steps += k * m.decode_occupancy[k];
  }
  EXPECT_GE(m.generated_tokens + m.aborted_decode_tokens, lane_steps);

  // Observers only read the event stream.
  Scenario observed = s;
  observed.observe.trace.enabled = true;
  observed.observe.trace.sample = 0.5;
  observed.observe.timeline.enabled = true;
  observed.observe.timeline.window_s = m.duration_s / 256.0;
  observed.observe.profile = true;
  Observation obs;
  expect_bit_identical(simulate(observed, &obs), m);
  ASSERT_NE(obs.timeline, nullptr);
  std::size_t overfull_windows = 0;
  for (const TimelineWindow& w : obs.timeline->windows()) {
    if (w.failed_slots > w.active_slots) ++overfull_windows;
  }
  EXPECT_EQ(overfull_windows, 0u) << "timeline windows with failed_slots > active_slots";

  if (s.traffic.mode == LoopMode::kOpen) expect_bit_identical(simulate_sharded(s, 1), m);

  if (g.kind != FleetKind::kTronGhost) {
    const CellPlan plan = CellPlan::build(s, 2);
    const FleetMetrics a = simulate(plan.cells[0]);
    const FleetMetrics b = simulate(plan.cells[1]);
    FleetMetrics ab = a;
    ab.merge(b);
    FleetMetrics ba = b;
    ba.merge(a);
    expect_bit_identical(ab, ba);
    expect_bit_identical(simulate_sharded(s, 2), ab);
  }
}

std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> out;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) out.push_back(seed);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedScenario, ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace lumos::serve
