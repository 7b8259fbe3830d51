#include "serve/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "serve/arena.hpp"
#include "serve/event.hpp"
#include "serve/event_heap.hpp"

namespace lumos::serve {

FleetConfig FleetConfig::homogeneous(const std::string& spec, std::size_t count,
                                     RoutingPolicy routing) {
  return cycled({spec}, count, routing);
}

FleetConfig FleetConfig::cycled(const std::vector<std::string>& specs, std::size_t count,
                                RoutingPolicy routing) {
  if (specs.empty()) throw InvalidArgument("FleetConfig specs must not be empty");
  if (count == 0) throw InvalidArgument("FleetConfig fleet size must be >= 1");
  FleetConfig f;
  f.routing = routing;
  f.accelerators.reserve(count);
  for (std::size_t i = 0; i < count; ++i) f.accelerators.push_back(specs[i % specs.size()]);
  return f;
}

double CostModel::slot_hour_rate(const std::string& spec, double static_power_w) const {
  for (const auto& [name, rate] : slot_hour_overrides) {
    if (name == spec) return rate;
  }
  return static_power_w * usd_per_watt_hour;
}

std::string FleetConfig::label() const {
  std::vector<std::string> seen;
  std::string out;
  for (const std::string& name : accelerators) {
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);
    if (!out.empty()) out += '+';
    out += name;
  }
  return out;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::uint64_t kNoBatch = static_cast<std::uint64_t>(-1);

// One pending completion.  The batch itself lives on the slot (see Slot):
// a slot failure aborts the in-flight batch in place and the heap entry goes
// stale — detected at pop by the dispatch-seq mismatch.
struct Completion {
  double time_s = 0.0;
  std::uint64_t seq = 0;  // dispatch order: deterministic tie-break
  std::size_t acc = 0;
};

// Min-heap ordering on (time, dispatch seq).
struct CompletionLater {
  bool operator()(const Completion& a, const Completion& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

// One retried arrival, waiting out its backoff.  Min-ordered by (time,
// retry seq) so simultaneous re-issues enqueue in the order they were
// scheduled.
struct PendingRetry {
  double time_s = 0.0;
  std::uint64_t seq = 0;
  Request request;
};

struct RetryLater {
  bool operator()(const PendingRetry& a, const PendingRetry& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

// One decode lane: a request generating tokens on a slot.  Each decode step
// the slot runs generates one token per lane, so a lane stores no counters:
// it records the slot's step count when it joined, the tokens it still had to
// generate then and those it had generated then.  A lane its own prefill
// opened starts at 1 generated (the prefill produced its first token); a
// joiner admitted at a token boundary starts at 0, and its first token
// appears at the end of the step that prefills it.
struct DecodeLane {
  Request request;
  std::uint64_t joined_step = 0;     // the slot's step count when the lane joined
  std::uint32_t budget = 0;          // tokens still to generate then
  std::uint32_t generated_then = 0;  // tokens generated by then
  double first_token_s = 0.0;        // absolute time of the first token (TTFT anchor)
};

// The slot step count at whose end `lane` finishes: after its budget, or
// after the one step that prefills a joiner with no tokens to generate.
std::uint64_t finish_step(const DecodeLane& lane) noexcept {
  return lane.joined_step + std::max<std::uint32_t>(lane.budget, 1);
}

// The tokens `lane` has generated once its slot has completed `steps` steps
// (at most its finishing step).
std::uint32_t generated(const DecodeLane& lane, std::uint64_t steps) noexcept {
  return lane.generated_then +
         static_cast<std::uint32_t>(std::min<std::uint64_t>(steps - lane.joined_step, lane.budget));
}

// One fleet slot.  Slots are append-only: growth pushes a new slot, shrink
// marks one draining (no new dispatches) and retires it once idle, so slot
// indices — and with them dispatch order and the (time, seq) completion order
// — never shift mid-simulation.  The slot owns its in-flight batch so a
// failure can abort it without touching the completion heap.
struct Slot {
  std::size_t cache = 0;   // estimate cache (shared per spec name)
  std::size_t family = 0;  // spec family this slot scales with
  bool idle = true;
  bool draining = false;
  bool retired = false;
  bool failed = false;     // down under fault injection
  double busy_s = 0.0;
  double active_start_s = 0.0;
  double active_end_s = -1.0;  // < 0: still present at simulation end

  // In-flight batch (valid while !idle).  The buffer cycles through the
  // run's RequestArena: acquired at dispatch, released at completion or
  // fault-abort.
  std::vector<Request> inflight;
  std::uint64_t inflight_seq = kNoBatch;
  double inflight_start_s = 0.0;
  double inflight_done_s = 0.0;
  double inflight_energy_j = 0.0;

  // Decode phase (valid while decoding; the slot stays !idle).  The in-flight
  // seq/start/done/energy fields describe the current decode step, so the
  // fault-abort staleness check and pro-rata energy accounting work unchanged.
  bool decoding = false;
  std::uint32_t decode_workload = 0;
  std::vector<DecodeLane> lanes;
  // Decode steps the slot has completed (its lanes' counters derive from
  // it), and the earliest count at which one of its lanes finishes.
  std::uint64_t steps = 0;
  std::uint64_t finish_step = 0;
  // The current decode step: its cached price, the widest lane's KV context
  // and that context's kDecodeContextGrid bucket.  schedule_decode_step sets
  // them, and finish_step, whenever the lanes change; a counter-only boundary
  // advances them (repeat_decode_step).
  const PerfReport* step = nullptr;
  std::uint32_t step_context = 0;
  std::uint32_t step_bucket = 0;

  // Availability bookkeeping under fault injection.
  std::size_t failures = 0;
  std::size_t repairs = 0;       // completed repairs
  double down_since_s = 0.0;     // start of the current down phase (if failed)
  double down_total_s = 0.0;     // completed down time inside the active window
  double repair_total_s = 0.0;   // completed repair durations (for MTTR)
};

bool can_dispatch_to(const Slot& s) noexcept {
  return s.idle && !s.draining && !s.retired && !s.failed;
}

// The KV context a decode step prices at: `context` rounded up to
// kDecodeContextGrid, so the step cache stays small while contexts grow
// token by token.
std::uint32_t context_bucket(std::uint32_t context) noexcept {
  return (context + kDecodeContextGrid - 1) / kDecodeContextGrid * kDecodeContextGrid;
}

// `validate_scenario`'s checks.  Returns whether the explicit trace holds a
// request that decodes, found on the validation walk so that `simulate` walks
// the trace once before its loop.
bool check_scenario(const Scenario& scenario) {
  if (scenario.fleet.accelerators.empty()) {
    throw InvalidArgument("Scenario.fleet: FleetConfig.accelerators must not be empty");
  }
  if (scenario.catalog.empty()) {
    throw InvalidArgument("Scenario.catalog: WorkloadCatalog must not be empty");
  }
  if (scenario.batch.max_batch < 1 ||
      scenario.batch.max_batch > BatchPolicy::kMaxBatchLimit) {
    throw InvalidArgument("Scenario.batch: BatchPolicy.max_batch must be in [1, " +
                          std::to_string(BatchPolicy::kMaxBatchLimit) + "], got " +
                          std::to_string(scenario.batch.max_batch));
  }
  if (!(scenario.batch.max_wait_s >= 0.0) || !std::isfinite(scenario.batch.max_wait_s)) {
    throw InvalidArgument("Scenario.batch: BatchPolicy.max_wait_s must be finite and >= 0");
  }
  const CostModel& cost = scenario.fleet.cost;
  if (!(cost.usd_per_watt_hour >= 0.0) || !std::isfinite(cost.usd_per_watt_hour)) {
    throw InvalidArgument("Scenario.fleet: CostModel.usd_per_watt_hour must be >= 0");
  }
  if (!(cost.usd_per_joule >= 0.0) || !std::isfinite(cost.usd_per_joule)) {
    throw InvalidArgument("Scenario.fleet: CostModel.usd_per_joule must be >= 0");
  }
  for (const auto& [spec, rate] : cost.slot_hour_overrides) {
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      throw InvalidArgument("Scenario.fleet: CostModel slot-hour override for '" + spec +
                            "' must be >= 0");
    }
  }
  validate_autoscaler(scenario.sim.autoscaler);
  validate_faults(scenario.sim.faults);
  validate_retry(scenario.sim.retry);
  validate_admission(scenario.sim.admission);
  validate_observe(scenario.observe);
  if (scenario.sim.percentile_mode == PercentileMode::kHdr &&
      (!(scenario.sim.hdr_relative_error > 0.0) || scenario.sim.hdr_relative_error >= 1.0 ||
       !std::isfinite(scenario.sim.hdr_relative_error))) {
    throw InvalidArgument("Scenario.sim: SimConfig.hdr_relative_error must be in (0, 1)");
  }
  if (!scenario.trace.empty()) {
    double previous_s = 0.0;
    bool decodes = false;
    for (const Request& r : scenario.trace) {
      if (r.workload >= scenario.catalog.size()) {
        throw InvalidArgument("Scenario.trace: request " + std::to_string(r.id) +
                              " names workload index " + std::to_string(r.workload) +
                              ", but the catalog holds " +
                              std::to_string(scenario.catalog.size()) + " workloads");
      }
      if (!std::isfinite(r.arrival_s) || r.arrival_s < previous_s) {
        throw InvalidArgument("Scenario.trace: request " + std::to_string(r.id) +
                              " has arrival_s " + std::to_string(r.arrival_s) +
                              "; arrivals must be finite, >= 0 and in arrival order");
      }
      previous_s = r.arrival_s;
      decodes = decodes || r.decode_tokens > 0;
    }
    return decodes;
  }
  if (scenario.traffic.mode == LoopMode::kClosed) {
    validate_closed_loop(scenario.traffic.closed);
    return false;
  }
  const TraceConfig& open = scenario.traffic.open;
  if (!(open.offered_qps > 0.0) || !std::isfinite(open.offered_qps)) {
    throw InvalidArgument("Scenario.traffic: TraceConfig.offered_qps must be finite and positive");
  }
  if (open.request_count < 1) {
    throw InvalidArgument("Scenario.traffic: TraceConfig.request_count must be >= 1");
  }
  return false;
}

}  // namespace

void validate_scenario(const Scenario& scenario) { (void)check_scenario(scenario); }

namespace {

// The event loop proper, compiled twice: kObs=false is the fast path with
// every observer hook and profiler clock read removed at compile time
// (`if constexpr`), not branch-predicted away at run time — the unobserved
// 1M-request headline pays zero per-event observability cost.  kObs=true is
// the instrumented twin; both produce bit-identical metrics because hooks
// never feed back into simulation state.
template <bool kObs>
FleetMetrics simulate_impl(const Scenario& scenario, Observation* observation) {
  const bool trace_decodes = check_scenario(scenario);
  const FleetConfig& fleet = scenario.fleet;
  const WorkloadCatalog& catalog = scenario.catalog;
  const BatchPolicy& policy = scenario.batch;
  const SimConfig& sim = scenario.sim;
  // The explicit trace is borrowed, not copied: the Scenario outlives the run.
  const std::unique_ptr<TrafficSource> source =
      scenario.trace.empty()
          ? make_traffic_source(catalog, scenario.traffic)
          : std::make_unique<OpenLoopSource>(&scenario.trace);
  const std::size_t total_requests = source->total_requests();
  LUMOS_ENSURES(total_requests >= 1);
  const bool scaling = sim.autoscaler.policy != AutoscalerPolicy::kNone;
  const bool admission = sim.admission.policy != AdmissionPolicy::kNone;
  const RetryPolicy& retry = sim.retry;

  // Observability: only the kObs instantiation ever constructs the hub; the
  // profiler is the only observer that reads a real clock.
  std::unique_ptr<ObserverHub> hub;
  if constexpr (kObs) {
    hub = std::make_unique<ObserverHub>(scenario.observe, catalog);
  }
  ObserverHub* const obs = hub.get();  // non-null iff kObs
  EventLoopProfiler* const prof = obs ? obs->profiler() : nullptr;
  using ProfClock = EventLoopProfiler::Clock;
  const auto prof_now = [&]() {
    if constexpr (kObs) {
      return prof ? ProfClock::now() : ProfClock::time_point{};
    } else {
      return ProfClock::time_point{};
    }
  };

  // One estimate cache per distinct spec name; fleet slots share caches.
  // Families are the distinct initial spec names in first-appearance order —
  // the units the autoscaler grows and shrinks.
  std::vector<EstimateCache> caches;
  const auto cache_for = [&](const std::string& spec) -> std::size_t {
    for (std::size_t c = 0; c < caches.size(); ++c) {
      if (caches[c].spec().name == spec) return c;
    }
    caches.emplace_back(spec, catalog);
    return caches.size() - 1;
  };

  std::vector<std::string> families;
  std::vector<std::size_t> family_cache;
  std::vector<Slot> slots;
  slots.reserve(fleet.accelerators.size());
  for (const std::string& spec : fleet.accelerators) {
    std::size_t f = kNone;
    for (std::size_t i = 0; i < families.size(); ++i) {
      if (families[i] == spec) {
        f = i;
        break;
      }
    }
    if (f == kNone) {
      families.push_back(spec);
      family_cache.push_back(cache_for(spec));
      f = families.size() - 1;
    }
    Slot s;
    s.cache = family_cache[f];
    s.family = f;
    slots.push_back(std::move(s));
  }
  if constexpr (kObs) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      obs->on_slot_added(i, fleet.accelerators[i], 0.0);
    }
  }
  // Grown slots may use a scaled registry variant of the family's spec; build
  // those caches up front so the cache vector is stable during the loop.
  std::vector<std::size_t> family_grow_cache = family_cache;
  if (scaling && sim.autoscaler.grow_scale != 1.0) {
    for (std::size_t f = 0; f < families.size(); ++f) {
      family_grow_cache[f] =
          cache_for(arch::scaled_spec_name(families[f], sim.autoscaler.grow_scale));
    }
  }

  // Kind-aware routing: which caches (and so which fleet slots) can serve
  // each workload, and the first serving slot for unloaded-latency queries.
  std::vector<std::vector<char>> cache_serves(caches.size());
  for (std::size_t c = 0; c < caches.size(); ++c) {
    cache_serves[c].resize(catalog.size());
    for (std::uint32_t w = 0; w < catalog.size(); ++w) {
      cache_serves[c][w] = caches[c].can_serve(w) ? 1 : 0;
    }
  }
  std::vector<std::size_t> first_serving_cache(catalog.size(), kNone);
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    for (const Slot& s : slots) {
      if (cache_serves[s.cache][w] != 0) {
        first_serving_cache[w] = s.cache;
        break;
      }
    }
    if (first_serving_cache[w] == kNone) {
      const arch::Workload& wl = catalog.workload(w);
      throw InvalidArgument("fleet '" + fleet.label() + "' cannot serve " +
                            arch::workload_kind_name(wl.kind()) + " workload '" + wl.name() +
                            "': no accelerator of that kind in the fleet");
    }
  }
  // Masks only bind when the fleet's specs differ in what they can serve;
  // fleets whose slots all accept the same workload set (single-kind, or
  // all-electronic serving everything) skip the mask rebuild entirely
  // (hoisted: the allow-everything mask is a constant, tested once per
  // dispatch round instead of per slot scan).
  bool mixed_fleet = false;
  for (std::size_t c = 1; c < caches.size() && !mixed_fleet; ++c) {
    mixed_fleet = cache_serves[c] != cache_serves[0];
  }

  // Amortised $/slot-hour per cache (== per spec), for cost-aware routing and
  // the dollar-cost metrics.
  std::vector<double> rate_of_cache(caches.size(), 0.0);
  for (std::size_t c = 0; c < caches.size(); ++c) {
    rate_of_cache[c] =
        fleet.cost.slot_hour_rate(caches[c].spec().name, caches[c].static_power_w());
  }

  // Simulation-wide fallback SLO, then each tenant's own contract.
  double slowest = 0.0;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    slowest = std::max(slowest, caches[first_serving_cache[w]].estimate(w, 1).latency_s);
  }
  const double slo_s = kSloScale * slowest;
  std::vector<double> slo_of(catalog.size(), slo_s);
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    if (catalog.at(w).slo_latency_s > 0.0) slo_of[w] = catalog.at(w).slo_latency_s;
  }

  // Per-entry request timeouts (0 disables); `has_timeouts` gates every
  // timeout check so timeout-free runs do no extra per-request work.
  std::vector<double> timeout_of(catalog.size(), 0.0);
  bool has_timeouts = false;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    timeout_of[w] = catalog.at(w).timeout_s;
    has_timeouts = has_timeouts || timeout_of[w] > 0.0;
  }

  // SLO-aware admission prices requests with the estimate cache; computed
  // only for that policy so other runs leave the cache counters untouched.
  std::vector<double> service_of(catalog.size(), 0.0);
  double mean_service_s = 0.0;
  const bool slo_admission = sim.admission.policy == AdmissionPolicy::kSloAware;
  if (slo_admission) {
    const std::size_t pricing_batch =
        scenario.scheduler == SchedulerKind::kFifo ? std::size_t{1} : policy.max_batch;
    double weighted = 0.0;
    for (std::uint32_t w = 0; w < catalog.size(); ++w) {
      service_of[w] = caches[first_serving_cache[w]].estimate(w, pricing_batch).latency_s /
                      static_cast<double>(pricing_batch);
      weighted += catalog.at(w).mix_weight * service_of[w];
    }
    mean_service_s = weighted / catalog.total_weight();
  }

  const std::unique_ptr<Scheduler> sched =
      make_scheduler(scenario.scheduler, policy, catalog.priorities());
  EventHeap<Completion, CompletionLater> heap;
  std::uint64_t dispatch_seq = 0;

  // Retried arrivals waiting out their backoff (fifth arrival path).
  EventHeap<PendingRetry, RetryLater> retry_heap;
  std::uint64_t retry_seq = 0;

  // Batch buffers cycle through the arena: dispatch acquires, completion or
  // fault-abort releases, so the steady state allocates nothing per batch.
  RequestArena arena;

  // Per-slot failure/recovery process (nullptr when injection is disabled).
  std::unique_ptr<SlotFaultProcess> faults;
  if (sim.faults.enabled()) {
    faults = std::make_unique<SlotFaultProcess>(sim.faults);
    for (std::size_t i = 0; i < slots.size(); ++i) faults->add_slot(0.0);
  }

  // The loop adds straight into the counters and the tally of `m`;
  // finalize() derives every rate and mean from them once it drains.
  FleetMetrics m;
  m.batch_histogram.assign(
      (scenario.scheduler == SchedulerKind::kFifo ? std::size_t{1} : policy.max_batch) + 1,
      0);
  m.initial_fleet_size = slots.size();
  m.peak_fleet_size = slots.size();
  m.slo_latency_s = slo_s;
  m.tenants.resize(catalog.size());
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    TenantMetrics& t = m.tenants[w];
    t.name = catalog.workload(w).name();
    t.priority = catalog.at(w).priority;
    t.slo_latency_s = slo_of[w];
  }
  // Latency samples: the exact mode stores every sample per tenant (sorted
  // once at the end, into the LatencyState); kHdr streams them into
  // bounded-error sketches instead, so memory stays flat at 100M-request
  // scale.
  const bool hdr = sim.percentile_mode == PercentileMode::kHdr;
  std::vector<std::vector<double>> tenant_latencies(hdr ? 0 : catalog.size());
  std::vector<HdrHistogram> tenant_hist(
      hdr ? catalog.size() : 0, HdrHistogram(hdr ? sim.hdr_relative_error : 0.01));
  // Charges dispatched work: its energy to the fleet, and its dollars to
  // tenant `w` (served slot-time at the slot's hourly rate plus the energy at
  // $/J) — at batch and decode-step completions and pro-rata fault aborts.
  // Tenant dollars sum to <= the fleet cost: idle slot-time and idle static
  // energy stay unattributed.
  const double usd_per_joule = fleet.cost.usd_per_joule;
  const auto charge = [&](std::uint32_t w, double served_s, double energy_j,
                          std::size_t cache) {
    m.fleet_energy_j += energy_j;
    m.tenants[w].cost_usd += served_s / 3600.0 * rate_of_cache[cache] +
                             energy_j * usd_per_joule;
  };
  // Terminal outcomes (completed + shed + timed out): the loop's stop target.
  // Every request ends here exactly once; the counters of its outcome are
  // the caller's.
  std::size_t terminal = 0;
  const auto terminate = [&](const Request& req, double t, CompletionStatus status,
                             double latency_s, bool in_slo) {
    ++terminal;
    if constexpr (kObs) obs->on_complete(req, t, status, latency_s, in_slo);
    // Feedback to the source: a closed-loop session may now schedule its
    // next issue (at or after this instant).
    source->on_complete(req, t, status);
  };

  // Decode-phase setup, all skipped when nothing decodes: the gated branches
  // below then never fire, keeping decode-free runs bit-identical to the
  // pre-decode event loop (pinned by tests/test_decode.cpp).
  const bool has_decode = catalog.has_decode() || trace_decodes;
  const bool continuous = sim.decode_mode == DecodeMode::kContinuous;
  // Decode lanes per slot: the batch width the scheduler dispatches at.
  const std::size_t lane_capacity =
      scenario.scheduler == SchedulerKind::kFifo ? std::size_t{1} : policy.max_batch;
  std::vector<char> cache_generates(caches.size(), 0);
  std::vector<double> ttft_slo_of;
  std::vector<double> tpot_slo_of;
  std::vector<std::uint32_t> native_seq_of;  // prompt length when seq_len == 0
  // Phase-latency samples of completed decode requests (always exact; see
  // LatencyState).
  std::vector<double> ttft_samples;
  std::vector<double> tpot_samples;
  std::vector<Request> joiner_buf;
  if (has_decode) {
    for (std::size_t c = 0; c < caches.size(); ++c) {
      cache_generates[c] = caches[c].can_generate() ? 1 : 0;
    }
    ttft_slo_of.assign(catalog.size(), 0.0);
    tpot_slo_of.assign(catalog.size(), 0.0);
    native_seq_of.assign(catalog.size(), 0);
    for (std::uint32_t w = 0; w < catalog.size(); ++w) {
      const DecodeConfig& d = catalog.at(w).decode;
      ttft_slo_of[w] = d.ttft_slo_s;
      tpot_slo_of[w] = d.tpot_slo_s;
      if (catalog.workload(w).kind() == arch::WorkloadKind::kTransformer) {
        native_seq_of[w] =
            static_cast<std::uint32_t>(catalog.workload(w).transformer_config().seq_len);
      }
    }
    m.decode_occupancy.assign(lane_capacity + 1, 0);
  }

  // Autoscaler signal: the per-family time-integral of busy slots since the
  // last evaluation step (exact busy fraction, not the dispatch-time
  // batch-latency proxy — a batch longer than the interval keeps counting as
  // busy in later intervals).
  std::vector<double> family_busy_integral_s(families.size(), 0.0);
  std::uint64_t eval_count = 0;
  double next_eval_s = scaling ? sim.autoscaler.interval_s : kNever;

  // Hot-path loops iterate only the live (non-retired) slots; churn from an
  // oscillating policy must not make per-event cost grow with the count of
  // long-retired slots.  Rebuilt on the rare grow/retire events, ascending
  // index order so routing stays deterministic and identical to a full scan.
  std::vector<std::size_t> live;
  const auto rebuild_live = [&]() {
    live.clear();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].retired) live.push_back(i);
    }
  };
  rebuild_live();

  // Live slot gauges, kept incrementally so neither admission nor the
  // on_tick hook scans the fleet: active (non-draining) slots, and the down
  // slots among them — a down slot leaves the count when it retires.
  std::size_t active_total = slots.size();
  std::size_t failed_total = 0;
  // Slots a batch could go to now (can_dispatch_to).  A retire never moves
  // the count: only draining slots retire.
  std::size_t dispatchable = slots.size();
  // Raised by every scheduler pop, by every enqueue the scheduler reports as
  // able to move readiness or a deadline (a bucket opening or filling), and
  // by every change to a slot's dispatchability; lowered when the loop
  // recomputes its batching deadline.  While it is down, no batch can become
  // ready before that deadline, so the loop skips the dispatch round.
  bool changed = true;
  // The only places the count moves.  A transition that can close slot `s`
  // (start_step, fault failure, autoscaler drain) calls uncount_dispatchable
  // before it; one that can open `s` (the go-idle in continue_decode, fault
  // recovery, autoscaler grow) calls count_dispatchable after it.
  const auto uncount_dispatchable = [&](const Slot& s) {
    if (!can_dispatch_to(s)) return;
    --dispatchable;
    changed = true;
  };
  const auto count_dispatchable = [&](const Slot& s) {
    if (!can_dispatch_to(s)) return;
    ++dispatchable;
    changed = true;
  };

  // Takes slot `idx` out of the fleet at `t` for good: its active window
  // ends, a down slot leaves the failed-slot gauge, and it stops failing.
  const auto retire = [&](std::size_t idx, double t) {
    Slot& s = slots[idx];
    s.retired = true;
    s.active_end_s = t;
    if (s.failed) --failed_total;
    if (faults) faults->remove_slot(idx);
    rebuild_live();
  };

  // Starts a batch or decode step of `latency_s` / `energy_j` on slot `idx`
  // at `t`: the slot turns busy and its completion joins the heap under the
  // next dispatch seq.
  const auto start_step = [&](std::size_t idx, double t, double latency_s, double energy_j) {
    Slot& s = slots[idx];
    uncount_dispatchable(s);
    s.idle = false;
    s.busy_s += latency_s;
    s.inflight_seq = dispatch_seq;
    s.inflight_start_s = t;
    s.inflight_done_s = t + latency_s;
    s.inflight_energy_j = energy_j;
    heap.push({s.inflight_done_s, dispatch_seq, idx});
    ++dispatch_seq;
  };

  // Scratch for the mixed-fleet dispatch mask: workload w is dispatchable
  // when some idle non-draining accelerator serves it.  Single-kind fleets
  // never call this (the hoisted allow-everything mask is equivalent).
  std::vector<char> allowed(catalog.size(), 1);
  const auto current_mask = [&]() -> WorkloadMask {
    if (!mixed_fleet) return WorkloadMask{};
    std::fill(allowed.begin(), allowed.end(), 0);
    for (const std::size_t i : live) {
      const Slot& s = slots[i];
      if (!can_dispatch_to(s)) continue;
      const std::vector<char>& serves = cache_serves[s.cache];
      for (std::uint32_t w = 0; w < catalog.size(); ++w) {
        if (serves[w] != 0) allowed[w] = 1;
      }
    }
    return WorkloadMask{&allowed};
  };

  // The earliest instant a held batch could dispatch by deadline.  Deadlines
  // only matter while an accelerator could take the batch; when everything
  // is busy the next completion re-evaluates readiness anyway.  In mixed
  // fleets the deadline is masked the same way dispatch is, so a deadline
  // whose workload has no idle compatible accelerator never wakes the loop
  // without progress.
  const auto next_deadline = [&]() {
    return dispatchable > 0 && sched->queued() > 0 ? sched->next_deadline_s(current_mask())
                                                   : kNever;
  };

  // True when `req`'s attempt is past its entry's timeout at `t`.
  const auto expired = [&](const Request& req, double t) {
    const double timeout_s = timeout_of[req.workload];
    return has_timeouts && timeout_s > 0.0 && t - req.arrival_s > timeout_s;
  };

  // A timed-out attempt either re-enters through the retry heap (budget
  // left) or terminates as kTimeout.
  const auto handle_timed_out_attempt = [&](const Request& req, double now_s) {
    ++m.attempt_timeouts;
    const bool will_retry =
        static_cast<std::size_t>(req.attempt) + 1 < retry.max_attempts;
    if constexpr (kObs) obs->on_attempt_timeout(req, now_s, will_retry);
    if (will_retry) {
      Request again = req;
      ++again.attempt;
      again.arrival_s = now_s + retry_backoff_s(retry, again.id, again.attempt);
      ++m.retried_attempts;
      if constexpr (kObs) obs->on_retry(again, now_s, again.arrival_s);
      retry_heap.push({again.arrival_s, retry_seq++, std::move(again)});
    } else {
      ++m.timed_out_requests;
      ++m.tenants[req.workload].timed_out;
      terminate(req, now_s, CompletionStatus::kTimeout, now_s - req.first_arrival_s, false);
    }
  };

  // Lazy queued-timeout cancellation: the expired requests of a scheduler pop
  // time out at `t` and leave `popped`, which keeps the rest in order.
  const auto drop_expired = [&](std::vector<Request>& popped, double t) {
    if (!has_timeouts) return;
    std::size_t kept = 0;
    for (Request& req : popped) {
      if (expired(req, t)) {
        handle_timed_out_attempt(req, t);
      } else {
        popped[kept++] = std::move(req);
      }
    }
    popped.resize(kept);
  };

  // Full kOk-completion accounting for one request at `t` — shared by the
  // prefill completion path and decode-lane completions; statement-for-
  // statement the historical inline path, so decode-free runs stay
  // bit-identical.  Latency is client-perceived: first issue to now,
  // backoffs included.
  const auto complete_ok = [&](const Request& req, double t) {
    const std::uint32_t w = req.workload;
    const double latency = t - req.first_arrival_s;
    if (hdr) {
      tenant_hist[w].add(latency);
    } else {
      tenant_latencies[w].push_back(latency);
    }
    TenantMetrics& tenant = m.tenants[w];
    ++tenant.completed;
    m.tally.latency_s += latency;
    const bool in_slo = latency <= slo_of[w];
    if (in_slo) {
      ++m.within_slo;
      ++tenant.within_slo;
    }
    ++m.completed;
    terminate(req, t, CompletionStatus::kOk, latency, in_slo);
  };

  // Terminal accounting for a request that decoded: the e2e completion plus
  // the decode-phase metrics (TTFT anchored at the first token, TPOT across
  // the decode steps).  A request finishing past its deadline times out as
  // usual — its generated tokens were wasted work.
  const auto finish_decode_request = [&](const Request& req, double t,
                                         double first_token_s, std::uint32_t generated) {
    if (expired(req, t)) {
      m.aborted_decode_tokens += generated;
      handle_timed_out_attempt(req, t);
      return;
    }
    complete_ok(req, t);
    if (generated == 0) return;  // trace-built joiner with no tokens to decode
    const std::uint32_t w = req.workload;
    ++m.decode_requests;
    m.generated_tokens += generated;
    const double ttft = first_token_s - req.first_arrival_s;
    ttft_samples.push_back(ttft);
    if (ttft_slo_of[w] > 0.0) {
      ++m.ttft_slo_requests;
      if (ttft <= ttft_slo_of[w]) ++m.within_ttft_slo;
    }
    if (generated >= 2) {
      const double tpot = (t - first_token_s) / static_cast<double>(generated - 1);
      tpot_samples.push_back(tpot);
      if (tpot_slo_of[w] > 0.0) {
        ++m.tpot_slo_requests;
        if (tpot <= tpot_slo_of[w]) ++m.within_tpot_slo;
      }
    }
  };

  // The widest lane context of decoding slot `s` (at least 1) and the
  // earliest step count at which one of its lanes finishes.
  const auto scan_lanes = [&](const Slot& s) {
    std::uint32_t context = 1;
    std::uint64_t finish = static_cast<std::uint64_t>(-1);
    for (const DecodeLane& lane : s.lanes) {
      const std::uint32_t base =
          lane.request.seq_len != 0 ? lane.request.seq_len : native_seq_of[s.decode_workload];
      context = std::max(context, base + generated(lane, s.steps));
      finish = std::min(finish, finish_step(lane));
    }
    return std::pair{context, finish};
  };

  // Prices and schedules the next decode step of slot `idx` at `now_s` after
  // its lanes changed; `extra_s`/`extra_j` fold in the joiners' prefill.  The
  // step keys on the widest lane's context bucket.
  const auto schedule_decode_step = [&](std::size_t idx, double now_s, double extra_s,
                                        double extra_j) {
    Slot& s = slots[idx];
    std::tie(s.step_context, s.finish_step) = scan_lanes(s);
    s.step_bucket = context_bucket(s.step_context);
    s.step = &caches[s.cache].decode_step(s.decode_workload, s.lanes.size(), s.step_bucket);
    start_step(idx, now_s, s.step->latency_s + extra_s, s.step->total_energy_j + extra_j);
  };

  // Schedules the next decode step of slot `idx` at `now_s` after a
  // counter-only boundary: every lane generated one token, so the widest
  // context grows by one, and no lane finished, so the earliest finishing
  // step stands.  The step keeps its cached price until the context enters a
  // new bucket.
  const auto repeat_decode_step = [&](std::size_t idx, double now_s) {
    Slot& s = slots[idx];
    ++s.step_context;
    if (s.step_context > s.step_bucket) {
      s.step_bucket += kDecodeContextGrid;
      s.step = &caches[s.cache].decode_step(s.decode_workload, s.lanes.size(), s.step_bucket);
    }
#ifndef NDEBUG
    // The advanced state matches a rescan of the lanes.  The cache is not
    // asked, so Debug counts the lookups Release does.
    const auto [context, finish] = scan_lanes(s);
    LUMOS_ENSURES(context == s.step_context && finish == s.finish_step &&
                  context_bucket(context) == s.step_bucket);
#endif
    start_step(idx, now_s, s.step->latency_s, s.step->total_energy_j);
  };

  // True when a waiting request could join decoding slot `s` at a token
  // boundary: continuous mode, a slot that is not draining, a free lane, and
  // a waiting request of the slot's workload.
  const auto joiner_can_board = [&](const Slot& s) {
    return continuous && !s.draining && !s.lanes.empty() && s.lanes.size() < lane_capacity &&
           sched->queued(s.decode_workload) > 0;
  };

  // True when the token boundary decoding slot `s` has just counted changes
  // only counters: no lane finishes at it, and no joiner can board.
  const auto counter_only = [&](const Slot& s) {
    return s.steps < s.finish_step && !joiner_can_board(s);
  };

  // The after-step path of slot `idx` (a finished batch, or a decode step
  // whose boundary is not counter-only, see repeat_decode_step): admit
  // waiting prefills into free lanes (continuous mode, non-draining slots),
  // then either run another step or — every lane drained — go idle
  // (retiring a draining slot).  Decode steps carry no observer
  // dispatch/complete batch hooks: the traced lifecycle stays arrival ->
  // dispatch -> completion with the decode phase inside the request's span.
  const auto continue_decode = [&](std::size_t idx, double now_s) {
    Slot& s = slots[idx];
    const std::size_t first_joiner = s.lanes.size();
    double extra_s = 0.0;
    double extra_j = 0.0;
    if (joiner_can_board(s)) {
      const std::uint32_t w = s.decode_workload;
      joiner_buf.clear();
      if (sched->pop_joiners(w, lane_capacity - s.lanes.size(), now_s, joiner_buf) > 0) {
        changed = true;
      }
      drop_expired(joiner_buf, now_s);
      if (!joiner_buf.empty()) {
        std::uint32_t max_seq = 0;
        for (Request& req : joiner_buf) {
          DecodeLane lane;
          lane.joined_step = s.steps;
          lane.budget = req.decode_tokens;
          max_seq = std::max(max_seq, req.seq_len);
          lane.request = std::move(req);
          s.lanes.push_back(std::move(lane));
        }
        // The joining step pays the joiners' prefill on top of the decode
        // step: running lanes stall for it (TPOT interference).
        const PerfReport& pr = caches[s.cache].estimate(w, joiner_buf.size(), max_seq);
        extra_s = pr.latency_s;
        extra_j = pr.total_energy_j;
      }
    }
    if (!s.lanes.empty()) {
      schedule_decode_step(idx, now_s, extra_s, extra_j);
      // Joiners get their first token at the joining step's end: the instant
      // the completion heap pops for it, unless a fault aborts the step.
      for (std::size_t i = first_joiner; i < s.lanes.size(); ++i) {
        s.lanes[i].first_token_s = s.inflight_done_s;
      }
      return;
    }
    s.decoding = false;
    s.inflight_seq = kNoBatch;
    s.idle = true;
    count_dispatchable(s);
    if (s.draining && !s.retired) retire(idx, now_s);
  };

  // Admission decision for one arriving request (fresh or retried).
  const auto admits = [&](const Request& r) {
    AdmissionSignals sig;
    sig.tier = catalog.at(r.workload).priority;
    sig.queued = sched->queued();
    sig.slo_s = slo_of[r.workload];
    if (slo_admission) {
      // The queue drains over the up, non-draining slots.
      const std::size_t active = active_total - failed_total;
      sig.service_s = service_of[r.workload];
      sig.predicted_wait_s = static_cast<double>(sig.queued) * mean_service_s /
                             static_cast<double>(std::max<std::size_t>(active, 1));
    }
    return admit(sim.admission, sig);
  };

  // Routes one arriving request (fresh or retried) through admission into the
  // scheduler, or terminates it as kShed.
  const auto accept_arrival = [&](const Request& r, double now_s) {
    const bool admitted = !admission || admits(r);
    if constexpr (kObs) obs->on_admission(r, now_s, admitted);
    if (!admitted) {
      ++m.shed_requests;
      ++m.tenants[r.workload].shed;
      terminate(r, now_s, CompletionStatus::kShed, now_s - r.first_arrival_s, false);
      return;
    }
    if (sched->enqueue(r, now_s)) changed = true;
    m.peak_queue_depth = std::max(m.peak_queue_depth, sched->queued());
  };

  const auto try_dispatch = [&](double now_s) {
    for (;;) {
      if (dispatchable == 0) return;
      const WorkloadMask mask = current_mask();
      const auto t_pop = prof_now();
      if (!sched->ready(now_s, mask)) return;
      std::vector<Request> batch = arena.acquire();
      sched->pop(now_s, mask, batch);
      changed = true;
      if (prof) prof->record(LoopSource::kSchedulerPop, t_pop, 1);
      LUMOS_ENSURES(!batch.empty());
      drop_expired(batch, now_s);  // expired requests never dispatch
      if (batch.empty()) {
        arena.release(std::move(batch));
        continue;
      }
      const std::uint32_t workload = batch.front().workload;
      // Batching schedulers never mix seq buckets within a batch (FIFO
      // batches are single requests), so the head's sampled length prices the
      // whole batch.
      const std::uint32_t seq_len = batch.front().seq_len;
      // Routing: one scan over the compatible idle slots in index order.
      // First-idle takes the first; energy-aware the lowest predicted energy;
      // cost-aware the cheapest slot still predicted to land the batch head
      // inside the tenant's SLO, keeping the first-idle pick when none can,
      // so overloaded fleets degrade to first-idle rather than stall.
      const auto t_est = prof_now();
      std::uint64_t estimate_calls = 1;  // the pricing call below
      std::size_t chosen = kNone;
      double best = kNever;
      for (const std::size_t i : live) {
        const Slot& c = slots[i];
        if (!can_dispatch_to(c) || cache_serves[c.cache][workload] == 0) continue;
        if (chosen == kNone) chosen = i;
        if (fleet.routing == RoutingPolicy::kFirstIdle) break;
        const PerfReport& est = caches[c.cache].estimate(workload, batch.size(), seq_len);
        ++estimate_calls;
        double score = est.total_energy_j;
        if (fleet.routing == RoutingPolicy::kCostAware) {
          if (now_s + est.latency_s - batch.front().first_arrival_s > slo_of[workload]) {
            continue;
          }
          score = est.latency_s / 3600.0 * rate_of_cache[c.cache] +
                  est.total_energy_j * usd_per_joule;
        }
        if (score < best) {
          best = score;
          chosen = i;
        }
      }
      LUMOS_ENSURES(chosen != kNone);
      const PerfReport& r = caches[slots[chosen].cache].estimate(workload, batch.size(), seq_len);
      if (prof) prof->record(LoopSource::kEstimate, t_est, estimate_calls);
      Slot& sl = slots[chosen];
      ++m.dispatches;
      ++m.batch_histogram[batch.size()];
      sl.inflight = std::move(batch);
      start_step(chosen, now_s, r.latency_s, r.total_energy_j);
      if constexpr (kObs) {
        obs->on_dispatch(chosen, sl.inflight_seq, sl.inflight, now_s, sl.inflight_done_s);
      }
    }
  };

  // Puts `req`, whose batch a slot failure aborted at `t`, back in the queue
  // (the same attempt: its deadline still runs from its arrival).
  const auto requeue = [&](const Request& req, double t) {
    if (sched->enqueue(req, t)) changed = true;
    ++m.requeued_requests;
    if constexpr (kObs) obs->on_requeue(req, t);
  };

  // Applies every pending fault transition up to `now_s`; returns how many it
  // applied.  A failure aborts the slot's in-flight batch (partial
  // busy/energy accounting, requests requeued) and hides the slot from
  // routing; a draining slot that fails retires on the spot (its batch was
  // going to be its last anyway).
  const auto process_faults = [&](double now_s) -> std::size_t {
    std::size_t transitions = 0;
    while (faults->next_event_s() <= now_s) {
      const std::size_t i = faults->next_event_slot();
      const double t_ev = faults->next_event_s();
      const bool up = faults->advance(i);
      ++transitions;
      Slot& s = slots[i];
      if (!up) {
        uncount_dispatchable(s);
        s.failed = true;
        ++s.failures;
        ++m.slot_failures;
        ++failed_total;
        if constexpr (kObs) obs->on_slot_failure(i, t_ev);
        s.down_since_s = t_ev;
        if (!s.idle) {
          ++m.failed_batches;
          if constexpr (kObs) {
            obs->on_batch_abort(i, s.inflight_seq, s.inflight_start_s, t_ev,
                                s.decoding ? s.lanes.size() : s.inflight.size());
          }
          // The unserved remainder was never busy time; the dynamic energy
          // already burned is charged pro rata (for a decoding slot: of the
          // current decode step) — and so are the aborted batch's dollars.
          s.busy_s -= s.inflight_done_s - t_ev;
          const double span = s.inflight_done_s - s.inflight_start_s;
          if (span > 0.0) {
            const double served_s = t_ev - s.inflight_start_s;
            charge(s.decoding ? s.decode_workload : s.inflight.front().workload, served_s,
                   s.inflight_energy_j * (served_s / span), s.cache);
          }
          if (s.decoding) {
            // Mid-decode failure: the KV state is gone, so each lane's
            // request requeues as a fresh prefill (decode length intact) and
            // its generated-so-far tokens count as aborted work.
            for (const DecodeLane& lane : s.lanes) {
              m.aborted_decode_tokens += generated(lane, s.steps);
              requeue(lane.request, t_ev);
            }
            s.lanes.clear();
            s.decoding = false;
          } else {
            std::vector<Request> aborted = std::move(s.inflight);
            for (const Request& req : aborted) requeue(req, t_ev);
            arena.release(std::move(aborted));
          }
          s.inflight_seq = kNoBatch;
          s.idle = true;
          m.peak_queue_depth = std::max(m.peak_queue_depth, sched->queued());
        }
        if (s.draining && !s.retired) retire(i, t_ev);
      } else {
        s.failed = false;
        count_dispatchable(s);
        ++s.repairs;
        ++m.slot_recoveries;
        --failed_total;
        if constexpr (kObs) obs->on_slot_recovery(i, t_ev);
        const double repair_s = t_ev - s.down_since_s;
        s.down_total_s += repair_s;
        s.repair_total_s += repair_s;
      }
    }
    return transitions;
  };

  // One autoscaler step: per family, observe signals over the last interval
  // and apply at most a one-slot delta, clamped to [min_slots, max_slots]
  // active slots.  Shrinks drain before retiring: the slot is closed to new
  // work immediately, retires now if idle, otherwise at its completion.
  // Failed and draining slots are invisible: they do not count as active.
  const auto evaluate_autoscaler = [&](double now_s) {
    for (std::size_t f = 0; f < families.size(); ++f) {
      FamilySignals signals;
      for (const std::size_t i : live) {
        const Slot& s = slots[i];
        if (s.family == f && !s.draining && !s.failed) ++signals.active_slots;
      }
      const std::vector<char>& serves = cache_serves[family_cache[f]];
      for (std::uint32_t w = 0; w < catalog.size(); ++w) {
        if (serves[w] != 0) signals.queued += sched->queued(w);
      }
      signals.utilization =
          signals.active_slots > 0
              ? std::min(1.0, family_busy_integral_s[f] /
                                  (static_cast<double>(signals.active_slots) *
                                   sim.autoscaler.interval_s))
              : 0.0;
      family_busy_integral_s[f] = 0.0;
      const int delta = autoscale_step(sim.autoscaler, signals);
      if (delta > 0 && signals.active_slots < sim.autoscaler.max_slots) {
        Slot grown;
        grown.cache = family_grow_cache[f];
        grown.family = f;
        grown.active_start_s = now_s;
        slots.push_back(std::move(grown));
        if (faults) faults->add_slot(now_s);
        if constexpr (kObs) {
          obs->on_autoscale(f, 1, now_s);
          obs->on_slot_added(slots.size() - 1, caches[slots.back().cache].spec().name,
                             now_s);
        }
        rebuild_live();
        count_dispatchable(slots.back());
        ++m.autoscale_grows;
        ++active_total;
        m.peak_fleet_size = std::max(m.peak_fleet_size, active_total);
      } else if (delta < 0 && signals.active_slots > sim.autoscaler.min_slots) {
        for (std::size_t i = slots.size(); i-- > 0;) {
          Slot& s = slots[i];
          if (s.family != f || s.retired || s.draining) continue;
          uncount_dispatchable(s);
          s.draining = true;
          if constexpr (kObs) obs->on_autoscale(f, -1, now_s);
          --active_total;
          if (s.idle) retire(i, now_s);
          ++m.autoscale_shrinks;
          break;
        }
      }
    }
  };

  double last_arrival_s = 0.0;
  double now_s = 0.0;
  double t_dead = kNever;
  while (terminal < total_requests) {
    const double t_arr = source->next_arrival_time();
    const double t_retry = retry_heap.next_time_s();
    const double t_done = heap.next_time_s();
    const double t_fault = faults ? faults->next_event_s() : kNever;
    if (changed) {
      t_dead = next_deadline();
      changed = false;
    }
#ifndef NDEBUG
    // The cached deadline and slot count agree with a fresh computation.
    LUMOS_ENSURES(t_dead == next_deadline());
    LUMOS_ENSURES(dispatchable == static_cast<std::size_t>(std::count_if(
                                      live.begin(), live.end(),
                                      [&](std::size_t i) { return can_dispatch_to(slots[i]); })));
#endif
    const double t = std::min(std::min(std::min(t_arr, t_retry), std::min(t_done, t_dead)),
                              std::min(t_fault, next_eval_s));
    LUMOS_ENSURES(t >= now_s && t < kNever);
    m.tally.queue_depth_s += static_cast<double>(sched->queued()) * (t - now_s);
    if (scaling && t > now_s) {
      // Exact per-family busy-slot time integral for the utilization signal.
      const double dt = t - now_s;
      for (const std::size_t i : live) {
        if (!slots[i].idle) family_busy_integral_s[slots[i].family] += dt;
      }
    }
    now_s = t;

    const auto t_completions = prof_now();
    std::uint64_t completion_events = 0;
    while (!heap.empty() && heap.top().time_s <= now_s) {
      const Completion done = heap.pop();
      Slot& acc = slots[done.acc];
      if (acc.inflight_seq != done.seq) continue;  // batch aborted by a failure
      ++completion_events;
      if (acc.decoding) {
        // Token boundary: the decode step finished and each lane emitted one
        // token, which the slot's step count records.  A counter-only
        // boundary (no lane finishes, no joiner can board) starts the next
        // step through repeat_decode_step, at the cached price and without
        // touching a lane.  Otherwise finished lanes complete and the slot
        // decides whether another step runs (see continue_decode).
        charge(acc.decode_workload, acc.inflight_done_s - acc.inflight_start_s,
               acc.inflight_energy_j, acc.cache);
        ++m.decode_steps;
        ++m.decode_occupancy[acc.lanes.size()];
        ++acc.steps;
        if (counter_only(acc)) {
          repeat_decode_step(done.acc, done.time_s);
          continue;
        }
        LUMOS_ENSURES(acc.steps <= acc.finish_step);  // no lane outlives its finishing step
        if (acc.steps == acc.finish_step) {
          std::size_t kept = 0;
          for (std::size_t i = 0; i < acc.lanes.size(); ++i) {
            DecodeLane& lane = acc.lanes[i];
            if (finish_step(lane) == acc.steps) {
              finish_decode_request(lane.request, done.time_s, lane.first_token_s,
                                    generated(lane, acc.steps));
            } else {
              if (kept != i) acc.lanes[kept] = std::move(lane);
              ++kept;
            }
          }
          acc.lanes.resize(kept);
        }
        continue_decode(done.acc, done.time_s);
        continue;
      }
      if constexpr (kObs) {
        obs->on_batch_complete(done.acc, done.seq, acc.inflight_start_s, done.time_s,
                               acc.inflight.size());
      }
      std::vector<Request> batch = std::move(acc.inflight);
      acc.inflight.clear();
      acc.inflight_seq = kNoBatch;
      // Batches never mix workloads, so the head names the paying tenant.
      charge(batch.front().workload, acc.inflight_done_s - acc.inflight_start_s,
             acc.inflight_energy_j, acc.cache);
      const bool can_gen = has_decode && cache_generates[acc.cache] != 0;
      for (const Request& req : batch) {
        if (expired(req, done.time_s)) {
          // Finished past its deadline: the result is useless to the client.
          handle_timed_out_attempt(req, done.time_s);
          continue;
        }
        if (can_gen && req.decode_tokens > 0) {
          // The prefill produced this request's first token.  Single-token
          // requests are done; the rest become decode lanes on this slot.
          if (req.decode_tokens == 1) {
            finish_decode_request(req, done.time_s, done.time_s, 1);
          } else {
            DecodeLane lane;
            lane.request = req;
            lane.joined_step = acc.steps;
            lane.budget = req.decode_tokens - 1;
            lane.generated_then = 1;
            lane.first_token_s = done.time_s;
            acc.lanes.push_back(std::move(lane));
          }
          continue;
        }
        complete_ok(req, done.time_s);
      }
      arena.release(std::move(batch));
      if (!acc.lanes.empty()) {
        // Enter the decode phase: the slot stays busy and re-enters the loop
        // at every token boundary; in continuous mode waiting prefills may
        // join its free lanes starting right now.
        acc.decoding = true;
        acc.decode_workload = acc.lanes.front().request.workload;
      }
      continue_decode(done.acc, done.time_s);
    }
    if (prof) prof->record(LoopSource::kCompletions, t_completions, completion_events);
    if (faults) {
      const auto t_faults = prof_now();
      const std::size_t transitions = process_faults(now_s);
      if (prof) prof->record(LoopSource::kFaults, t_faults, transitions);
    }
    const auto t_arrivals = prof_now();
    std::uint64_t arrival_events = 0;
    while (source->next_arrival_time() <= now_s) {
      Request r = source->pop_arrival();
      last_arrival_s = r.arrival_s;
      r.first_arrival_s = r.arrival_s;
      ++arrival_events;
      if constexpr (kObs) obs->on_arrival(r, now_s);
      accept_arrival(r, now_s);
    }
    if (prof) prof->record(LoopSource::kArrivals, t_arrivals, arrival_events);
    if (!retry_heap.empty()) {
      const auto t_retries = prof_now();
      std::uint64_t retry_events = 0;
      while (!retry_heap.empty() && retry_heap.top().time_s <= now_s) {
        const Request r = std::move(retry_heap.pop().request);
        ++retry_events;
        accept_arrival(r, now_s);
      }
      if (prof) prof->record(LoopSource::kRetries, t_retries, retry_events);
    }
    if (scaling && now_s >= next_eval_s) {
      const auto t_scale = prof_now();
      evaluate_autoscaler(now_s);
      ++eval_count;
      next_eval_s = static_cast<double>(eval_count + 1) * sim.autoscaler.interval_s;
      if (prof) prof->record(LoopSource::kAutoscale, t_scale, 1);
    }
    // A dispatch round runs only when something changed since t_dead was
    // computed, or t_dead has come: otherwise no batch can be ready, and the
    // round would return without popping.
    const bool round = changed || now_s >= t_dead;
#ifndef NDEBUG
    LUMOS_ENSURES(round || !(dispatchable > 0 && sched->ready(now_s, current_mask())));
#endif
    if (round) {
      const auto t_dispatch = prof_now();
      const std::size_t dispatched_before = m.dispatches;
      try_dispatch(now_s);
      if (prof) prof->record(LoopSource::kDispatch, t_dispatch, m.dispatches - dispatched_before);
    }
    if (prof) prof->add_iterations(1);
    if constexpr (kObs) obs->on_tick(now_s, sched->queued(), active_total, failed_total);
  }
  if constexpr (kObs) obs->finish(now_s);

  // End of run: the sums only the slots can give.  Energy, dollars and
  // utilization integrate each slot over its active window (activation to
  // retirement, or simulation end); availability counts its down time.
  m.offered_qps = static_cast<double>(total_requests) / std::max(last_arrival_s, 1e-300);
  m.duration_s = now_s;
  double idle_static_j = 0.0;
  double slot_cost_usd = 0.0;
  for (const Slot& s : slots) {
    const double window_end_s = s.active_end_s >= 0.0 ? s.active_end_s : now_s;
    const double window_s = window_end_s - s.active_start_s;
    m.tally.busy_slot_s += s.busy_s;
    m.tally.active_slot_s += window_s;
    slot_cost_usd += window_s / 3600.0 * rate_of_cache[s.cache];
    idle_static_j += std::max(0.0, window_s - s.busy_s) * caches[s.cache].static_power_w();
    if (!s.retired && !s.draining) ++m.final_fleet_size;
    if (!faults) continue;
    double down_s = s.down_total_s;
    if (s.failed) down_s += std::max(0.0, window_end_s - s.down_since_s);
    SlotAvailability a;
    a.spec = caches[s.cache].spec().name;
    a.failures = s.failures;
    a.repairs = s.repairs;
    a.uptime_fraction = window_s > 0.0 ? std::max(0.0, window_s - down_s) / window_s : 1.0;
    a.observed_mttr_s =
        s.repairs > 0 ? s.repair_total_s / static_cast<double>(s.repairs) : 0.0;
    m.slot_availability.push_back(std::move(a));
    m.tally.window_slot_s += window_s;
    m.tally.down_slot_s += down_s;
    m.tally.repair_s += s.repair_total_s;
  }
  if (m.autoscale_grows == 0 && m.autoscale_shrinks == 0) {
    // Static fleet: every window is the full duration; the product keeps the
    // utilization denominator bit-identical to the pre-elastic simulator
    // (repeated addition can round differently from multiplication).
    m.tally.active_slot_s = static_cast<double>(slots.size()) * now_s;
  }
  m.fleet_energy_j += idle_static_j;
  // Fleet dollars: every active slot-hour at its amortised rate plus all
  // energy at the marginal $/J (per-tenant attribution covers only the
  // served share; the idle burn lands here).
  m.fleet_cost_usd = slot_cost_usd + m.fleet_energy_j * fleet.cost.usd_per_joule;
  for (const EstimateCache& c : caches) {
    m.estimate_lookups += c.lookups();
    m.estimate_misses += c.misses();
  }
  // Latency state: each sample vector sorts once, here, and the source adds
  // its session samples; then the one finalize derives every statistic.  The
  // runs are disjoint, so each non-empty one builds on its own pool task
  // (inline when there is only one, or when this run is itself on a pool
  // worker); each sum still adds in arrival order, and an empty run stays
  // default-constructed.  The state stays attached only for a caller that
  // asked to keep it (exact merging).
  auto st = std::make_shared<LatencyState>();
  st->hdr = hdr;
  st->hdr_relative_error = sim.hdr_relative_error;
  st->tenant_hist = std::move(tenant_hist);
  st->tenant_samples.resize(tenant_latencies.size());
  std::vector<std::pair<std::vector<double>*, SampleRun*>> runs;
  const auto add_run = [&](std::vector<double>& samples, SampleRun& run) {
    if (!samples.empty()) runs.emplace_back(&samples, &run);
  };
  for (std::size_t w = 0; w < tenant_latencies.size(); ++w) {
    add_run(tenant_latencies[w], st->tenant_samples[w]);
  }
  add_run(ttft_samples, st->ttft_samples);
  add_run(tpot_samples, st->tpot_samples);
  parallel_for(0, runs.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      *runs[i].second = SampleRun(std::move(*runs[i].first));
    }
  });
  m.latency_state = std::move(st);
  source->finish(m);
  finalize(m);
  if (!sim.keep_latency_state) m.latency_state.reset();
  if constexpr (kObs) {
    if (observation != nullptr) *observation = hub->take();
  }
  return m;
}

}  // namespace

FleetMetrics simulate(const Scenario& scenario, Observation* observation) {
  // Template split: unobserved runs take the kObs=false instantiation, whose
  // hook sites do not exist in the compiled loop at all.  Each validates the
  // scenario before it touches anything else.
  if (scenario.observe.enabled()) {
    return simulate_impl<true>(scenario, observation);
  }
  return simulate_impl<false>(scenario, observation);
}

}  // namespace lumos::serve
