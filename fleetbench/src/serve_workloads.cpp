// The three serving workloads: 16-slot TRON open loop through serial
// `simulate`, the same scenario as four cells through `simulate_sharded`, and
// a faulty closed-loop hybrid TRON+V100 fleet with continuous-batching decode.
//
// Every offered load, session count and fault rate is a literal here, never
// derived from `fleet_capacity_qps`: a change to the capacity model must not
// silently change a workload.  The modelled capacity is printed beside each
// load as information only.
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "serve/cache.hpp"
#include "serve/campaign.hpp"
#include "serve/shard.hpp"
#include "sim/registry.hpp"

namespace fleetbench {
namespace {

using namespace lumos;
using serve::FleetMetrics;
using serve::Scenario;

constexpr int kMinReps = 3;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

serve::WorkloadCatalog tron_catalog() { return serve::WorkloadCatalog::tron_default(); }

// 16 TRON slots, dynamic batching up to 8, exact percentiles, Poisson arrivals.
Scenario tron_open_loop(serve::WorkloadCatalog catalog, std::uint64_t seed) {
  Scenario s;
  s.fleet = serve::FleetConfig::homogeneous("tron", 16);
  s.catalog = std::move(catalog);
  s.scheduler = serve::SchedulerKind::kDynamicBatch;
  s.batch.max_batch = 8;
  s.sim.percentile_mode = serve::PercentileMode::kExact;
  s.traffic.open.offered_qps = 94400.0;
  s.traffic.open.request_count = 1000000;
  s.traffic.open.seed = seed;
  return s;
}

// The three-tenant hybrid-fleet catalog: a premium tier-0 `vit` tenant over
// bulk tier-1 `bert-base` / `gpt2` tenants, log-normal sequence and decode
// lengths, per-token SLOs, and one end-to-end SLO per tenant of 10x its
// unloaded TRON request (prefill plus a median decode tail at batch 1).
serve::WorkloadCatalog hybrid_catalog() {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.5);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);
  catalog.apply_seqlen_dist(serve::SeqLenDist::kLogNormal);
  catalog.apply_decode(serve::SeqLenDist::kLogNormal, 32);
  catalog.apply_token_slos(500e-6, 100e-6);
  const serve::EstimateCache ref("tron", catalog);
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    const auto ctx =
        static_cast<std::uint32_t>(catalog.workload(w).transformer_config().seq_len);
    const double per_request_s =
        ref.estimate(w, 1).latency_s + 31.0 * ref.decode_step(w, 1, ctx).latency_s;
    catalog.set_slo(w, 10.0 * per_request_s);
  }
  catalog.apply_timeout(0.05);
  return catalog;
}

// 8 alternating TRON / V100 slots under cost-aware routing, a closed pool of
// client sessions, continuous-batching decode, seeded slot faults, and
// timeouts with up to two retries.
//
// Each session draws its tenant once, so the tenant mix of a seed is a
// sample of `sessions` draws: many short sessions keep the mix, and with it
// the work per request, close to the catalog's weights on every seed.  The
// think time holds the offered load well under the fleet's capacity, where
// no seed tips the retry loop into collapse.
Scenario hybrid_closed_loop(serve::WorkloadCatalog catalog, std::uint64_t seed) {
  Scenario s;
  s.fleet = serve::FleetConfig::cycled({"tron", "v100"}, 8, serve::RoutingPolicy::kCostAware);
  s.catalog = std::move(catalog);
  s.scheduler = serve::SchedulerKind::kDynamicBatch;
  s.batch.max_batch = 8;
  s.sim.decode_mode = serve::DecodeMode::kContinuous;
  s.sim.faults.mtbf_s = 0.5;
  s.sim.faults.mttr_s = 0.005;
  s.sim.faults.seed = seed;
  s.sim.retry.max_attempts = 3;
  s.sim.retry.base_backoff_s = 1e-4;
  s.sim.retry.seed = seed;
  s.traffic.mode = serve::LoopMode::kClosed;
  s.traffic.closed.sessions = 512;
  s.traffic.closed.requests_per_session = 200;
  s.traffic.closed.think_time_mean_s = 0.25;
  s.traffic.closed.seed = seed;
  return s;
}

struct ServeWorkload {
  const char* name;
  std::size_t cells;  // 1: serial `simulate`; more: `simulate_sharded`
  bool profile;       // EventLoopProfiler in the traced run
  serve::WorkloadCatalog (*catalog)();
  Scenario (*scenario)(serve::WorkloadCatalog, std::uint64_t);
};

const ServeWorkload kTronSerial{"serve_tron_serial", 1, true, tron_catalog, tron_open_loop};
const ServeWorkload kTronSharded{"serve_tron_sharded", 4, false, tron_catalog, tron_open_loop};
const ServeWorkload kHybridClosed{"serve_hybrid_closed", 1, true, hybrid_catalog,
                                  hybrid_closed_loop};

bool open_loop(const Scenario& s) { return s.traffic.mode == serve::LoopMode::kOpen; }

std::size_t expected_issued(const Scenario& s) {
  return open_loop(s) ? s.traffic.open.request_count
                      : s.traffic.closed.sessions * s.traffic.closed.requests_per_session;
}

FleetMetrics serve_once(const Scenario& s, std::size_t cells) {
  return cells == 1 ? serve::simulate(s) : serve::simulate_sharded(s, cells);
}

// ---------------------------------------------------------------------------
// Simulated fields: what must repeat exactly
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, double>> sim_fields(const FleetMetrics& m) {
  std::vector<std::pair<std::string, double>> f{
      {"completed", static_cast<double>(m.completed)},
      {"within_slo", static_cast<double>(m.within_slo)},
      {"dispatches", static_cast<double>(m.dispatches)},
      {"shed", static_cast<double>(m.shed_requests)},
      {"timed_out", static_cast<double>(m.timed_out_requests)},
      {"attempt_timeouts", static_cast<double>(m.attempt_timeouts)},
      {"retried", static_cast<double>(m.retried_attempts)},
      {"failed_batches", static_cast<double>(m.failed_batches)},
      {"requeued", static_cast<double>(m.requeued_requests)},
      {"slot_failures", static_cast<double>(m.slot_failures)},
      {"slot_recoveries", static_cast<double>(m.slot_recoveries)},
      {"duration_s", m.duration_s},
      {"throughput_qps", m.throughput_qps},
      {"goodput_qps", m.goodput_qps},
      {"slo_attainment", m.slo_attainment},
      {"p50_latency_s", m.p50_latency_s},
      {"p95_latency_s", m.p95_latency_s},
      {"p99_latency_s", m.p99_latency_s},
      {"p999_latency_s", m.p999_latency_s},
      {"mean_latency_s", m.mean_latency_s},
      {"max_latency_s", m.max_latency_s},
      {"mean_queue_depth", m.mean_queue_depth},
      {"peak_queue_depth", static_cast<double>(m.peak_queue_depth)},
      {"mean_batch_size", m.mean_batch_size},
      {"fleet_energy_j", m.fleet_energy_j},
      {"energy_per_request_j", m.energy_per_request_j},
      {"fleet_utilization", m.fleet_utilization},
      {"fleet_cost_usd", m.fleet_cost_usd},
      {"cost_per_request_usd", m.cost_per_request_usd},
      {"drop_rate", m.drop_rate},
      {"fleet_availability", m.fleet_availability},
      {"sessions", static_cast<double>(m.sessions)},
      {"p99_session_s", m.p99_session_s},
      {"generated_tokens", static_cast<double>(m.generated_tokens)},
      {"aborted_decode_tokens", static_cast<double>(m.aborted_decode_tokens)},
      {"decode_steps", static_cast<double>(m.decode_steps)},
      {"tokens_per_s", m.tokens_per_s},
      {"p99_ttft_s", m.p99_ttft_s},
      {"p99_tpot_s", m.p99_tpot_s},
      {"estimate_lookups", static_cast<double>(m.estimate_lookups)},
      {"estimate_misses", static_cast<double>(m.estimate_misses)},
  };
  for (const serve::TenantMetrics& t : m.tenants) {
    f.emplace_back(t.name + ".completed", static_cast<double>(t.completed));
    f.emplace_back(t.name + ".p99_latency_s", t.p99_latency_s);
    f.emplace_back(t.name + ".slo_attainment", t.slo_attainment);
    f.emplace_back(t.name + ".cost_usd", t.cost_usd);
  }
  return f;
}

// Empty when `a` and `b` agree bit for bit on every simulated field,
// otherwise the first field that differs.
std::string first_difference(const FleetMetrics& a, const FleetMetrics& b) {
  const auto fa = sim_fields(a);
  const auto fb = sim_fields(b);
  if (fa.size() != fb.size()) return "tenant count";
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(fa[i].second) != std::bit_cast<std::uint64_t>(fb[i].second)) {
      return fa[i].first;
    }
  }
  return {};
}

// FNV-1a over the bit patterns of the simulated fields: two runs of one
// seed print the same digest.
std::string sim_digest(const FleetMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, value] : sim_fields(m)) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i, bits >>= 8) h = (h ^ (bits & 0xff)) * 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

// The benchmark's set-up: the catalog (the hybrid one prices its SLOs on a
// TRON estimate cache) and the scenario the serve call runs.  The accelerators
// and estimate caches the serve call prices on are built inside it, so they
// count in `requests_per_s`, not here.
SetupTimes set_up_once(const ServeWorkload& w, std::uint64_t seed, Scenario& out) {
  const auto t0 = Clock::now();
  serve::WorkloadCatalog catalog = w.catalog();
  const double catalog_s = seconds_since(t0);
  out = w.scenario(std::move(catalog), seed);
  return {catalog_s, 0.0};
}

// Prints the load beside the fleet's modelled capacity (`fleet_capacity_qps`
// builds each spec's accelerator and prices the catalog on it), outside any
// timing: the capacity is information only.
void note_load(const ServeWorkload& w, const Scenario& s, Report& report) {
  const double capacity = serve::fleet_capacity_qps(s.catalog, s.fleet, s.batch.max_batch);
  char line[256];
  if (open_loop(s)) {
    std::snprintf(line, sizeof line,
                  "load: %.0f QPS offered, %zu requests, %zu cells (modelled capacity %.0f "
                  "QPS, %.3fx; information only)",
                  s.traffic.open.offered_qps, s.traffic.open.request_count, w.cells, capacity,
                  s.traffic.open.offered_qps / capacity);
  } else {
    std::snprintf(line, sizeof line,
                  "load: %zu closed-loop sessions x %zu requests, think %.0f us, slot MTBF "
                  "%.0f ms / MTTR %.0f ms (modelled capacity %.0f QPS; information only)",
                  s.traffic.closed.sessions, s.traffic.closed.requests_per_session,
                  s.traffic.closed.think_time_mean_s * 1e6, s.sim.faults.mtbf_s * 1e3,
                  s.sim.faults.mttr_s * 1e3, capacity);
  }
  report.note(line);
  report.note("serving model: unvalidated (no reference measurement), so no error figure");
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

void run_untraced(const ServeWorkload& w, const Options& options, Report& report) {
  Scenario scenario;
  SetupSampler setup;
  std::vector<double> walls;
  FleetMetrics first;
  std::string repeat_diff;
  repeat_for(options.seconds, kMinReps, [&] {
    setup.slice([&] { return set_up_once(w, options.seed, scenario); });
    FleetMetrics m;
    const double wall = timed(report, "serve", [&] { m = serve_once(scenario, w.cells); });
    if (wall < 0.0) return false;
    walls.push_back(wall);
    if (walls.size() == 1) {
      first = std::move(m);
    } else if (repeat_diff.empty()) {
      repeat_diff = first_difference(first, m);
    }
    return true;
  });
  if (walls.empty()) throw std::runtime_error("no serve call succeeded");
  note_load(w, scenario, report);

  report.check("repeat_bit_identical", repeat_diff.empty(),
               repeat_diff.empty() ? std::to_string(walls.size()) + " runs, digest " +
                                         sim_digest(first)
                                   : "differs in " + repeat_diff);
  const std::size_t issued = issued_requests(first);
  report.check("conservation", issued == expected_issued(scenario),
               "completed " + std::to_string(first.completed) + " + shed " +
                   std::to_string(first.shed_requests) + " + timed-out " +
                   std::to_string(first.timed_out_requests) + " = " + std::to_string(issued) +
                   " of " + std::to_string(expected_issued(scenario)) + " issued");

  const double wall = median(walls);
  char line[160];
  std::snprintf(line, sizeof line, "serve wall: median %.4f s, quartiles %.4f-%.4f s, n=%zu",
                wall, quantile(walls, 0.25), quantile(walls, 0.75), walls.size());
  report.note(line);
  report.e2e("requests_per_s", static_cast<double>(issued) / wall, "1/s");
  report.e2e("setup_s", setup.total_s(), "s");
  report.e2e("sim_p99_latency_ms", first.p99_latency_s * 1e3, "ms");
  report.e2e("sim_energy_per_request_mj", first.energy_per_request_j * 1e3, "mJ");
  report.e2e("sim_cost_per_request_usd", first.cost_per_request_usd, "USD");
  report.e2e("sim_drop_rate", first.drop_rate, "ratio");
  if (!open_loop(scenario)) {
    report.e2e("sim_tier0_attainment", first.tenants.front().slo_attainment, "ratio");
    report.e2e("sim_p99_ttft_ms", first.p99_ttft_s * 1e3, "ms");
    report.e2e("sim_tokens_per_s", first.tokens_per_s, "1/s");
  }
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

// One traced serve call, decomposed into the layers the untraced call runs,
// with a span around each public call:
//   serial:  `trace` (open loop: `generate_trace` materialises the arrivals
//            the simulator would otherwise draw itself) and `simulate` on a
//            copy of the scenario that carries the trace;
//   sharded: `plan` (`CellPlan::build`), `cells` (one `cell` per cell on the
//            pool, each a `trace` and a `simulate`) and `merge` (the
//            ascending `FleetMetrics::merge` fold), the way
//            `simulate_sharded` runs them.
// `profile` turns the EventLoopProfiler on (serial only: observers are one
// cell's).
struct TracedPass {
  FleetMetrics merged;
  std::vector<Span> spans;
  double wall_s = 0.0;
  std::size_t trace_bytes = 0;
  std::unique_ptr<serve::EventLoopProfiler> profiler;
};

TracedPass traced_pass(const ServeWorkload& w, const Scenario& scenario, bool profile) {
  TracedPass out;
  SpanRecorder rec;
  const auto run_cell = [&](Scenario& sc, int parent, serve::Observation* observation) {
    if (open_loop(sc)) {
      const ScopedSpan span(rec, "trace", parent);
      sc.trace = serve::generate_trace(sc.catalog, sc.traffic.open);
    }
    const ScopedSpan span(rec, "simulate", parent);
    return serve::simulate(sc, observation);
  };
  if (w.cells == 1) {
    Scenario sc = scenario;
    sc.observe.profile = profile;
    serve::Observation observation;
    const double start = rec.since_origin();
    out.merged = run_cell(sc, -1, &observation);
    out.wall_s = rec.since_origin() - start;
    out.trace_bytes = sc.trace.capacity() * sizeof(serve::Request);
    out.profiler = std::move(observation.profiler);
  } else {
    const double start = rec.since_origin();
    serve::CellPlan plan;
    {
      const ScopedSpan span(rec, "plan");
      plan = serve::CellPlan::build(scenario, w.cells);
    }
    std::vector<FleetMetrics> per_cell(plan.cells.size());
    {
      const ScopedSpan cells(rec, "cells");
      parallel_for(0, plan.cells.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t c = begin; c < end; ++c) {
          const ScopedSpan cell(rec, "cell", cells.id());
          per_cell[c] = run_cell(plan.cells[c], cell.id(), nullptr);
        }
      });
    }
    {
      const ScopedSpan span(rec, "merge");
      out.merged = std::move(per_cell.front());
      for (std::size_t c = 1; c < per_cell.size(); ++c) out.merged.merge(per_cell[c]);
      if (!scenario.sim.keep_latency_state) out.merged.latency_state.reset();
    }
    out.wall_s = rec.since_origin() - start;
    for (const Scenario& sc : plan.cells) {
      out.trace_bytes += sc.trace.capacity() * sizeof(serve::Request);
    }
  }
  out.spans = rec.spans();
  return out;
}

// Per-layer metrics of one traced pass, in a fixed order.  The event-loop
// layers come from `profiled`, a pass with the profiler on (null when the
// workload is not profiled: they read 0).
std::vector<Metric> pass_layers(const TracedPass& p, const TracedPass* profiled) {
  const FleetMetrics& m = p.merged;
  const auto issued = static_cast<double>(issued_requests(m));
  const auto events = static_cast<double>(simulated_events(m));
  const serve::EventLoopProfiler* prof = profiled ? profiled->profiler.get() : nullptr;
  std::vector<Metric> out{
      {"trace.ns_per_request", total_s(p.spans, "trace") / issued * 1e9, "ns"},
      {"trace.bytes_per_request", static_cast<double>(p.trace_bytes) / issued, "B"},
      {"sim.ns_per_event", total_s(p.spans, "simulate") / events * 1e9, "ns"},
      {"sim.events_per_request", events / issued, "count"},
      {"sim.outside_loop_s",
       prof ? total_s(profiled->spans, "simulate") - prof->accounted_wall_s() : 0.0, "s"},
  };
  const std::pair<const char*, serve::LoopSource> sources[] = {
      {"loop.dispatch_ns", serve::LoopSource::kDispatch},
      {"loop.scheduler_pop_ns", serve::LoopSource::kSchedulerPop},
      {"loop.estimate_ns", serve::LoopSource::kEstimate},
      {"loop.completions_ns", serve::LoopSource::kCompletions},
      {"loop.arrivals_ns", serve::LoopSource::kArrivals},
      {"loop.faults_ns", serve::LoopSource::kFaults},
      {"loop.retries_ns", serve::LoopSource::kRetries},
  };
  for (const auto& [name, source] : sources) {
    const double n = prof ? static_cast<double>(prof->events(source)) : 0.0;
    out.push_back({name, n > 0.0 ? prof->wall_s(source) / n * 1e9 : 0.0, "ns"});
  }
  std::vector<double> cell_s;
  for (const Span& s : p.spans) {
    if (s.name == "cell") cell_s.push_back(s.duration_s());
  }
  double mean_cell = 0.0;
  for (const double c : cell_s) mean_cell += c / static_cast<double>(cell_s.size());
  const double merge_s = total_s(p.spans, "merge");
  const double lookups = static_cast<double>(m.estimate_lookups);
  out.insert(out.end(), {
      {"sched.mean_queue_depth", m.mean_queue_depth, "count"},
      {"sched.mean_batch_size", m.mean_batch_size, "count"},
      {"cache.lookups", lookups, "count"},
      {"cache.miss_rate", lookups > 0.0 ? static_cast<double>(m.estimate_misses) / lookups : 0.0,
       "ratio"},
      {"shard.plan_build_s", total_s(p.spans, "plan"), "s"},
      {"shard.cell_s_max", max_s(p.spans, "cell"), "s"},
      {"shard.cell_imbalance", mean_cell > 0.0 ? max_s(p.spans, "cell") / mean_cell : 0.0,
       "ratio"},
      {"shard.merge_s", merge_s, "s"},
      {"shard.merge_share", merge_s / p.wall_s, "ratio"},
  });
  return out;
}

// Times the estimate cache on the workload's own fleet specs and catalog: the
// first lookup of each (workload, batch) prefill key — and, for decoding
// entries on generating specs, each decode-step key at the native context —
// misses and runs the cost model; repeating the keys measures hits.
struct CacheProbe {
  double cold_us = 0.0;  // median per cold lookup
  double hit_ns = 0.0;   // mean per hit
};

CacheProbe probe_cache(const Scenario& s) {
  constexpr int kHitRounds = 200;
  std::vector<double> cold_us;
  double hit_s = 0.0;
  double hits = 0.0;
  const std::set<std::string> specs(s.fleet.accelerators.begin(), s.fleet.accelerators.end());
  for (const std::string& spec : specs) {
    const serve::EstimateCache cache(spec, s.catalog);
    const auto lookup_all = [&](bool time_each) {
      for (std::uint32_t w = 0; w < s.catalog.size(); ++w) {
        if (!cache.can_serve(w)) continue;
        const bool decodes = s.catalog.at(w).decode.enabled() && cache.can_generate();
        for (std::size_t b = 1; b <= s.batch.max_batch; ++b) {
          auto t0 = Clock::now();
          (void)cache.estimate(w, b);
          if (time_each) cold_us.push_back(seconds_since(t0) * 1e6);
          if (!decodes) continue;
          const auto ctx =
              static_cast<std::uint32_t>(s.catalog.workload(w).transformer_config().seq_len);
          t0 = Clock::now();
          (void)cache.decode_step(w, b, ctx);
          if (time_each) cold_us.push_back(seconds_since(t0) * 1e6);
        }
      }
    };
    lookup_all(true);
    const std::size_t before = cache.lookups();
    const auto t0 = Clock::now();
    for (int r = 0; r < kHitRounds; ++r) lookup_all(false);
    hit_s += seconds_since(t0);
    hits += static_cast<double>(cache.lookups() - before);
  }
  return {median(cold_us), hits > 0.0 ? hit_s / hits * 1e9 : 0.0};
}

// Simulates each cell with the timeline recorder on and fits the queue-depth
// trend over the second half of the run: the benchmark must not time a
// diverging queue.
void check_queue_stability(const ServeWorkload& w, const Scenario& scenario, Report& report) {
  serve::CellPlan plan = serve::CellPlan::build(scenario, w.cells);
  bool flat = true;
  std::string detail;
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    Scenario& sc = plan.cells[c];
    sc.observe.timeline.enabled = true;
    sc.observe.timeline.window_s = 0.01;
    serve::Observation obs;
    (void)serve::simulate(sc, &obs);
    std::vector<double> depth;
    for (const serve::TimelineWindow& win : obs.timeline->windows()) {
      depth.push_back(static_cast<double>(win.queue_depth_max));
    }
    const QueueTrend t = queue_trend(depth, 0.25, static_cast<double>(sc.batch.max_batch));
    flat = flat && t.flat;
    char line[160];
    std::snprintf(line, sizeof line, "%scell %zu: %zu windows, mean depth %.2f, rise %.2f <= %.2f",
                  c == 0 ? "" : "; ", c, depth.size(), t.mean_depth, t.rise, t.limit);
    detail += line;
  }
  report.check("queue_stable", flat, detail);
}

void run_traced(const ServeWorkload& w, const Options& options, Report& report) {
  Scenario scenario;
  SetupSampler setup;
  FleetMetrics reference;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> profiled_walls;
  std::vector<double> unattributed;
  std::vector<std::vector<Metric>> passes;
  std::vector<Span> last_spans;
  std::string traced_diff;
  const auto compare = [&](const FleetMetrics& m) {
    if (traced_diff.empty()) traced_diff = first_difference(reference, m);
  };
  // Each repetition: the untraced call, the traced pass whose spans the
  // ledger checks against it, and (profiled workloads) a pass with the
  // EventLoopProfiler on, whose clock reads stay out of the ledger.
  repeat_for(options.seconds, kMinReps, [&] {
    setup.slice([&] { return set_up_once(w, options.seed, scenario); });
    FleetMetrics m;
    const double wall = timed(report, "serve", [&] { m = serve_once(scenario, w.cells); });
    if (wall < 0.0) return false;
    if (untraced_walls.empty()) reference = std::move(m);
    untraced_walls.push_back(wall);

    TracedPass p;
    if (timed(report, "traced serve", [&] { p = traced_pass(w, scenario, false); }) < 0.0) {
      return false;
    }
    compare(p.merged);
    TracedPass profiled;
    if (w.profile) {
      if (timed(report, "profiled serve", [&] { profiled = traced_pass(w, scenario, true); }) <
          0.0) {
        return false;
      }
      compare(profiled.merged);
      profiled_walls.push_back(profiled.wall_s);
    }
    passes.push_back(pass_layers(p, w.profile ? &profiled : nullptr));
    unattributed.push_back(unattributed_fraction(p.spans, wall));
    traced_walls.push_back(p.wall_s);
    last_spans = std::move(p.spans);
    return true;
  });
  if (passes.empty()) throw std::runtime_error("no traced serve call succeeded");
  note_load(w, scenario, report);

  report.check(w.cells > 1 ? "sharded_decomposition_matches" : "traced_matches_untraced",
               traced_diff.empty(),
               traced_diff.empty() ? "digest " + sim_digest(reference)
                                   : "differs in " + traced_diff);
  report_ledger(unattributed, report);
  if (open_loop(scenario)) check_queue_stability(w, scenario, report);

  const std::vector<double> self = self_times(last_spans);
  for (std::size_t i = 0; i < last_spans.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "span %-8s parent %2d  %.6f s  self %.6f s",
                  last_spans[i].name.c_str(), last_spans[i].parent,
                  last_spans[i].duration_s(), self[i]);
    report.note(line);
  }
  if (!profiled_walls.empty()) {
    char line[128];
    std::snprintf(line, sizeof line, "profiled pass wall: median %.4f s, %.3fx the untraced wall",
                  median(profiled_walls), median(profiled_walls) / median(untraced_walls));
    report.note(line);
  }

  for (std::size_t i = 0; i < passes.front().size(); ++i) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(pass[i].value);
    report.layer(passes.front()[i].name, median(values), passes.front()[i].unit);
  }
  const CacheProbe cache = probe_cache(scenario);
  report.layer("cache.cold_estimate_us", cache.cold_us, "us");
  report.layer("cache.hit_ns", cache.hit_ns, "ns");
  report.layer("ledger.trace_overhead_x", median(traced_walls) / median(untraced_walls), "ratio");
  report.layer("setup.catalog_s", setup.layers().catalog_s, "s");
}

void run_serve(const ServeWorkload& w, const Options& options, Report& report) {
  if (options.trace) {
    run_traced(w, options, report);
  } else {
    run_untraced(w, options, report);
  }
}

}  // namespace

void run_serve_tron_serial(const Options& options, Report& report) {
  run_serve(kTronSerial, options, report);
}

void run_serve_tron_sharded(const Options& options, Report& report) {
  run_serve(kTronSharded, options, report);
}

void run_serve_hybrid_closed(const Options& options, Report& report) {
  run_serve(kHybridClosed, options, report);
}

}  // namespace fleetbench
