// Serving-campaign benchmark: sweeps offered QPS x scheduler across TRON,
// GHOST, and mixed TRON+GHOST fleets and records the saturation knee (p99
// latency, goodput, energy per request) plus a timed headline point for the
// GHOST, mixed and elastic fleets (TRON's is observer_overhead's unobserved
// run).  The mixed scenario exercises the multi-tenant path: one catalog
// mixing transformer and GNN workloads over a fleet alternating TRON and
// GHOST slots with kind-aware routing.  The elastic scenario starts the same
// mixed fleet at two slots under bursty traffic and compares autoscaling
// policies (static vs queue-depth vs target-utilization) with two-tier
// priorities, recording per-tenant SLO attainment.  The closed-loop scenario
// swaps the open-loop trace for a session pool (per-tenant clients with
// exponential think times and log-normal per-request sequence lengths) and
// records end-to-end session latencies — the feedback path through
// serve::ClosedLoopSource.  Throughput of the serial and sharded TRON paths
// is fleetbench's job (medians, provenance, a ledger); the simulated results
// here are gated field by field by tools/bench_check.py.
// Self-contained like bench_kernels (steady_clock, no framework); emits
// BENCH_serve.json alongside the human-readable tables.
//
// Usage:
//   bench_serve [--smoke] [--out <path>]
//     --smoke   reduced trace lengths (CI sanity run)
//     --out     JSON output path (default BENCH_serve.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/provenance.hpp"
#include "serve/cache.hpp"
#include "serve/campaign.hpp"
#include "serve/observe.hpp"
#include "serve/shard.hpp"
#include "sim/registry.hpp"

namespace {

using namespace lumos;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The open-loop point the headlines, observer_overhead and sharded sections
// run: `fleet` slots cycled from `fleet_template`, dynamic batching up to 8,
// offered 80% of the batched knee.
serve::Scenario knee_scenario(const std::vector<std::string>& fleet_template,
                              std::size_t fleet, const serve::WorkloadCatalog& catalog,
                              bool smoke) {
  const std::size_t max_batch = 8;
  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled(fleet_template, fleet);
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.traffic.open.offered_qps =
      0.8 * serve::fleet_capacity_qps(catalog, scenario.fleet, max_batch);
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.seed = 11;
  return scenario;
}

struct Headline {
  std::string fleet_label;
  std::size_t requests = 0;
  std::size_t fleet = 0;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
};

// One timed simulate: trace generation plus the event loop.
Headline run_headline(const std::string& label, const serve::Scenario& scenario) {
  Headline out;
  out.fleet_label = label;
  out.requests = scenario.traffic.open.request_count;
  out.fleet = scenario.fleet.accelerators.size();
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate(scenario);
  out.wall_s = seconds_since(t0);
  out.requests_per_s = static_cast<double>(out.requests) / out.wall_s;
  out.p99_latency_s = m.p99_latency_s;
  out.goodput_qps = m.goodput_qps;
  return out;
}

struct ScenarioResult {
  serve::CampaignConfig config;
  std::vector<serve::CampaignPoint> points;
};

// One fleet's knee sweep: below / near / past the batched knee (FIFO
// saturates far earlier, which is exactly the point of the comparison).
ScenarioResult run_sweep(const std::string& label,
                         const std::vector<std::string>& fleet_template,
                         const serve::WorkloadCatalog& catalog, bool smoke) {
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const double capacity = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled(fleet_template, fleet), max_batch);

  ScenarioResult out;
  out.config.name = label + " saturation sweep";
  out.config.fleet_template = fleet_template;
  out.config.qps = {0.5 * capacity, 0.8 * capacity, 1.1 * capacity};
  out.config.schedulers = {serve::SchedulerKind::kFifo, serve::SchedulerKind::kDynamicBatch};
  out.config.fleet_sizes = {fleet};
  out.config.max_batches = {max_batch};
  out.config.requests_per_point = smoke ? 10000 : 200000;
  out.config.seed = 7;
  out.points = serve::run_campaign(out.config, catalog);
  return out;
}

// Closed-loop scenario: the mixed TRON+GHOST catalog served to a pool of
// client sessions (each pinned to one tenant, issuing request -> completion
// -> exponential think -> next request) with log-normal per-request sequence
// lengths on the transformer tenants.  Arrival rate is set by service speed
// instead of an offered QPS; the result records end-to-end session latency.
struct ClosedLoopResult {
  std::string label;
  serve::ClosedLoopConfig config;
  serve::FleetMetrics metrics;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
};

ClosedLoopResult run_closed_loop_scenario(bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::mixed_default();
  catalog.apply_seqlen_dist(serve::SeqLenDist::kLogNormal);

  ClosedLoopResult out;
  out.label = "TRON+GHOST closed-loop";
  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled({"tron", "ghost"}, 4);
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.traffic.mode = serve::LoopMode::kClosed;
  scenario.traffic.closed.sessions = smoke ? 64 : 512;
  scenario.traffic.closed.requests_per_session = smoke ? 50 : 200;
  scenario.traffic.closed.think_time_mean_s = 2e-3;
  scenario.traffic.closed.seed = 23;
  out.config = scenario.traffic.closed;
  const auto t0 = std::chrono::steady_clock::now();
  out.metrics = serve::simulate(scenario);
  out.wall_s = seconds_since(t0);
  out.requests_per_s = static_cast<double>(out.metrics.completed) / out.wall_s;
  return out;
}

// Observer-overhead comparison: the TRON knee scenario run unobserved and
// with the tracer (sampled) and timeline enabled, in alternating pairs so
// host drift lands on both sides alike.  Observers must never change results
// (p99/goodput parity is gated by bench_check.py) and must stay cheap: the
// median per-pair overhead is gated too, and its quartiles are reported as
// info.
struct ObserverOverhead {
  std::string label = "TRON observed";
  std::size_t requests = 0;
  double trace_sample = 0.0;
  std::size_t pairs = 0;
  double off_wall_s = 0.0;  // median over pairs
  double off_requests_per_s = 0.0;
  double on_wall_s = 0.0;  // median over pairs
  double on_requests_per_s = 0.0;
  double overhead_fraction = 0.0;  // median of per-pair on_wall / off_wall - 1
  double overhead_fraction_q1 = 0.0;
  double overhead_fraction_q3 = 0.0;
  double off_p99_latency_s = 0.0;
  double on_p99_latency_s = 0.0;
  double off_goodput_qps = 0.0;
  double on_goodput_qps = 0.0;
  std::size_t sampled_requests = 0;
  std::size_t request_events = 0;
  std::size_t batch_spans = 0;
  std::size_t timeline_windows = 0;
};

ObserverOverhead run_observer_overhead(bool smoke) {
  const serve::Scenario off_scenario =
      knee_scenario({"tron"}, 4, serve::WorkloadCatalog::tron_default(), smoke);
  ObserverOverhead out;
  out.requests = off_scenario.traffic.open.request_count;
  out.trace_sample = 1.0 / 64.0;
  out.pairs = 5;

  // The gated overhead is the cost of *passive* observation (sampled tracing
  // + windowed timelines), the configuration a production-style run would
  // leave on.  The event-loop profiler is excluded: it reads steady_clock
  // several times per loop iteration by design (self-measurement), and its
  // cost is reported in its own table rather than gated here.
  serve::Scenario on_scenario = off_scenario;
  on_scenario.observe.trace.enabled = true;
  on_scenario.observe.trace.sample = out.trace_sample;
  on_scenario.observe.timeline.enabled = true;
  on_scenario.observe.timeline.window_s = 1e-3;

  // The simulations are deterministic (identical metrics every pair); only
  // the timing varies.
  std::vector<double> off_walls, on_walls, overheads;
  serve::FleetMetrics off, on;
  serve::Observation obs;
  for (std::size_t pair = 0; pair < out.pairs; ++pair) {
    auto t0 = std::chrono::steady_clock::now();
    off = serve::simulate(off_scenario);
    off_walls.push_back(seconds_since(t0));
    obs = serve::Observation{};
    t0 = std::chrono::steady_clock::now();
    on = serve::simulate(on_scenario, &obs);
    on_walls.push_back(seconds_since(t0));
    overheads.push_back(on_walls.back() / off_walls.back() - 1.0);
  }
  // The q-quantile of a sample, read at the nearest sorted index.
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
  };
  out.off_wall_s = quantile(off_walls, 0.5);
  out.on_wall_s = quantile(on_walls, 0.5);
  out.off_requests_per_s = static_cast<double>(out.requests) / out.off_wall_s;
  out.on_requests_per_s = static_cast<double>(out.requests) / out.on_wall_s;
  out.overhead_fraction = quantile(overheads, 0.5);
  out.overhead_fraction_q1 = quantile(overheads, 0.25);
  out.overhead_fraction_q3 = quantile(overheads, 0.75);
  out.off_p99_latency_s = off.p99_latency_s;
  out.off_goodput_qps = off.goodput_qps;
  out.on_p99_latency_s = on.p99_latency_s;
  out.on_goodput_qps = on.goodput_qps;
  out.sampled_requests = obs.tracer->sampled_requests();
  out.request_events = obs.tracer->request_events().size();
  out.batch_spans = obs.tracer->batch_spans().size();
  out.timeline_windows = obs.timeline->windows().size();
  return out;
}

// Cell-sharded simulation: one 16-slot TRON scenario simulated serially and
// as {1, 2, 4, 8} independent cells on the thread pool (serve/shard.hpp),
// plus a 10M-request HDR-percentile 8-cell run — the "datacenter, not a
// rack" scale point.  The cells == 1 point is gated bit-identical to the
// serial run by bench_check.py (in-file parity at zero tolerance); cells > 1
// points are deterministic for a fixed cell count, so their simulated
// results are gated at det tolerance like every other deterministic field.
// Sharded throughput is timed by fleetbench's serve_tron_sharded workload;
// only the HDR scale point, which fleetbench does not run, keeps its wall
// time here.
struct ShardedPoint {
  std::size_t cells = 0;
  std::size_t completed = 0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
};

struct ShardedResult {
  std::string label = "TRON sharded";
  std::size_t requests = 0;
  std::size_t fleet = 0;
  std::size_t serial_completed = 0;
  double serial_p99_latency_s = 0.0;
  double serial_goodput_qps = 0.0;
  std::vector<ShardedPoint> points;
  // The scale headline: 10M requests, HDR percentiles, 8 cells.
  std::size_t scale_requests = 0;
  std::size_t scale_cells = 0;
  double scale_wall_s = 0.0;
  double scale_requests_per_s = 0.0;
  std::size_t scale_completed = 0;
  double scale_p99_latency_s = 0.0;
  double scale_goodput_qps = 0.0;
};

ShardedResult run_sharded_scenario(bool smoke) {
  const serve::Scenario scenario =
      knee_scenario({"tron"}, 16, serve::WorkloadCatalog::tron_default(), smoke);
  ShardedResult out;
  out.requests = scenario.traffic.open.request_count;
  out.fleet = scenario.fleet.accelerators.size();

  const serve::FleetMetrics serial = serve::simulate(scenario);
  out.serial_completed = serial.completed;
  out.serial_p99_latency_s = serial.p99_latency_s;
  out.serial_goodput_qps = serial.goodput_qps;
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    const serve::FleetMetrics m = serve::simulate_sharded(scenario, cells);
    out.points.push_back({cells, m.completed, m.p99_latency_s, m.goodput_qps});
  }

  // The 10M-request scale run: HDR percentile sketches keep latency memory
  // bounded (exact mode would retain every sample), 8 cells split the work.
  serve::Scenario scale = scenario;
  scale.sim.percentile_mode = serve::PercentileMode::kHdr;
  scale.traffic.open.request_count = smoke ? 100000 : 10000000;
  out.scale_requests = scale.traffic.open.request_count;
  out.scale_cells = 8;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate_sharded(scale, out.scale_cells);
  out.scale_wall_s = seconds_since(t0);
  out.scale_requests_per_s = static_cast<double>(out.scale_requests) / out.scale_wall_s;
  out.scale_completed = m.completed;
  out.scale_p99_latency_s = m.p99_latency_s;
  out.scale_goodput_qps = m.goodput_qps;
  return out;
}

// Continuous-batching scenario: the TRON catalog with log-normal decode
// lengths (median 32 tokens) and per-token SLOs, served at 1x and 2x its
// decode-aware capacity under both decode schedules.  Monolithic batching
// holds every lane until the batch's longest decode finishes (the
// static-batching baseline), so waiting prefills eat head-of-line TTFT;
// continuous batching admits them into freed lanes at token boundaries.  The
// acceptance contract — continuous mean TTFT no worse than monolithic at
// every load — is gated in-file by bench_check.py; the per-mode simulated
// metrics are deterministic (det tolerance), the wall time sits in the
// timing band.
struct DecodeModeMetrics {
  double mean_ttft_s = 0.0;
  double p95_ttft_s = 0.0;
  double mean_tpot_s = 0.0;
  double p95_tpot_s = 0.0;
  double tokens_per_s = 0.0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
  double ttft_attainment = 0.0;
  double decode_occupancy = 0.0;
};

struct ContinuousBatchingPoint {
  double capacity_x = 0.0;
  double offered_qps = 0.0;
  DecodeModeMetrics mono;
  DecodeModeMetrics cont;
  double ttft_ratio = 0.0;  // mono mean TTFT / cont mean TTFT (>= 1: cont wins)
};

struct ContinuousBatchingResult {
  std::string label = "TRON continuous batching";
  std::size_t requests = 0;
  std::size_t fleet = 0;
  std::size_t decode_tokens = 0;
  double capacity_qps = 0.0;
  double wall_s = 0.0;           // all four runs together
  double requests_per_s = 0.0;
  std::vector<ContinuousBatchingPoint> points;
};

ContinuousBatchingResult run_continuous_batching_scenario(bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  const std::size_t decode_tokens = 32;
  catalog.apply_decode(serve::SeqLenDist::kLogNormal, decode_tokens);
  catalog.apply_token_slos(500e-6, 100e-6);
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled({"tron"}, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);

  ContinuousBatchingResult out;
  out.requests = smoke ? 20000 : 200000;
  out.fleet = fleet;
  out.decode_tokens = decode_tokens;
  out.capacity_qps = capacity;

  const auto run_mode = [&](double qps, serve::DecodeMode mode) {
    serve::Scenario scenario;
    scenario.fleet = fleet_cfg;
    scenario.catalog = catalog;
    scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
    scenario.batch.max_batch = max_batch;
    scenario.sim.decode_mode = mode;
    scenario.traffic.open.offered_qps = qps;
    scenario.traffic.open.request_count = out.requests;
    scenario.traffic.open.seed = 37;
    const serve::FleetMetrics m = serve::simulate(scenario);
    DecodeModeMetrics r;
    r.mean_ttft_s = m.mean_ttft_s;
    r.p95_ttft_s = m.p95_ttft_s;
    r.mean_tpot_s = m.mean_tpot_s;
    r.p95_tpot_s = m.p95_tpot_s;
    r.tokens_per_s = m.tokens_per_s;
    r.p99_latency_s = m.p99_latency_s;
    r.goodput_qps = m.goodput_qps;
    r.ttft_attainment = m.ttft_attainment;
    r.decode_occupancy = m.mean_decode_occupancy;
    return r;
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (const double x : {1.0, 2.0}) {
    ContinuousBatchingPoint p;
    p.capacity_x = x;
    p.offered_qps = x * capacity;
    p.mono = run_mode(p.offered_qps, serve::DecodeMode::kMonolithic);
    p.cont = run_mode(p.offered_qps, serve::DecodeMode::kContinuous);
    p.ttft_ratio = p.cont.mean_ttft_s > 0.0 ? p.mono.mean_ttft_s / p.cont.mean_ttft_s : 0.0;
    out.points.push_back(p);
  }
  out.wall_s = seconds_since(t0);
  out.requests_per_s =
      static_cast<double>(2 * out.points.size() * out.requests) / out.wall_s;
  return out;
}

// Hybrid-fleet TCO scenario: one 3-tenant decode workload (a premium tier-0
// "vit" tenant over bulk bert/gpt2 tiers, log-normal decode lengths,
// per-token SLOs) served by three fleets — photonic ({"tron"}), electronic
// ({"v100"} through arch::PlatformAdapter), and hybrid ({"tron", "v100"}) —
// under cost-aware routing, at 1x and 2x the hybrid fleet's decode-aware
// capacity.  Every fleet sees the *same* offered load, so attainment, energy
// per request, and dollars per request compare apples to apples: the paper's
// TCO question ("when does a photonic slot pay for itself?") in one table.
// The in-file acceptance gate (bench_check.py) pins the hybrid fleet's
// tier-0 attainment at or above the worse homogeneous fleet at every load.
struct HybridFleetPoint {
  std::string fleet_label;
  double capacity_x = 0.0;
  double offered_qps = 0.0;
  std::size_t completed = 0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
  double slo_attainment = 0.0;
  double tier0_attainment = 0.0;  // the premium tenant's own SLO attainment
  double mean_ttft_s = 0.0;
  double tokens_per_s = 0.0;
  double energy_per_request_j = 0.0;
  double fleet_cost_usd = 0.0;
  double cost_per_request_usd = 0.0;
};

struct HybridFleetResult {
  std::string label = "hybrid fleet TCO";
  std::size_t requests = 0;
  std::size_t fleet = 0;
  double capacity_qps = 0.0;  // the hybrid fleet's decode-aware capacity
  double wall_s = 0.0;        // all six runs together
  double requests_per_s = 0.0;
  std::vector<HybridFleetPoint> points;  // 3 fleets x 2 loads, fleet-major
};

HybridFleetResult run_hybrid_fleet_scenario(bool smoke) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.5);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);
  catalog.apply_decode(serve::SeqLenDist::kLogNormal, 32);
  catalog.apply_token_slos(500e-6, 100e-6);
  // One explicit decode-aware SLO contract per tenant, shared by every fleet.
  // The fallback SLO would be derived per fleet from its own unloaded
  // latencies (a v100 fleet would grade itself on a v100 curve) and ignores
  // decode time entirely; instead each tenant's contract is 10x its unloaded
  // photonic-reference request (prefill + median decode tail at batch 1).
  {
    const serve::EstimateCache ref("tron", catalog);
    for (std::uint32_t w = 0; w < catalog.size(); ++w) {
      const auto ctx = static_cast<std::uint32_t>(
          catalog.workload(w).transformer_config().seq_len);
      const double per_request_s = ref.estimate(w, 1).latency_s +
                                   31.0 * ref.decode_step(w, 1, ctx).latency_s;
      catalog.set_slo(w, 10.0 * per_request_s);
    }
  }

  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const std::vector<std::pair<std::string, std::vector<std::string>>> fleets{
      {"photonic tron", {"tron"}},
      {"electronic v100", {"v100"}},
      {"hybrid tron+v100", {"tron", "v100"}},
  };
  // Every fleet is offered multiples of the *hybrid* fleet's capacity, so the
  // three fleets answer the same demand.
  const double capacity = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled({"tron", "v100"}, fleet), max_batch);

  HybridFleetResult out;
  out.requests = smoke ? 20000 : 200000;
  out.fleet = fleet;
  out.capacity_qps = capacity;

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [label, fleet_template] : fleets) {
    for (const double x : {1.0, 2.0}) {
      serve::Scenario scenario;
      scenario.fleet = serve::FleetConfig::cycled(fleet_template, fleet,
                                                  serve::RoutingPolicy::kCostAware);
      scenario.catalog = catalog;
      scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
      scenario.batch.max_batch = max_batch;
      scenario.traffic.open.offered_qps = x * capacity;
      scenario.traffic.open.request_count = out.requests;
      scenario.traffic.open.seed = 37;
      const serve::FleetMetrics m = serve::simulate(scenario);
      HybridFleetPoint p;
      p.fleet_label = label;
      p.capacity_x = x;
      p.offered_qps = x * capacity;
      p.completed = m.completed;
      p.p99_latency_s = m.p99_latency_s;
      p.goodput_qps = m.goodput_qps;
      p.slo_attainment = m.slo_attainment;
      p.tier0_attainment = m.tenants.front().slo_attainment;
      p.mean_ttft_s = m.mean_ttft_s;
      p.tokens_per_s = m.tokens_per_s;
      p.energy_per_request_j = m.energy_per_request_j;
      p.fleet_cost_usd = m.fleet_cost_usd;
      p.cost_per_request_usd = m.cost_per_request_usd;
      out.points.push_back(std::move(p));
    }
  }
  out.wall_s = seconds_since(t0);
  out.requests_per_s =
      static_cast<double>(out.points.size() * out.requests) / out.wall_s;
  return out;
}

void write_indented_campaign(std::ofstream& f, const serve::CampaignConfig& config,
                             const std::vector<serve::CampaignPoint>& points) {
  std::ostringstream campaign;
  serve::write_campaign_json(config, points, campaign);
  // Indent the embedded campaign object to keep the file readable.
  std::istringstream lines(campaign.str());
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    f << (first ? "" : "\n") << "    " << line;
    first = false;
  }
}

void write_decode_mode_fields(std::ofstream& f, const char* prefix,
                              const DecodeModeMetrics& r) {
  f << ", \"" << prefix << "_mean_ttft_s\": " << r.mean_ttft_s << ", \"" << prefix
    << "_p95_ttft_s\": " << r.p95_ttft_s << ", \"" << prefix
    << "_mean_tpot_s\": " << r.mean_tpot_s << ", \"" << prefix
    << "_p95_tpot_s\": " << r.p95_tpot_s << ", \"" << prefix
    << "_tokens_per_s\": " << r.tokens_per_s << ", \"" << prefix
    << "_p99_latency_s\": " << r.p99_latency_s << ", \"" << prefix
    << "_goodput_qps\": " << r.goodput_qps << ", \"" << prefix
    << "_ttft_attainment\": " << r.ttft_attainment << ", \"" << prefix
    << "_decode_occupancy\": " << r.decode_occupancy;
}

bool write_json(const std::vector<ScenarioResult>& scenarios,
                const std::vector<Headline>& headlines, const ClosedLoopResult& closed,
                const ScenarioResult& overload, const ObserverOverhead& observer,
                const ShardedResult& sharded, const ContinuousBatchingResult& batching,
                const HybridFleetResult& hybrid, const std::string& path, bool smoke) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"serve\",\n";
  f << "  " << provenance_json(ThreadPool::global().thread_count()) << ",\n";
  f << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  f << "  \"threads\": " << ThreadPool::global().thread_count() << ",\n";
  f << "  \"observer_overhead\": [\n";
  f << "    {\"label\": \"" << observer.label << "\", \"requests\": " << observer.requests
    << ", \"trace_sample\": " << observer.trace_sample << ", \"pairs\": " << observer.pairs
    << ", \"off_wall_s\": " << observer.off_wall_s
    << ", \"off_requests_per_s\": " << observer.off_requests_per_s
    << ", \"on_wall_s\": " << observer.on_wall_s
    << ", \"on_requests_per_s\": " << observer.on_requests_per_s
    << ", \"overhead_fraction\": " << observer.overhead_fraction
    << ", \"overhead_fraction_q1\": " << observer.overhead_fraction_q1
    << ", \"overhead_fraction_q3\": " << observer.overhead_fraction_q3
    << ", \"off_p99_latency_s\": " << observer.off_p99_latency_s
    << ", \"on_p99_latency_s\": " << observer.on_p99_latency_s
    << ", \"off_goodput_qps\": " << observer.off_goodput_qps
    << ", \"on_goodput_qps\": " << observer.on_goodput_qps
    << ", \"sampled_requests\": " << observer.sampled_requests
    << ", \"request_events\": " << observer.request_events
    << ", \"batch_spans\": " << observer.batch_spans
    << ", \"timeline_windows\": " << observer.timeline_windows << "}\n";
  f << "  ],\n  \"sharded\": [\n";
  f << "    {\"label\": \"" << sharded.label << "\", \"requests\": " << sharded.requests
    << ", \"fleet\": " << sharded.fleet
    << ", \"serial_completed\": " << sharded.serial_completed
    << ", \"serial_p99_latency_s\": " << sharded.serial_p99_latency_s
    << ", \"serial_goodput_qps\": " << sharded.serial_goodput_qps
    << ",\n     \"points\": [\n";
  for (std::size_t i = 0; i < sharded.points.size(); ++i) {
    const ShardedPoint& p = sharded.points[i];
    f << "       {\"cells\": " << p.cells << ", \"completed\": " << p.completed
      << ", \"p99_latency_s\": " << p.p99_latency_s
      << ", \"goodput_qps\": " << p.goodput_qps << "}"
      << (i + 1 < sharded.points.size() ? "," : "") << "\n";
  }
  f << "     ],\n     \"scale_requests\": " << sharded.scale_requests
    << ", \"scale_cells\": " << sharded.scale_cells
    << ", \"scale_wall_s\": " << sharded.scale_wall_s
    << ", \"scale_requests_per_s\": " << sharded.scale_requests_per_s
    << ", \"scale_completed\": " << sharded.scale_completed
    << ", \"scale_p99_latency_s\": " << sharded.scale_p99_latency_s
    << ", \"scale_goodput_qps\": " << sharded.scale_goodput_qps << "}\n";
  f << "  ],\n  \"headlines\": [\n";
  for (std::size_t i = 0; i < headlines.size(); ++i) {
    const Headline& h = headlines[i];
    f << "    {\"fleet_label\": \"" << h.fleet_label << "\", \"requests\": " << h.requests
      << ", \"fleet\": " << h.fleet << ", \"wall_s\": " << h.wall_s
      << ", \"requests_per_s\": " << h.requests_per_s
      << ", \"p99_latency_s\": " << h.p99_latency_s
      << ", \"goodput_qps\": " << h.goodput_qps << "}"
      << (i + 1 < headlines.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"closed_loop\": [\n";
  {
    const serve::FleetMetrics& m = closed.metrics;
    f << "    {\"label\": \"" << closed.label << "\", \"sessions\": " << m.sessions
      << ", \"requests_per_session\": " << closed.config.requests_per_session
      << ", \"think_time_mean_s\": " << closed.config.think_time_mean_s
      << ", \"completed\": " << m.completed << ", \"wall_s\": " << closed.wall_s
      << ", \"requests_per_s\": " << closed.requests_per_s
      << ", \"throughput_qps\": " << m.throughput_qps
      << ", \"goodput_qps\": " << m.goodput_qps
      << ", \"slo_attainment\": " << m.slo_attainment
      << ", \"p50_latency_s\": " << m.p50_latency_s
      << ", \"p99_latency_s\": " << m.p99_latency_s
      << ", \"mean_session_s\": " << m.mean_session_s
      << ", \"p50_session_s\": " << m.p50_session_s
      << ", \"p99_session_s\": " << m.p99_session_s
      << ", \"max_session_s\": " << m.max_session_s
      << ", \"mean_batch\": " << m.mean_batch_size
      << ", \"estimate_lookups\": " << m.estimate_lookups
      << ", \"estimate_misses\": " << m.estimate_misses << "}\n";
  }
  f << "  ],\n  \"continuous_batching\": [\n";
  f << "    {\"label\": \"" << batching.label << "\", \"requests\": " << batching.requests
    << ", \"fleet\": " << batching.fleet
    << ", \"decode_tokens\": " << batching.decode_tokens
    << ", \"capacity_qps\": " << batching.capacity_qps
    << ", \"wall_s\": " << batching.wall_s
    << ", \"requests_per_s\": " << batching.requests_per_s << ",\n     \"points\": [\n";
  for (std::size_t i = 0; i < batching.points.size(); ++i) {
    const ContinuousBatchingPoint& p = batching.points[i];
    f << "       {\"capacity_x\": " << p.capacity_x
      << ", \"offered_qps\": " << p.offered_qps;
    write_decode_mode_fields(f, "mono", p.mono);
    write_decode_mode_fields(f, "cont", p.cont);
    f << ", \"ttft_ratio\": " << p.ttft_ratio << "}"
      << (i + 1 < batching.points.size() ? "," : "") << "\n";
  }
  f << "     ]}\n";
  f << "  ],\n  \"hybrid_fleet\": [\n";
  f << "    {\"label\": \"" << hybrid.label << "\", \"requests\": " << hybrid.requests
    << ", \"fleet\": " << hybrid.fleet << ", \"capacity_qps\": " << hybrid.capacity_qps
    << ", \"wall_s\": " << hybrid.wall_s
    << ", \"requests_per_s\": " << hybrid.requests_per_s << ",\n     \"points\": [\n";
  for (std::size_t i = 0; i < hybrid.points.size(); ++i) {
    const HybridFleetPoint& p = hybrid.points[i];
    f << "       {\"fleet_label\": \"" << p.fleet_label
      << "\", \"capacity_x\": " << p.capacity_x << ", \"offered_qps\": " << p.offered_qps
      << ", \"completed\": " << p.completed
      << ", \"p99_latency_s\": " << p.p99_latency_s
      << ", \"goodput_qps\": " << p.goodput_qps
      << ", \"slo_attainment\": " << p.slo_attainment
      << ", \"tier0_attainment\": " << p.tier0_attainment
      << ", \"mean_ttft_s\": " << p.mean_ttft_s
      << ", \"tokens_per_s\": " << p.tokens_per_s
      << ", \"energy_per_request_j\": " << p.energy_per_request_j
      << ", \"fleet_cost_usd\": " << p.fleet_cost_usd
      << ", \"cost_per_request_usd\": " << p.cost_per_request_usd << "}"
      << (i + 1 < hybrid.points.size() ? "," : "") << "\n";
  }
  f << "     ]}\n";
  f << "  ],\n  \"overload_faults\": [\n";
  write_indented_campaign(f, overload.config, overload.points);
  f << "\n  ],\n  \"campaigns\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    write_indented_campaign(f, scenarios[i].config, scenarios[i].points);
    f << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return static_cast<bool>(f);
}

// Elastic scenario: the mixed TRON+GHOST catalog with two-tier priorities,
// starting from a deliberately undersized 2-slot fleet under bursty traffic
// sized for 4 slots — the static point saturates, the autoscaling points must
// grow into the load.  One campaign sweeps the policy axis; the headline
// times the queue-depth policy end to end.
std::pair<ScenarioResult, Headline> run_elastic_scenario(bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::mixed_default();
  catalog.apply_default_tiers();
  const std::vector<std::string> fleet_template{"tron", "ghost"};
  const std::size_t initial_fleet = 2;
  const std::size_t max_batch = 8;
  // Size the load for a 4-slot fleet: ~2x what the initial slots sustain.
  const double capacity4 =
      serve::fleet_capacity_qps(catalog, serve::FleetConfig::cycled(fleet_template, 4),
                                max_batch);

  ScenarioResult out;
  serve::CampaignConfig cfg;
  cfg.name = "TRON+GHOST elastic policy sweep";
  cfg.fleet_template = fleet_template;
  cfg.qps = {0.5 * capacity4, 0.8 * capacity4};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {initial_fleet};
  cfg.max_batches = {max_batch};
  cfg.autoscalers = {serve::AutoscalerPolicy::kNone, serve::AutoscalerPolicy::kQueueDepth,
                     serve::AutoscalerPolicy::kTargetUtilization};
  cfg.autoscale.max_slots = 6;  // per family: up to 12 slots total
  cfg.process = serve::ArrivalProcess::kBursty;
  cfg.requests_per_point = smoke ? 10000 : 200000;
  cfg.seed = 13;
  out.points = serve::run_campaign(cfg, catalog);
  out.config = cfg;

  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled(fleet_template, initial_fleet);
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.sim.autoscaler.policy = serve::AutoscalerPolicy::kQueueDepth;
  scenario.sim.autoscaler.max_slots = 6;
  scenario.traffic.open.offered_qps = 0.8 * capacity4;
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.process = serve::ArrivalProcess::kBursty;
  scenario.traffic.open.seed = 19;
  return {out, run_headline("TRON+GHOST elastic", scenario)};
}

// Overload + faults scenario: a TRON fleet driven from half to 4x its
// capacity with per-slot fault injection, per-tenant timeouts, and bounded
// retries, comparing no admission control against tier-aware shedding.  The
// catalog is a small tier-0 premium tenant (its own SLO contract) over a
// tier-1 bulk: the bulk "bert" tenant has no timeout (batch work waits
// forever), so under 2x overload the no-admission points honestly collapse —
// every bulk request completes far past the SLO and stays in the attainment
// pool instead of vanishing as a timeout.  The "gpt2" tenant models
// impatient clients (timeout + retries with backoff), exercising the retry
// path under overload.  Tier-shed admission keeps queues bounded, so the
// premium tenant's attainment holds while tier-1 work is refused early.
ScenarioResult run_overload_faults_scenario(bool smoke) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.25);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);

  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const double capacity = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled({"tron"}, fleet), max_batch);
  // The tier-1 SLO mirrors the simulator's fallback (slo_scale x slowest
  // batch-1 latency); the premium tenant's contract is 3x that — loose
  // enough that its partial batches (it is ~2.5% of traffic, so its batches
  // dispatch at the deadline, not full) meet it on a healthy fleet, tight
  // enough that an unbounded queue would blow through it.
  const serve::EstimateCache cache("tron", catalog);
  double slowest = 0.0;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    slowest = std::max(slowest, cache.estimate(w, 1).latency_s);
  }
  const double slo_s = 10.0 * slowest;
  catalog.set_slo(0, 3.0 * slo_s);
  catalog.set_timeout(2, 15.0 * slo_s);  // impatient gpt2 clients

  ScenarioResult out;
  serve::CampaignConfig cfg;
  cfg.name = "TRON overload + faults";
  cfg.fleet_template = {"tron"};
  cfg.qps = {0.5 * capacity, 1.0 * capacity, 2.0 * capacity, 4.0 * capacity};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {fleet};
  cfg.max_batches = {max_batch};
  cfg.admissions = {serve::AdmissionPolicy::kNone, serve::AdmissionPolicy::kTierShed};
  cfg.fault_mtbfs_s = {50e-3};  // a handful of failures per slot per run
  cfg.faults.mttr_s = 5e-3;
  cfg.retry.max_attempts = 3;
  cfg.requests_per_point = smoke ? 20000 : 100000;
  cfg.seed = 29;
  out.points = serve::run_campaign(cfg, catalog);
  out.config = cfg;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  std::vector<ScenarioResult> scenarios;
  std::vector<Headline> headlines;
  const serve::WorkloadCatalog ghost = serve::WorkloadCatalog::ghost_default();
  const serve::WorkloadCatalog mixed = serve::WorkloadCatalog::mixed_default();
  scenarios.push_back(
      run_sweep("TRON", {"tron"}, serve::WorkloadCatalog::tron_default(), smoke));
  scenarios.push_back(run_sweep("GHOST", {"ghost"}, ghost, smoke));
  scenarios.push_back(run_sweep("TRON+GHOST mixed", {"tron", "ghost"}, mixed, smoke));
  headlines.push_back(run_headline("GHOST", knee_scenario({"ghost"}, 4, ghost, smoke)));
  headlines.push_back(
      run_headline("TRON+GHOST mixed", knee_scenario({"tron", "ghost"}, 4, mixed, smoke)));
  auto [elastic, elastic_headline] = run_elastic_scenario(smoke);
  scenarios.push_back(std::move(elastic));
  headlines.push_back(std::move(elastic_headline));
  const ClosedLoopResult closed = run_closed_loop_scenario(smoke);
  const ScenarioResult overload = run_overload_faults_scenario(smoke);
  const ObserverOverhead observer = run_observer_overhead(smoke);
  const ShardedResult sharded = run_sharded_scenario(smoke);
  const ContinuousBatchingResult batching = run_continuous_batching_scenario(smoke);
  const HybridFleetResult hybrid = run_hybrid_fleet_scenario(smoke);

  for (const ScenarioResult& s : scenarios) {
    serve::campaign_table(s.points, s.config.name).print(std::cout);
  }
  for (const Headline& h : headlines) {
    std::printf("%s headline: %zu requests / %zu accelerators in %.3f s (%.0f req/s, "
                "p99 %.1f us, goodput %.0f QPS)\n",
                h.fleet_label.c_str(), h.requests, h.fleet, h.wall_s, h.requests_per_s,
                h.p99_latency_s * 1e6, h.goodput_qps);
  }
  std::printf("\n");
  closed.metrics.to_table(closed.label).print(std::cout);
  std::printf("%s: %zu sessions x %zu requests in %.3f s (%.0f req/s, "
              "p99 session %.2f ms)\n\n",
              closed.label.c_str(), closed.metrics.sessions,
              closed.config.requests_per_session, closed.wall_s, closed.requests_per_s,
              closed.metrics.p99_session_s * 1e3);
  serve::campaign_table(overload.points, overload.config.name).print(std::cout);
  std::printf("%s: %zu requests, %zu alternating pairs: unobserved median %.3f s (%.0f "
              "req/s) vs observed (trace 1/64 + timeline) %.3f s (%.0f req/s): overhead "
              "median %.1f%% [quartiles %.1f%%, %.1f%%], %zu request events, %zu batch "
              "spans, %zu windows\n\n",
              observer.label.c_str(), observer.requests, observer.pairs, observer.off_wall_s,
              observer.off_requests_per_s, observer.on_wall_s, observer.on_requests_per_s,
              100.0 * observer.overhead_fraction, 100.0 * observer.overhead_fraction_q1,
              100.0 * observer.overhead_fraction_q3, observer.request_events,
              observer.batch_spans, observer.timeline_windows);
  std::printf("%s: %zu requests / %zu slots; serial p99 %.1f us, goodput %.0f QPS\n",
              sharded.label.c_str(), sharded.requests, sharded.fleet,
              sharded.serial_p99_latency_s * 1e6, sharded.serial_goodput_qps);
  for (const ShardedPoint& p : sharded.points) {
    std::printf("  cells=%zu: p99 %.1f us, goodput %.0f QPS\n", p.cells,
                p.p99_latency_s * 1e6, p.goodput_qps);
  }
  std::printf("  scale: %zu requests / %zu cells (hdr percentiles) in %.3f s "
              "(%.0f req/s, p99 %.1f us)\n\n",
              sharded.scale_requests, sharded.scale_cells, sharded.scale_wall_s,
              sharded.scale_requests_per_s, sharded.scale_p99_latency_s * 1e6);
  std::printf("%s: %zu requests, %zu-slot fleet, lognormal decode (median %zu tokens), "
              "capacity %.0f QPS, %.3f s total\n",
              batching.label.c_str(), batching.requests, batching.fleet,
              batching.decode_tokens, batching.capacity_qps, batching.wall_s);
  for (const ContinuousBatchingPoint& p : batching.points) {
    std::printf("  %.1fx capacity: mean TTFT %.1f us (monolithic) -> %.1f us "
                "(continuous, %.2fx better); mean TPOT %.1f -> %.1f us; "
                "tokens/s %.0f -> %.0f\n",
                p.capacity_x, p.mono.mean_ttft_s * 1e6, p.cont.mean_ttft_s * 1e6,
                p.ttft_ratio, p.mono.mean_tpot_s * 1e6, p.cont.mean_tpot_s * 1e6,
                p.mono.tokens_per_s, p.cont.tokens_per_s);
  }
  std::printf("\n");
  std::printf("%s: %zu requests/fleet, %zu slots, hybrid capacity %.0f QPS, %.3f s total\n",
              hybrid.label.c_str(), hybrid.requests, hybrid.fleet, hybrid.capacity_qps,
              hybrid.wall_s);
  for (const HybridFleetPoint& p : hybrid.points) {
    std::printf("  %-17s %.1fx: tier0 %.3f, goodput %.0f QPS, mean TTFT %.1f us, "
                "%.3f uJ/req, $%.3g/req\n",
                p.fleet_label.c_str(), p.capacity_x, p.tier0_attainment, p.goodput_qps,
                p.mean_ttft_s * 1e6, p.energy_per_request_j * 1e6,
                p.cost_per_request_usd);
  }
  std::printf("\n");
  if (!write_json(scenarios, headlines, closed, overload, observer, sharded, batching, hybrid,
                  out_path, smoke)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
