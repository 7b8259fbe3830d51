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
// serve::ClosedLoopSource.  Throughput of the serial and sharded TRON paths,
// and of the closed-loop, continuous-batching and hybrid paths
// (serve_hybrid_closed), is fleetbench's job (medians, provenance, a
// ledger); monolithic decode, which only continuous_batching runs here, is
// timed nowhere.  The simulated results here are gated field by field by
// tools/bench_check.py.
// Self-contained like bench_kernels (steady_clock, no framework); each
// section prints its table or summary and writes its BENCH_serve.json object
// (through common/json's JsonWriter) as it runs.
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
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
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

// One timed simulate (trace generation plus the event loop), written as one
// headline object.
void write_headline(JsonWriter& w, const std::string& label, const serve::Scenario& scenario) {
  const std::size_t requests = scenario.traffic.open.request_count;
  const std::size_t fleet = scenario.fleet.accelerators.size();
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate(scenario);
  const double wall_s = seconds_since(t0);
  const double requests_per_s = static_cast<double>(requests) / wall_s;
  std::printf("%s headline: %zu requests / %zu accelerators in %.3f s (%.0f req/s, "
              "p99 %.1f us, goodput %.0f QPS)\n",
              label.c_str(), requests, fleet, wall_s, requests_per_s, m.p99_latency_s * 1e6,
              m.goodput_qps);
  w.begin_object()
      .field("fleet_label", label)
      .field("requests", requests)
      .field("fleet", fleet)
      .field("wall_s", wall_s)
      .field("requests_per_s", requests_per_s)
      .field("p99_latency_s", m.p99_latency_s)
      .field("goodput_qps", m.goodput_qps)
      .end();
}

// Runs one campaign, prints its table and writes its JSON object.
void write_campaign(JsonWriter& w, const serve::CampaignConfig& config) {
  const std::vector<serve::CampaignPoint> points = serve::run_campaign(config);
  serve::campaign_table(points, config.name).print(std::cout);
  serve::write_campaign_json(w, config, points);
}

// One fleet's knee sweep: below / near / past the batched knee (FIFO
// saturates far earlier, which is exactly the point of the comparison).
serve::CampaignConfig sweep_campaign(const std::string& label,
                                     const std::vector<std::string>& fleet_template,
                                     const serve::WorkloadCatalog& catalog, bool smoke) {
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const double capacity = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled(fleet_template, fleet), max_batch);
  serve::CampaignConfig cfg;
  cfg.name = label + " saturation sweep";
  cfg.base.catalog = catalog;
  cfg.base.traffic.open.request_count = smoke ? 10000 : 200000;
  cfg.base.traffic.open.seed = 7;
  cfg.fleet_templates = {fleet_template};
  cfg.qps = {0.5 * capacity, 0.8 * capacity, 1.1 * capacity};
  cfg.schedulers = {serve::SchedulerKind::kFifo, serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {fleet};
  cfg.max_batches = {max_batch};
  return cfg;
}

// Closed-loop scenario: the mixed TRON+GHOST catalog served to a pool of
// client sessions (each pinned to one tenant, issuing request -> completion
// -> exponential think -> next request) with log-normal per-request sequence
// lengths on the transformer tenants.  Arrival rate is set by service speed
// instead of an offered QPS; the result records end-to-end session latency.
void write_closed_loop(JsonWriter& w, bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::mixed_default();
  catalog.apply_seqlen_dist(serve::SeqLenDist::kLogNormal);
  const std::string label = "TRON+GHOST closed-loop";
  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled({"tron", "ghost"}, 4);
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.traffic.mode = serve::LoopMode::kClosed;
  serve::ClosedLoopConfig& closed = scenario.traffic.closed;
  closed.sessions = smoke ? 64 : 512;
  closed.requests_per_session = smoke ? 50 : 200;
  closed.think_time_mean_s = 2e-3;
  closed.seed = 23;
  const serve::FleetMetrics m = serve::simulate(scenario);
  m.to_table(label).print(std::cout);
  std::printf("%s: %zu sessions x %zu requests (p99 session %.2f ms)\n\n", label.c_str(),
              m.sessions, closed.requests_per_session, m.p99_session_s * 1e3);
  w.begin_object()
      .field("label", label)
      .field("sessions", m.sessions)
      .field("requests_per_session", closed.requests_per_session)
      .field("think_time_mean_s", closed.think_time_mean_s)
      .field("completed", m.completed)
      .field("throughput_qps", m.throughput_qps)
      .field("goodput_qps", m.goodput_qps)
      .field("slo_attainment", m.slo_attainment)
      .field("p50_latency_s", m.p50_latency_s)
      .field("p99_latency_s", m.p99_latency_s)
      .field("mean_session_s", m.mean_session_s)
      .field("p50_session_s", m.p50_session_s)
      .field("p99_session_s", m.p99_session_s)
      .field("max_session_s", m.max_session_s)
      .field("mean_batch", m.mean_batch_size)
      .field("estimate_lookups", m.estimate_lookups)
      .field("estimate_misses", m.estimate_misses)
      .end();
}

// Observer-overhead comparison: the TRON knee scenario run unobserved and
// with the tracer (sampled) and timeline enabled, in alternating pairs so
// host drift lands on both sides alike.  Observers must never change results
// (p99/goodput parity is gated by bench_check.py) and must stay cheap: the
// median per-pair overhead is gated too, and its quartiles are reported as
// info.
void write_observer_overhead(JsonWriter& w, bool smoke) {
  const std::string label = "TRON observed";
  const serve::Scenario off_scenario =
      knee_scenario({"tron"}, 4, serve::WorkloadCatalog::tron_default(), smoke);
  const std::size_t requests = off_scenario.traffic.open.request_count;
  const double trace_sample = 1.0 / 64.0;
  const std::size_t pairs = 5;

  // The gated overhead is the cost of *passive* observation (sampled tracing
  // + windowed timelines), the configuration a production-style run would
  // leave on.  The event-loop profiler is excluded: it reads steady_clock
  // several times per loop iteration by design (self-measurement), and its
  // cost is reported in its own table rather than gated here.
  serve::Scenario on_scenario = off_scenario;
  on_scenario.observe.trace.enabled = true;
  on_scenario.observe.trace.sample = trace_sample;
  on_scenario.observe.timeline.enabled = true;
  on_scenario.observe.timeline.window_s = 1e-3;

  // The simulations are deterministic (identical metrics every pair); only
  // the timing varies.
  std::vector<double> off_walls, on_walls, overheads;
  serve::FleetMetrics off, on;
  serve::Observation obs;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
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
  const double off_wall_s = quantile(off_walls, 0.5);
  const double on_wall_s = quantile(on_walls, 0.5);
  const double off_requests_per_s = static_cast<double>(requests) / off_wall_s;
  const double on_requests_per_s = static_cast<double>(requests) / on_wall_s;
  const double overhead = quantile(overheads, 0.5);
  const double overhead_q1 = quantile(overheads, 0.25);
  const double overhead_q3 = quantile(overheads, 0.75);
  const serve::LifecycleTracer& tracer = *obs.tracer;
  std::printf("%s: %zu requests, %zu alternating pairs: unobserved median %.3f s (%.0f "
              "req/s) vs observed (trace 1/64 + timeline) %.3f s (%.0f req/s): overhead "
              "median %.1f%% [quartiles %.1f%%, %.1f%%], %zu request events, %zu batch "
              "spans, %zu windows\n\n",
              label.c_str(), requests, pairs, off_wall_s, off_requests_per_s, on_wall_s,
              on_requests_per_s, 100.0 * overhead, 100.0 * overhead_q1, 100.0 * overhead_q3,
              tracer.request_events().size(), tracer.batch_spans().size(),
              obs.timeline->windows().size());
  w.begin_object()
      .field("label", label)
      .field("requests", requests)
      .field("trace_sample", trace_sample)
      .field("pairs", pairs)
      .field("off_wall_s", off_wall_s)
      .field("off_requests_per_s", off_requests_per_s)
      .field("on_wall_s", on_wall_s)
      .field("on_requests_per_s", on_requests_per_s)
      .field("overhead_fraction", overhead)
      .field("overhead_fraction_q1", overhead_q1)
      .field("overhead_fraction_q3", overhead_q3)
      .field("off_p99_latency_s", off.p99_latency_s)
      .field("on_p99_latency_s", on.p99_latency_s)
      .field("off_goodput_qps", off.goodput_qps)
      .field("on_goodput_qps", on.goodput_qps)
      .field("sampled_requests", tracer.sampled_requests())
      .field("request_events", tracer.request_events().size())
      .field("batch_spans", tracer.batch_spans().size())
      .field("timeline_windows", obs.timeline->windows().size())
      .end();
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
void write_sharded(JsonWriter& w, bool smoke) {
  const std::string label = "TRON sharded";
  const serve::Scenario scenario =
      knee_scenario({"tron"}, 16, serve::WorkloadCatalog::tron_default(), smoke);
  const std::size_t requests = scenario.traffic.open.request_count;
  const std::size_t fleet = scenario.fleet.accelerators.size();
  const serve::FleetMetrics serial = serve::simulate(scenario);
  std::printf("%s: %zu requests / %zu slots; serial p99 %.1f us, goodput %.0f QPS\n",
              label.c_str(), requests, fleet, serial.p99_latency_s * 1e6, serial.goodput_qps);
  w.begin_object()
      .field("label", label)
      .field("requests", requests)
      .field("fleet", fleet)
      .field("serial_completed", serial.completed)
      .field("serial_p99_latency_s", serial.p99_latency_s)
      .field("serial_goodput_qps", serial.goodput_qps)
      .begin_array("points");
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    const serve::FleetMetrics m = serve::simulate_sharded(scenario, cells);
    std::printf("  cells=%zu: p99 %.1f us, goodput %.0f QPS\n", cells, m.p99_latency_s * 1e6,
                m.goodput_qps);
    w.begin_object()
        .field("cells", cells)
        .field("completed", m.completed)
        .field("p99_latency_s", m.p99_latency_s)
        .field("goodput_qps", m.goodput_qps)
        .end();
  }
  w.end();

  // The 10M-request scale run: HDR percentile sketches keep latency memory
  // bounded (exact mode would retain every sample), 8 cells split the work.
  serve::Scenario scale = scenario;
  scale.sim.percentile_mode = serve::PercentileMode::kHdr;
  scale.traffic.open.request_count = smoke ? 100000 : 10000000;
  const std::size_t scale_requests = scale.traffic.open.request_count;
  const std::size_t scale_cells = 8;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate_sharded(scale, scale_cells);
  const double scale_wall_s = seconds_since(t0);
  const double scale_requests_per_s = static_cast<double>(scale_requests) / scale_wall_s;
  std::printf("  scale: %zu requests / %zu cells (hdr percentiles) in %.3f s "
              "(%.0f req/s, p99 %.1f us)\n\n",
              scale_requests, scale_cells, scale_wall_s, scale_requests_per_s,
              m.p99_latency_s * 1e6);
  w.field("scale_requests", scale_requests)
      .field("scale_cells", scale_cells)
      .field("scale_wall_s", scale_wall_s)
      .field("scale_requests_per_s", scale_requests_per_s)
      .field("scale_completed", m.completed)
      .field("scale_p99_latency_s", m.p99_latency_s)
      .field("scale_goodput_qps", m.goodput_qps)
      .end();
}

// Continuous-batching scenario: the TRON catalog with log-normal decode
// lengths (median 32 tokens) and per-token SLOs, served at 1x and 2x its
// decode-aware capacity under both decode schedules.  Monolithic batching
// holds every lane until the batch's longest decode finishes (the
// static-batching baseline), so waiting prefills eat head-of-line TTFT;
// continuous batching admits them into freed lanes at token boundaries.  The
// acceptance contract — continuous mean TTFT no worse than monolithic at
// every load — is gated in-file by bench_check.py; the per-mode simulated
// metrics are deterministic (det tolerance).  fleetbench's
// serve_hybrid_closed times token steps under continuous batching; no
// fleetbench workload runs the monolithic mode, so its speed is unmeasured.
void write_continuous_batching(JsonWriter& w, bool smoke) {
  const std::string label = "TRON continuous batching";
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  const std::size_t decode_tokens = 32;
  catalog.apply_decode(serve::SeqLenDist::kLogNormal, decode_tokens);
  catalog.apply_token_slos(500e-6, 100e-6);
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled({"tron"}, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);
  const std::size_t requests = smoke ? 20000 : 200000;
  const std::vector<double> loads{1.0, 2.0};

  // Monolithic then continuous at each load.
  std::vector<serve::FleetMetrics> runs;
  for (const double x : loads) {
    for (const serve::DecodeMode mode :
         {serve::DecodeMode::kMonolithic, serve::DecodeMode::kContinuous}) {
      serve::Scenario scenario;
      scenario.fleet = fleet_cfg;
      scenario.catalog = catalog;
      scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
      scenario.batch.max_batch = max_batch;
      scenario.sim.decode_mode = mode;
      scenario.traffic.open.offered_qps = x * capacity;
      scenario.traffic.open.request_count = requests;
      scenario.traffic.open.seed = 37;
      runs.push_back(serve::simulate(scenario));
    }
  }
  std::printf("%s: %zu requests, %zu-slot fleet, lognormal decode (median %zu tokens), "
              "capacity %.0f QPS\n",
              label.c_str(), requests, fleet, decode_tokens, capacity);
  w.begin_object()
      .field("label", label)
      .field("requests", requests)
      .field("fleet", fleet)
      .field("decode_tokens", decode_tokens)
      .field("capacity_qps", capacity)
      .begin_array("points");
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const serve::FleetMetrics& mono = runs[2 * i];
    const serve::FleetMetrics& cont = runs[2 * i + 1];
    // >= 1: continuous batching wins.
    const double ttft_ratio = cont.mean_ttft_s > 0.0 ? mono.mean_ttft_s / cont.mean_ttft_s : 0.0;
    std::printf("  %.1fx capacity: mean TTFT %.1f us (monolithic) -> %.1f us "
                "(continuous, %.2fx better); mean TPOT %.1f -> %.1f us; "
                "tokens/s %.0f -> %.0f\n",
                loads[i], mono.mean_ttft_s * 1e6, cont.mean_ttft_s * 1e6, ttft_ratio,
                mono.mean_tpot_s * 1e6, cont.mean_tpot_s * 1e6, mono.tokens_per_s,
                cont.tokens_per_s);
    w.begin_object().field("capacity_x", loads[i]).field("offered_qps", loads[i] * capacity);
    for (std::size_t k = 0; k < 2; ++k) {
      const serve::FleetMetrics& m = runs[2 * i + k];
      const std::string prefix = k == 0 ? "mono_" : "cont_";
      w.field(prefix + "mean_ttft_s", m.mean_ttft_s)
          .field(prefix + "p95_ttft_s", m.p95_ttft_s)
          .field(prefix + "mean_tpot_s", m.mean_tpot_s)
          .field(prefix + "p95_tpot_s", m.p95_tpot_s)
          .field(prefix + "tokens_per_s", m.tokens_per_s)
          .field(prefix + "p99_latency_s", m.p99_latency_s)
          .field(prefix + "goodput_qps", m.goodput_qps)
          .field(prefix + "ttft_attainment", m.ttft_attainment)
          .field(prefix + "decode_occupancy", m.mean_decode_occupancy);
    }
    w.field("ttft_ratio", ttft_ratio).end();
  }
  w.end().end();
  std::printf("\n");
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
void write_hybrid_fleet(JsonWriter& w, bool smoke) {
  const std::string label = "hybrid fleet TCO";
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
    for (std::uint32_t t = 0; t < catalog.size(); ++t) {
      const auto ctx = static_cast<std::uint32_t>(
          catalog.workload(t).transformer_config().seq_len);
      const double per_request_s = ref.estimate(t, 1).latency_s +
                                   31.0 * ref.decode_step(t, 1, ctx).latency_s;
      catalog.set_slo(t, 10.0 * per_request_s);
    }
  }

  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const std::vector<std::pair<std::string, std::vector<std::string>>> fleets{
      {"photonic tron", {"tron"}},
      {"electronic v100", {"v100"}},
      {"hybrid tron+v100", {"tron", "v100"}},
  };
  const std::vector<double> loads{1.0, 2.0};
  // Every fleet is offered multiples of the *hybrid* fleet's capacity, so the
  // three fleets answer the same demand.
  const double capacity = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled({"tron", "v100"}, fleet), max_batch);
  const std::size_t requests = smoke ? 20000 : 200000;

  // 3 fleets x 2 loads, fleet-major.
  std::vector<serve::FleetMetrics> runs;
  for (const auto& [fleet_label, fleet_template] : fleets) {
    for (const double x : loads) {
      serve::Scenario scenario;
      scenario.fleet = serve::FleetConfig::cycled(fleet_template, fleet,
                                                  serve::RoutingPolicy::kCostAware);
      scenario.catalog = catalog;
      scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
      scenario.batch.max_batch = max_batch;
      scenario.traffic.open.offered_qps = x * capacity;
      scenario.traffic.open.request_count = requests;
      scenario.traffic.open.seed = 37;
      runs.push_back(serve::simulate(scenario));
    }
  }
  std::printf("%s: %zu requests/fleet, %zu slots, hybrid capacity %.0f QPS\n", label.c_str(),
              requests, fleet, capacity);
  w.begin_object()
      .field("label", label)
      .field("requests", requests)
      .field("fleet", fleet)
      .field("capacity_qps", capacity)
      .begin_array("points");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const serve::FleetMetrics& m = runs[i];
    const std::string& fleet_label = fleets[i / loads.size()].first;
    const double x = loads[i % loads.size()];
    // The premium tenant's own SLO attainment.
    const double tier0_attainment = m.tenants.front().slo_attainment;
    std::printf("  %-17s %.1fx: tier0 %.3f, goodput %.0f QPS, mean TTFT %.1f us, "
                "%.3f uJ/req, $%.3g/req\n",
                fleet_label.c_str(), x, tier0_attainment, m.goodput_qps, m.mean_ttft_s * 1e6,
                m.energy_per_request_j * 1e6, m.cost_per_request_usd);
    w.begin_object()
        .field("fleet_label", fleet_label)
        .field("capacity_x", x)
        .field("offered_qps", x * capacity)
        .field("completed", m.completed)
        .field("p99_latency_s", m.p99_latency_s)
        .field("goodput_qps", m.goodput_qps)
        .field("slo_attainment", m.slo_attainment)
        .field("tier0_attainment", tier0_attainment)
        .field("mean_ttft_s", m.mean_ttft_s)
        .field("tokens_per_s", m.tokens_per_s)
        .field("energy_per_request_j", m.energy_per_request_j)
        .field("fleet_cost_usd", m.fleet_cost_usd)
        .field("cost_per_request_usd", m.cost_per_request_usd)
        .end();
  }
  w.end().end();
  std::printf("\n");
}

// Elastic scenario: the mixed TRON+GHOST catalog with two-tier priorities,
// starting from a deliberately undersized 2-slot fleet under bursty traffic
// sized for 4 slots — the static point saturates, the autoscaling points must
// grow into the load.  A campaign sweeps the policy axis; the headline times
// the queue-depth policy end to end at the campaign's heavier load.
serve::CampaignConfig elastic_campaign(const serve::WorkloadCatalog& catalog, bool smoke) {
  const std::vector<std::string> fleet_template{"tron", "ghost"};
  const std::size_t max_batch = 8;
  // Size the load for a 4-slot fleet: ~2x what the initial slots sustain.
  const double capacity4 = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled(fleet_template, 4), max_batch);
  serve::CampaignConfig cfg;
  cfg.name = "TRON+GHOST elastic policy sweep";
  cfg.base.catalog = catalog;
  cfg.base.sim.autoscaler.max_slots = 6;  // per family: up to 12 slots total
  cfg.base.traffic.open.process = serve::ArrivalProcess::kBursty;
  cfg.base.traffic.open.request_count = smoke ? 10000 : 200000;
  cfg.base.traffic.open.seed = 13;
  cfg.fleet_templates = {fleet_template};
  cfg.qps = {0.5 * capacity4, 0.8 * capacity4};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {max_batch};
  cfg.autoscalers = {serve::AutoscalerPolicy::kNone, serve::AutoscalerPolicy::kQueueDepth,
                     serve::AutoscalerPolicy::kTargetUtilization};
  return cfg;
}

serve::Scenario elastic_headline(const serve::CampaignConfig& cfg, bool smoke) {
  serve::Scenario scenario = cfg.base;
  scenario.fleet =
      serve::FleetConfig::cycled(cfg.fleet_templates.front(), cfg.fleet_sizes.front());
  scenario.batch.max_batch = cfg.max_batches.front();
  scenario.sim.autoscaler.policy = serve::AutoscalerPolicy::kQueueDepth;
  scenario.traffic.open.offered_qps = cfg.qps.back();
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.seed = 19;
  return scenario;
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
void write_overload_faults(JsonWriter& w, bool smoke) {
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
  // The tier-1 SLO mirrors the simulator's fallback (kSloScale x slowest
  // batch-1 latency); the premium tenant's contract is 3x that — loose
  // enough that its partial batches (it is ~2.5% of traffic, so its batches
  // dispatch at the deadline, not full) meet it on a healthy fleet, tight
  // enough that an unbounded queue would blow through it.
  const serve::EstimateCache cache("tron", catalog);
  double slowest = 0.0;
  for (std::uint32_t t = 0; t < catalog.size(); ++t) {
    slowest = std::max(slowest, cache.estimate(t, 1).latency_s);
  }
  const double slo_s = serve::kSloScale * slowest;
  catalog.set_slo(0, 3.0 * slo_s);
  catalog.set_timeout(2, 15.0 * slo_s);  // impatient gpt2 clients

  serve::CampaignConfig cfg;
  cfg.name = "TRON overload + faults";
  cfg.base.catalog = catalog;
  cfg.base.sim.faults.mttr_s = 5e-3;
  cfg.base.sim.retry.max_attempts = 3;
  cfg.base.traffic.open.request_count = smoke ? 20000 : 100000;
  cfg.base.traffic.open.seed = 29;
  cfg.qps = {0.5 * capacity, 1.0 * capacity, 2.0 * capacity, 4.0 * capacity};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {fleet};
  cfg.max_batches = {max_batch};
  cfg.admissions = {serve::AdmissionPolicy::kNone, serve::AdmissionPolicy::kTierShed};
  cfg.fault_mtbfs_s = {50e-3};  // a handful of failures per slot per run
  write_campaign(w, cfg);
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

  // Each section writes its object as it runs, in the file's key order.
  std::ofstream f(out_path);
  const std::size_t threads = ThreadPool::global().thread_count();
  const serve::WorkloadCatalog tron = serve::WorkloadCatalog::tron_default();
  const serve::WorkloadCatalog ghost = serve::WorkloadCatalog::ghost_default();
  const serve::WorkloadCatalog mixed = serve::WorkloadCatalog::mixed_default();
  serve::WorkloadCatalog elastic = mixed;
  elastic.apply_default_tiers();
  const serve::CampaignConfig elastic_cfg = elastic_campaign(elastic, smoke);
  JsonWriter w(f);
  w.begin_object().field("bench", "serve");
  write_provenance(w, threads);
  w.field("smoke", smoke).field("threads", threads).begin_array("observer_overhead");
  write_observer_overhead(w, smoke);
  w.end().begin_array("sharded");
  write_sharded(w, smoke);
  w.end().begin_array("headlines");
  write_headline(w, "GHOST", knee_scenario({"ghost"}, 4, ghost, smoke));
  write_headline(w, "TRON+GHOST mixed", knee_scenario({"tron", "ghost"}, 4, mixed, smoke));
  write_headline(w, "TRON+GHOST elastic", elastic_headline(elastic_cfg, smoke));
  std::printf("\n");
  w.end().begin_array("closed_loop");
  write_closed_loop(w, smoke);
  w.end().begin_array("continuous_batching");
  write_continuous_batching(w, smoke);
  w.end().begin_array("hybrid_fleet");
  write_hybrid_fleet(w, smoke);
  w.end().begin_array("overload_faults");
  write_overload_faults(w, smoke);
  w.end().begin_array("campaigns");
  write_campaign(w, sweep_campaign("TRON", {"tron"}, tron, smoke));
  write_campaign(w, sweep_campaign("GHOST", {"ghost"}, ghost, smoke));
  write_campaign(w, sweep_campaign("TRON+GHOST mixed", {"tron", "ghost"}, mixed, smoke));
  write_campaign(w, elastic_cfg);
  w.end().end();
  f.close();
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
