// lumos_cli — command-line front end for quick what-if studies and serving
// campaigns, routed through the `arch` accelerator abstraction.
//
// Usage:
//   lumos_cli [--json] list
//   lumos_cli [--json] tron  <model>  [seq_len] [batch]
//   lumos_cli [--json] ghost <model>  <dataset>
//   lumos_cli [--json] generate <model> <prompt_len> <tokens>
//   lumos_cli [--json] serve <tron|ghost|mixed|spec[,spec...]> [serve flags]
//
//   list      prints the registry's workload, dataset, and accelerator spec
//             names plus the serve enums (processes, schedulers, routing,
//             autoscalers, loop modes, seqlen distributions) — the strings
//             every other mode accepts
//   <model>   tron:  bert-base | bert-large | gpt2 | vit | transformer
//             ghost: gcn | graphsage | gin | gat
//   <dataset> cora | citeseer | pubmed | arxiv
//
//   serve fleets:
//     tron    homogeneous TRON fleet over the transformer mix
//     ghost   homogeneous GHOST fleet over the GNN mix
//     mixed   alternating TRON+GHOST fleet over the combined mix with
//             kind-aware routing (multi-tenant serving)
//     spec[,spec...]  explicit registry spec names cycled across the slots —
//             full/eco variants ("tron,tron-eco"), hybrid photonic/electronic
//             fleets ("tron,v100", "a100", "tron,xeon@2.0").  The catalog
//             follows the kinds the specs serve: transformer-only, GNN-only,
//             or the combined mix (electronic platforms serve both)
//
//   serve flags:
//     --loop <m>         open | closed (default open): open-loop offered-QPS
//                        trace vs closed-loop client sessions that wait for
//                        each completion, think, then issue the next request
//     --qps <q>          open loop: offered QPS (default: 70% of unloaded
//                        fleet capacity)
//     --requests <n>     open loop: trace length; closed loop: total requests
//                        across all sessions (default 50000)
//     --sessions <n>     closed loop: concurrent client sessions (default 32)
//     --think-time-us <t> closed loop: mean exponential think time (default 2000)
//     --seqlen-dist <d>  fixed | uniform | lognormal: per-request sequence
//                        lengths for transformer tenants (default fixed;
//                        a GNN-only fleet has none)
//     --decode <n>       mean generated tokens per request on transformer
//                        tenants: each request runs a prefill then decodes
//                        token by token, with waiting prefills admitted into
//                        free batch lanes at token boundaries (continuous
//                        batching; see --decode-mode)
//     --decode-dist <d>  fixed | uniform | lognormal decode-length shape
//                        around --decode tokens (default fixed; needs --decode)
//     --decode-mode <m>  continuous | monolithic decode scheduling (default
//                        continuous; monolithic holds the batch to the longest
//                        decode — the static-batching baseline; needs --decode)
//     --ttft-slo-us <t>  time-to-first-token SLO on decoding tenants
//                        (needs --decode)
//     --tpot-slo-us <t>  time-per-output-token SLO on decoding tenants
//                        (needs --decode)
//     --fleet <n>        accelerators in the (initial) fleet (default 4)
//     --sched <s>        fifo | batch (default batch)
//     --max-batch <n>    dynamic-batch cap (default 8; not with --sched fifo)
//     --max-wait-us <w>  dynamic-batch deadline (default 2000; not with
//                        --sched fifo)
//     --bursty           open loop: MMPP arrivals instead of Poisson
//     --routing <r>      first-idle | energy-aware | cost-aware (default
//                        first-idle; cost-aware picks the cheapest idle slot
//                        still predicted to make the tenant's SLO)
//     --fleets <grid>    fleet-template campaign axis: semicolon-separated
//                        templates, each a comma-separated spec list
//                        ("tron;v100;tron,v100" compares photonic, electronic,
//                        and hybrid fleets in one table; open-loop sweeps only)
//     --usd-per-kwh <x>  marginal energy price in $/kWh (default 0.10)
//     --usd-per-watt-hour <x>  hosting $/W/h applied to a slot's static draw
//                        for its default $/slot-hour rate (default 0.01)
//     --slot-rate <spec=x>  pin an exact $/slot-hour for one spec name
//                        (repeatable; overrides the static-draw default; the
//                        spec must be one that a slot of the run uses)
//     --seed <s>         trace / session seed (default 1)
//     --priority         two-tier strict priorities over the workload mix
//                        (high-traffic tenants tier 0, the rest tier 1)
//     --autoscale <p>    none | queue | util: elastic fleet policy
//     --scale-interval-us <n>  autoscaler evaluation step (default 5000)
//     --min-fleet <n>    per-family slot floor under autoscaling (default 1)
//     --max-fleet <n>    per-family slot ceiling under autoscaling (default 64)
//     --grow-scale <x>   grown slots use the registry's "<spec>@<x>" variant
//     --mtbf-us <n>      per-slot mean time between failures (enables fault
//                        injection; failed slots abort their batch and requeue)
//     --mttr-us <n>      per-slot mean time to repair (default 1000;
//                        needs --mtbf-us)
//     --timeout-us <n>   per-request timeout on every tenant (cancels queued
//                        and in-flight work past the deadline)
//     --retries <n>      total attempts per request under timeouts, with
//                        exponential backoff (default 1: no retries;
//                        needs --timeout-us)
//     --admission <p>    none | queue-cap | tier-shed | slo-aware: admission
//                        control consulted at every arrival
//     --queue-cap <n>    queue bound for queue-cap / tier-shed admission
//                        (default 256; needs --admission queue-cap|tier-shed)
//     --percentiles <m>  exact | hdr: latency percentile computation (default
//                        exact); hdr uses a bounded-relative-error
//                        log-bucketed histogram (see --hdr-error)
//     --cells <k>        simulate the fleet as k independent cells in parallel
//                        (default 1: serial; k > 1 splits fleet/traffic/seeds
//                        per cell and merges metrics — statistically, not
//                        bit-, equivalent to serial; incompatible with
//                        observers)
//     --hdr-error <x>    hdr relative-error bound in (0, 1) (default 0.01;
//                        needs --percentiles hdr)
//     --trace-out <p>    write a Chrome trace_event JSON of the run to <p>
//                        (lifecycle tracer; open in chrome://tracing or
//                        https://ui.perfetto.dev)
//     --trace-sample <x> fraction of requests traced, in [0, 1] (default 1;
//                        needs --trace-out)
//     --timeline-out <p> write windowed time-series metrics to <p> (.json
//                        extension -> JSON, anything else -> CSV)
//     --window-us <n>    timeline window width in us (default 1000; needs
//                        --timeline-out)
//     --profile          event-loop self-profile (events + wall time per
//                        event source), printed as a table / JSON member
//
//   Observability (--trace-out / --timeline-out / --profile) runs a single
//   simulation instead of a campaign sweep; the open-loop scenario matches
//   campaign grid point 0 exactly (same derived seed), so the traced run
//   reproduces the first sweep point bit-for-bit.
//
//   --json anywhere switches to machine-readable output.
//
// Examples:
//   lumos_cli list
//   lumos_cli tron bert-base 256 8
//   lumos_cli ghost gat pubmed
//   lumos_cli generate gpt2 64 128
//   lumos_cli serve mixed --qps 40000 --fleet 6 --json
//   lumos_cli serve mixed --priority --autoscale queue --fleet 2 --max-fleet 8
//   lumos_cli serve mixed --loop closed --sessions 64 --think-time-us 500
//   lumos_cli serve tron --seqlen-dist lognormal --qps 20000
//   lumos_cli serve tron --decode 32 --decode-dist lognormal --ttft-slo-us 300
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/units.hpp"
#include "serve/campaign.hpp"
#include "serve/names.hpp"
#include "serve/observe.hpp"
#include "serve/shard.hpp"
#include "sim/registry.hpp"

namespace {

using namespace lumos;

void print_report(const PerfReport& r) {
  std::cout << r.platform << " / " << r.workload << ":\n"
            << "  latency        : " << units::to_us(r.latency_s) << " us\n"
            << "  throughput     : " << units::to_gops(r.ops_per_second()) << " GOPS\n"
            << "  energy per bit : " << units::to_pj(r.energy_per_bit_j()) << " pJ/bit\n"
            << "  total energy   : " << r.total_energy_j * 1e6 << " uJ\n"
            << "  average power  : " << r.average_power_w() << " W\n"
            << "  memory stall   : " << units::to_us(r.breakdown.memory_stall_s) << " us ("
            << 100.0 * r.breakdown.memory_stall_s / r.latency_s << " %)\n"
            << "  breakdown (stage: us / uJ):\n";
  for (const arch::BreakdownEntry& e : arch::breakdown_entries(r)) {
    if (e.time_s == 0.0 && e.energy_j == 0.0) continue;
    std::cout << "    " << e.stage << ": " << units::to_us(e.time_s) << " / "
              << e.energy_j * 1e6 << "\n";
  }
}

void print_report_json(const PerfReport& r) {
  JsonWriter w(std::cout);
  w.begin_object()
      .field("platform", r.platform)
      .field("workload", r.workload)
      .field("latency_s", r.latency_s)
      .field("ops_per_second", r.ops_per_second())
      .field("energy_per_bit_j", r.energy_per_bit_j())
      .field("dynamic_energy_j", r.dynamic_energy_j)
      .field("static_energy_j", r.static_energy_j)
      .field("total_energy_j", r.total_energy_j)
      .field("average_power_w", r.average_power_w())
      .field("op_count", r.op_count)
      .field("bits", r.bits)
      .field("memory_stall_s", r.breakdown.memory_stall_s)
      .begin_array("breakdown");
  for (const arch::BreakdownEntry& e : arch::breakdown_entries(r)) {
    w.begin_object()
        .field("stage", e.stage)
        .field("time_s", e.time_s)
        .field("energy_j", e.energy_j)
        .end();
  }
  w.end().end();
}

// Every accepted mode and flag must appear here: the arg parsers below throw
// on anything they do not recognise, and the thrown path funnels into this
// text with exit code 2 (tests/ci pin that).
int usage() {
  std::cerr << "usage:\n"
               "  lumos_cli [--json] list\n"
               "  lumos_cli [--json] tron  <" +
                   sim::joined_names(sim::transformer_names()) +
                   "> [seq] [batch]\n"
                   "  lumos_cli [--json] ghost <" +
                   sim::joined_names(sim::gnn_names()) + "> <" +
                   sim::joined_names(sim::dataset_names()) +
                   ">\n"
                   "  lumos_cli [--json] generate <" +
                   sim::joined_names(sim::transformer_names()) +
                   "> <prompt> <tokens>\n"
                   "  lumos_cli [--json] serve <tron|ghost|mixed|spec[,spec...]> "
                   "[--loop open|closed] [--qps q]\n"
                   "            [--requests n] [--sessions n] [--think-time-us t]\n"
                   "            [--seqlen-dist fixed|uniform|lognormal] [--fleet n]\n"
                   "            [--decode n] [--decode-dist fixed|uniform|lognormal]\n"
                   "            [--decode-mode continuous|monolithic] [--ttft-slo-us t]\n"
                   "            [--tpot-slo-us t]\n"
                   "            [--sched fifo|batch] [--max-batch n] [--max-wait-us w] "
                   "[--bursty]\n"
                   "            [--routing first-idle|energy-aware|cost-aware] "
                   "[--seed s] [--priority]\n"
                   "            [--fleets t1;t2;...]  (each t a spec[,spec...] template)\n"
                   "            [--usd-per-kwh x] [--usd-per-watt-hour x] "
                   "[--slot-rate spec=x]\n"
                   "            [--autoscale none|queue|util] [--scale-interval-us n]\n"
                   "            [--min-fleet n] [--max-fleet n] [--grow-scale x]\n"
                   "            [--mtbf-us n] [--mttr-us n] [--timeout-us n] [--retries n]\n"
                   "            [--admission none|queue-cap|tier-shed|slo-aware] "
                   "[--queue-cap n]\n"
                   "            [--percentiles exact|hdr] [--hdr-error x] [--cells k]\n"
                   "            [--trace-out p] [--trace-sample x] [--timeline-out p]\n"
                   "            [--window-us n] [--profile]\n";
  return 2;
}

// Strict numeric parsing: the whole argument must be a number (the seed CLI
// silently read "xyz" as 0 through strtoul, and strtoull would wrap "-5" to
// 2^64-5).
std::size_t parse_size(const std::string& arg, const char* what) {
  if (arg.empty() || arg.find_first_not_of("0123456789") != std::string::npos) {
    throw InvalidArgument(std::string(what) + " must be a non-negative integer, got '" +
                          arg + "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(arg.c_str(), nullptr, 10);
  if (errno == ERANGE || v > std::numeric_limits<std::size_t>::max() ||
      v > 1ull << 48) {  // sane ceiling: no trace/fleet needs 2^48 of anything
    throw InvalidArgument(std::string(what) + " is out of range: '" + arg + "'");
  }
  return static_cast<std::size_t>(v);
}

double parse_double(const std::string& arg, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(arg.c_str(), &end);
  if (arg.empty() || end != arg.c_str() + arg.size()) {
    throw InvalidArgument(std::string(what) + " must be a number, got '" + arg + "'");
  }
  return v;
}

// A `*-us` duration flag, returned in seconds: finite, and positive unless
// `allow_zero`.
double parse_us(const std::string& arg, const std::string& flag, bool allow_zero = false) {
  const double us = parse_double(arg, flag.c_str());
  if (!std::isfinite(us) || us < 0.0 || (us == 0.0 && !allow_zero)) {
    throw InvalidArgument(flag + (allow_zero ? " must be finite and >= 0"
                                             : " must be finite and positive"));
  }
  return us * 1e-6;
}

// `list`: every name the registries and serve enums accept, so scripts can
// discover valid arguments without parsing usage text.
int run_list(bool json) {
  if (json) {
    JsonWriter w(std::cout);
    const auto names = [&](const char* key, const std::vector<std::string>& values) {
      w.begin_array(key);
      for (const std::string& v : values) w.element(v);
      w.end();
    };
    w.begin_object();
    names("transformer_models", sim::transformer_names());
    names("gnn_models", sim::gnn_names());
    names("datasets", sim::dataset_names());
    names("accelerator_specs", arch::spec_names());
    names("arrival_processes", serve::process_names());
    names("schedulers", serve::scheduler_names());
    names("routing_policies", serve::routing_names());
    names("autoscalers", serve::autoscaler_names());
    names("loop_modes", serve::loop_mode_names());
    names("seqlen_dists", serve::seqlen_dist_names());
    names("admission_policies", serve::admission_names());
    names("completion_statuses", serve::completion_status_names());
    names("percentile_modes", serve::percentile_mode_names());
    names("decode_dists", serve::seqlen_dist_names());
    names("decode_modes", serve::decode_mode_names());
    w.end();
  } else {
    std::cout << "transformer models : " << sim::joined_names(sim::transformer_names())
              << "\ngnn models         : " << sim::joined_names(sim::gnn_names())
              << "\ndatasets           : " << sim::joined_names(sim::dataset_names())
              << "\naccelerator specs  : " << sim::joined_names(arch::spec_names())
              << " (scalable as <base>@<scale>, e.g. tron@0.5)"
              << "\narrival processes  : " << sim::joined_names(serve::process_names())
              << "\nschedulers         : " << sim::joined_names(serve::scheduler_names())
              << "\nrouting policies   : " << sim::joined_names(serve::routing_names())
              << "\nautoscalers        : " << sim::joined_names(serve::autoscaler_names())
              << "\nloop modes         : " << sim::joined_names(serve::loop_mode_names())
              << "\nseqlen dists       : " << sim::joined_names(serve::seqlen_dist_names())
              << "\nadmission policies : " << sim::joined_names(serve::admission_names())
              << "\ncompletion statuses: "
              << sim::joined_names(serve::completion_status_names())
              << "\npercentile modes   : "
              << sim::joined_names(serve::percentile_mode_names())
              << "\ndecode dists       : " << sim::joined_names(serve::seqlen_dist_names())
              << "\ndecode modes       : " << sim::joined_names(serve::decode_mode_names())
              << "\n";
  }
  return 0;
}

// Splits a `sep`-separated list (a fleet's spec list, the --fleets grid); an
// empty entry anywhere ("tron,", ",tron", "tron;;v100", "") is an error.
std::vector<std::string> split_list(const std::string& text, char sep) {
  std::vector<std::string> entries;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(sep, begin);
    entries.push_back(text.substr(begin, end - begin));
    if (entries.back().empty()) throw InvalidArgument("'" + text + "' has an empty entry");
    if (end == std::string::npos) return entries;
    begin = end + 1;
  }
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Observation output destinations: where the tracer / timeline exports land.
// Empty paths mean the matching observer is off.
struct ObserveOut {
  std::string trace_path;
  std::string timeline_path;
};

// Writes the run's trace / timeline files and (text mode) the profile table.
// JSON mode writes the profile into the run's object instead, so stdout
// stays one well-formed JSON value.
void export_observation(const serve::Observation& obs, const ObserveOut& out, bool json) {
  if (obs.tracer) {
    std::ofstream f(out.trace_path);
    if (!f) throw InvalidArgument("cannot open --trace-out path: " + out.trace_path);
    obs.tracer->write_chrome_trace(f);
  }
  if (obs.timeline) {
    std::ofstream f(out.timeline_path);
    if (!f) throw InvalidArgument("cannot open --timeline-out path: " + out.timeline_path);
    if (has_suffix(out.timeline_path, ".json")) {
      obs.timeline->write_json(f);
    } else {
      obs.timeline->write_csv(f);
    }
  }
  if (obs.profiler && !json) {
    obs.profiler->to_table("event-loop profile").print(std::cout);
  }
}

// One single-run result as a flat JSON object: the closed loop, or an
// observed open-loop run, with their observers' summaries.
void print_run_json(const serve::Scenario& scenario, const serve::FleetMetrics& m,
                    const serve::Observation& obs) {
  const bool closed = scenario.traffic.mode == serve::LoopMode::kClosed;
  JsonWriter w(std::cout);
  w.begin_object().field("fleet", scenario.fleet.label()).field("loop", closed ? "closed" : "open");
  if (closed) {
    w.field("sessions", m.sessions);
  } else {
    w.field("offered_qps", scenario.traffic.open.offered_qps)
        .field("requests", scenario.traffic.open.request_count);
  }
  w.field("completed", m.completed)
      .field("throughput_qps", m.throughput_qps)
      .field("goodput_qps", m.goodput_qps)
      .field("slo_attainment", m.slo_attainment)
      .field("p50_latency_s", m.p50_latency_s)
      .field("p99_latency_s", m.p99_latency_s);
  if (closed) {
    w.field("mean_session_s", m.mean_session_s)
        .field("p50_session_s", m.p50_session_s)
        .field("p99_session_s", m.p99_session_s)
        .field("max_session_s", m.max_session_s);
  } else {
    w.field("p999_latency_s", m.p999_latency_s);
  }
  w.field("mean_batch", m.mean_batch_size)
      .field("fleet_energy_j", m.fleet_energy_j)
      .field("fleet_cost_usd", m.fleet_cost_usd)
      .field("cost_per_request_usd", m.cost_per_request_usd);
  if (closed) {
    w.field("estimate_lookups", m.estimate_lookups).field("estimate_misses", m.estimate_misses);
  }
  w.field("shed", m.shed_requests)
      .field("timed_out", m.timed_out_requests)
      .field("retries", m.retried_attempts)
      .field("drop_rate", m.drop_rate)
      .field("availability", m.fleet_availability);
  if (obs.tracer) {
    const serve::LifecycleTracer& t = *obs.tracer;
    w.begin_object("trace")
        .field("sampled_requests", t.sampled_requests())
        .field("request_events", t.request_events().size())
        .field("batch_spans", t.batch_spans().size())
        .field("dropped_requests", t.dropped_requests())
        .field("dropped_batch_spans", t.dropped_batch_spans())
        .end();
  }
  if (obs.timeline) w.field("timeline_windows", obs.timeline->windows().size());
  if (obs.profiler) {
    const serve::EventLoopProfiler& p = *obs.profiler;
    w.begin_object("profile")
        .field("iterations", p.iterations())
        .field("accounted_wall_s", p.accounted_wall_s())
        .begin_array("sources");
    for (std::size_t i = 0; i < static_cast<std::size_t>(serve::LoopSource::kCount); ++i) {
      const auto src = static_cast<serve::LoopSource>(i);
      w.begin_object()
          .field("source", serve::loop_source_name(src))
          .field("calls", p.calls(src))
          .field("events", p.events(src))
          .field("wall_s", p.wall_s(src))
          .end();
    }
    w.end().end();
  }
  w.end();
}

// Closed-loop and observed runs bypass the (offered-QPS-sweeping) campaign:
// one Scenario, one simulate, metric (+ tenant) tables or one JSON object.
int run_single(const serve::Scenario& scenario, std::size_t cells, bool tenant_table,
               bool json, const ObserveOut& out) {
  serve::Observation obs;
  const serve::FleetMetrics m =
      cells > 1 ? serve::simulate_sharded(scenario, cells)
                : serve::simulate(scenario, scenario.observe.enabled() ? &obs : nullptr);
  if (json) {
    print_run_json(scenario, m, obs);
  } else {
    const bool closed = scenario.traffic.mode == serve::LoopMode::kClosed;
    m.to_table(scenario.fleet.label() +
               (closed ? " closed-loop serve" : " observed open-loop serve"))
        .print(std::cout);
    if (tenant_table) m.tenant_table("per-tenant breakdown").print(std::cout);
  }
  export_observation(obs, out, json);
  return 0;
}

int run_serve(const std::vector<std::string>& args, bool json) {
  if (args.empty()) {
    throw InvalidArgument("serve needs a fleet kind (tron|ghost|mixed|spec[,spec...])");
  }
  serve::CampaignConfig cfg;
  cfg.name = "lumos_cli serve";
  serve::WorkloadCatalog catalog;
  if (args[0] == "tron") {
    cfg.fleet_template = {"tron"};
    catalog = serve::WorkloadCatalog::tron_default();
  } else if (args[0] == "ghost") {
    cfg.fleet_template = {"ghost"};
    catalog = serve::WorkloadCatalog::ghost_default();
  } else if (args[0] == "mixed") {
    cfg.fleet_template = {"tron", "ghost"};
    catalog = serve::WorkloadCatalog::mixed_default();
  } else {
    // Comma-separated registry spec names cycled across the slots: hybrid
    // photonic/electronic fleets ("tron,v100", "a100", "tron,xeon@2.0").
    // Each name validates against the registry (unknown names throw the
    // registry's enumerated error); the catalog follows the union of kinds
    // the listed specs serve.
    std::vector<std::string> specs = split_list(args[0], ',');
    bool transformer = false;
    bool gnn = false;
    for (const std::string& spec : specs) {
      transformer = transformer || arch::spec_serves(spec, arch::WorkloadKind::kTransformer);
      gnn = gnn || arch::spec_serves(spec, arch::WorkloadKind::kGnn);
    }
    catalog = transformer && gnn ? serve::WorkloadCatalog::mixed_default()
              : transformer     ? serve::WorkloadCatalog::tron_default()
                                : serve::WorkloadCatalog::ghost_default();
    cfg.fleet_template = std::move(specs);
  }
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.requests_per_point = 50000;
  serve::LoopMode loop = serve::LoopMode::kOpen;
  serve::ClosedLoopConfig closed;
  double qps = 0.0;
  std::size_t fleet = 4;
  std::size_t max_batch = 8;
  bool priority = false;
  double mtbf_s = 0.0;
  double timeout_s = 0.0;
  std::size_t decode_tokens = 0;  // 0: decode off
  serve::SeqLenDist decode_dist = serve::SeqLenDist::kFixed;
  double ttft_slo_s = 0.0;
  double tpot_slo_s = 0.0;
  serve::ObserveConfig observe;
  ObserveOut out;
  // Every flag given, so a knob whose mode is off errors below instead of
  // being silently ignored.
  std::vector<std::string> given;
  const auto has = [&](const char* flag) {
    return std::find(given.begin(), given.end(), flag) != given.end();
  };
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    given.push_back(a);
    // A flag's value is the next argument unless that is itself a flag
    // ("--trace-out --profile" must not write a file named "--profile").
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size() || args[i + 1].starts_with("--")) {
        throw InvalidArgument(a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--loop") {
      loop = serve::loop_mode_from_name(value());
    } else if (a == "--qps") {
      qps = parse_double(value(), "--qps");
      if (qps <= 0.0) throw InvalidArgument("--qps must be positive");
    } else if (a == "--requests") {
      cfg.requests_per_point = parse_size(value(), "--requests");
    } else if (a == "--sessions") {
      closed.sessions = parse_size(value(), "--sessions");
    } else if (a == "--think-time-us") {
      closed.think_time_mean_s = parse_us(value(), a, /*allow_zero=*/true);
    } else if (a == "--seqlen-dist") {
      catalog.apply_seqlen_dist(serve::seqlen_dist_from_name(value()));
    } else if (a == "--decode") {
      decode_tokens = parse_size(value(), "--decode");
      if (decode_tokens == 0) throw InvalidArgument("--decode must be >= 1");
    } else if (a == "--decode-dist") {
      decode_dist = serve::seqlen_dist_from_name(value());
    } else if (a == "--decode-mode") {
      cfg.decode_mode = serve::decode_mode_from_name(value());
    } else if (a == "--ttft-slo-us") {
      ttft_slo_s = parse_us(value(), a);
    } else if (a == "--tpot-slo-us") {
      tpot_slo_s = parse_us(value(), a);
    } else if (a == "--fleet") {
      fleet = parse_size(value(), "--fleet");
    } else if (a == "--sched") {
      cfg.schedulers = {serve::scheduler_from_name(value())};
    } else if (a == "--max-batch") {
      max_batch = parse_size(value(), "--max-batch");
    } else if (a == "--max-wait-us") {
      cfg.max_wait_s = parse_us(value(), a, /*allow_zero=*/true);
    } else if (a == "--bursty") {
      cfg.process = serve::ArrivalProcess::kBursty;
    } else if (a == "--routing") {
      cfg.routing = serve::routing_from_name(value());
    } else if (a == "--usd-per-kwh") {
      const double kwh = parse_double(value(), "--usd-per-kwh");
      if (kwh < 0.0) throw InvalidArgument("--usd-per-kwh must be >= 0");
      cfg.cost.usd_per_joule = kwh / 3.6e6;
    } else if (a == "--usd-per-watt-hour") {
      cfg.cost.usd_per_watt_hour = parse_double(value(), "--usd-per-watt-hour");
      if (cfg.cost.usd_per_watt_hour < 0.0) {
        throw InvalidArgument("--usd-per-watt-hour must be >= 0");
      }
    } else if (a == "--slot-rate") {
      const std::string& pair = value();
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw InvalidArgument("--slot-rate expects <spec>=<usd-per-hour>, got '" + pair +
                              "'");
      }
      const std::string spec = pair.substr(0, eq);
      (void)arch::is_platform_spec(spec);  // registry name validation
      const double rate = parse_double(pair.substr(eq + 1), "--slot-rate rate");
      if (rate < 0.0) throw InvalidArgument("--slot-rate rate must be >= 0");
      cfg.cost.slot_hour_overrides.emplace_back(spec, rate);
    } else if (a == "--fleets") {
      // Fleet-template grid axis: semicolon-separated templates, each a
      // comma-separated spec list, swept as the outermost campaign axis.
      cfg.fleet_templates.clear();
      for (const std::string& entry : split_list(value(), ';')) {
        std::vector<std::string> specs = split_list(entry, ',');
        for (const std::string& spec : specs) {
          (void)arch::is_platform_spec(spec);  // registry name validation
        }
        cfg.fleet_templates.push_back(std::move(specs));
      }
    } else if (a == "--seed") {
      cfg.seed = parse_size(value(), "--seed");
    } else if (a == "--priority") {
      priority = true;
    } else if (a == "--autoscale") {
      cfg.autoscalers = {serve::autoscaler_from_name(value())};
    } else if (a == "--scale-interval-us") {
      cfg.autoscale.interval_s = parse_us(value(), a);
    } else if (a == "--min-fleet") {
      cfg.autoscale.min_slots = parse_size(value(), "--min-fleet");
    } else if (a == "--max-fleet") {
      cfg.autoscale.max_slots = parse_size(value(), "--max-fleet");
    } else if (a == "--grow-scale") {
      cfg.autoscale.grow_scale = parse_double(value(), "--grow-scale");
      if (cfg.autoscale.grow_scale <= 0.0) {
        throw InvalidArgument("--grow-scale must be positive");
      }
    } else if (a == "--mtbf-us") {
      mtbf_s = parse_us(value(), a);
    } else if (a == "--mttr-us") {
      cfg.faults.mttr_s = parse_us(value(), a);
    } else if (a == "--timeout-us") {
      timeout_s = parse_us(value(), a);
    } else if (a == "--retries") {
      cfg.retry.max_attempts = parse_size(value(), "--retries");
      if (cfg.retry.max_attempts == 0) throw InvalidArgument("--retries must be >= 1");
    } else if (a == "--admission") {
      cfg.admissions = {serve::admission_from_name(value())};
    } else if (a == "--queue-cap") {
      cfg.admission.queue_cap = parse_size(value(), "--queue-cap");
      if (cfg.admission.queue_cap == 0) throw InvalidArgument("--queue-cap must be >= 1");
    } else if (a == "--cells") {
      cfg.cells = parse_size(value(), "--cells");
      if (cfg.cells == 0) throw InvalidArgument("--cells must be >= 1");
    } else if (a == "--percentiles") {
      cfg.percentile_mode = serve::percentile_mode_from_name(value());
    } else if (a == "--hdr-error") {
      cfg.hdr_relative_error = parse_double(value(), "--hdr-error");
      if (!(cfg.hdr_relative_error > 0.0 && cfg.hdr_relative_error < 1.0)) {
        throw InvalidArgument("--hdr-error must be in (0, 1)");
      }
    } else if (a == "--trace-out") {
      out.trace_path = value();
      if (out.trace_path.empty()) throw InvalidArgument("--trace-out needs a path");
      observe.trace.enabled = true;
    } else if (a == "--trace-sample") {
      observe.trace.sample = parse_double(value(), "--trace-sample");
      if (observe.trace.sample < 0.0 || observe.trace.sample > 1.0) {
        throw InvalidArgument("--trace-sample must be in [0, 1]");
      }
    } else if (a == "--timeline-out") {
      out.timeline_path = value();
      if (out.timeline_path.empty()) throw InvalidArgument("--timeline-out needs a path");
      observe.timeline.enabled = true;
    } else if (a == "--window-us") {
      observe.timeline.window_s = parse_us(value(), a);
    } else if (a == "--profile") {
      observe.profile = true;
    } else {
      throw InvalidArgument("unknown serve flag: " + a);
    }
  }
  if (fleet == 0 || max_batch == 0 || cfg.requests_per_point == 0) {
    throw InvalidArgument("--fleet, --max-batch, and --requests must be positive");
  }
  // Mode-gated knobs: each row names a flag, whether the chosen modes read
  // it, and the mode that does not.  A given flag that the chosen modes
  // ignore is an error (exit 2; the first such row names it), never a silent
  // no-op.
  const bool autoscaled = cfg.autoscalers.front() != serve::AutoscalerPolicy::kNone;
  const bool closed_loop = loop == serve::LoopMode::kClosed;
  const serve::AdmissionPolicy admission = cfg.admissions.front();
  const bool batching = cfg.schedulers.front() != serve::SchedulerKind::kFifo;
  const struct {
    const char* flag;
    bool active;
    const char* unless;
  } knobs[] = {
      {"--scale-interval-us", autoscaled, "without --autoscale queue|util"},
      {"--min-fleet", autoscaled, "without --autoscale queue|util"},
      {"--max-fleet", autoscaled, "without --autoscale queue|util"},
      {"--grow-scale", autoscaled, "without --autoscale queue|util"},
      {"--qps", !closed_loop, "with --loop closed"},
      {"--bursty", !closed_loop, "with --loop closed"},
      {"--sessions", closed_loop, "without --loop closed"},
      {"--think-time-us", closed_loop, "without --loop closed"},
      {"--mttr-us", mtbf_s > 0.0, "without --mtbf-us"},
      {"--retries", timeout_s > 0.0, "without --timeout-us"},
      {"--queue-cap", admission != serve::AdmissionPolicy::kNone, "without --admission"},
      {"--queue-cap", admission != serve::AdmissionPolicy::kSloAware,
       "with --admission slo-aware"},
      {"--max-batch", batching, "with --sched fifo"},
      {"--max-wait-us", batching, "with --sched fifo"},
      {"--trace-sample", observe.trace.enabled, "without --trace-out"},
      {"--window-us", observe.timeline.enabled, "without --timeline-out"},
      {"--hdr-error", cfg.percentile_mode == serve::PercentileMode::kHdr,
       "without --percentiles hdr"},
      {"--decode-dist", decode_tokens > 0, "without --decode"},
      {"--decode-mode", decode_tokens > 0, "without --decode"},
      {"--ttft-slo-us", decode_tokens > 0, "without --decode"},
      {"--tpot-slo-us", decode_tokens > 0, "without --decode"},
  };
  for (const auto& knob : knobs) {
    if (!knob.active && has(knob.flag)) {
      throw InvalidArgument(std::string(knob.flag) + " has no effect " + knob.unless);
    }
  }
  if (cfg.cells > 1 && observe.enabled()) {
    throw InvalidArgument(
        "--cells > 1 does not support observers (--trace-out / --timeline-out / "
        "--profile): cells are independent event loops; run --cells 1 to trace");
  }
  if (cfg.cells > fleet) {
    throw InvalidArgument("--cells must be <= --fleet (" + std::to_string(fleet) +
                          "): every cell needs at least one slot");
  }
  if (decode_tokens > 0) {
    catalog.apply_decode(decode_dist, decode_tokens);
    if (ttft_slo_s > 0.0 || tpot_slo_s > 0.0) {
      catalog.apply_token_slos(ttft_slo_s, tpot_slo_s);
    }
  }
  observe.trace.seed = cfg.seed;
  if (timeout_s > 0.0) catalog.apply_timeout(timeout_s);
  cfg.fault_mtbfs_s = {mtbf_s};
  if (max_batch > serve::BatchPolicy::kMaxBatchLimit || fleet > 4096) {
    throw InvalidArgument("--max-batch and --fleet must be <= 4096");
  }
  if (!cfg.fleet_templates.empty()) {
    // The template axis multiplies the campaign grid; the single-fleet paths
    // (closed loop, observed runs) serve exactly one fleet, so combining them
    // would silently drop the sweep.
    if (loop == serve::LoopMode::kClosed) {
      throw InvalidArgument(
          "--fleets sweeps a campaign axis; closed-loop runs serve one fleet");
    }
    if (observe.enabled()) {
      throw InvalidArgument(
          "--fleets sweeps a campaign axis; observers trace one run");
    }
    cfg.fleet_template = cfg.fleet_templates.front();  // labels + default QPS
  }
  cfg.fleet_sizes = {fleet};
  cfg.max_batches = {max_batch};
  // A --slot-rate prices the slots of its spec only, so one that no slot of
  // the run can take has no effect.  The run's slots are the template (or
  // each --fleets template) cycled to --fleet, plus the "<spec>@<x>" variants
  // that --grow-scale x grows.
  std::vector<std::string> slot_specs;
  using Templates = std::vector<std::vector<std::string>>;
  for (const std::vector<std::string>& t :
       cfg.fleet_templates.empty() ? Templates{cfg.fleet_template} : cfg.fleet_templates) {
    for (const std::string& spec : serve::FleetConfig::cycled(t, fleet).accelerators) {
      slot_specs.push_back(spec);
      if (autoscaled && cfg.autoscale.grow_scale != 1.0) {
        slot_specs.push_back(arch::scaled_spec_name(spec, cfg.autoscale.grow_scale));
      }
    }
  }
  for (const auto& [spec, rate] : cfg.cost.slot_hour_overrides) {
    if (std::find(slot_specs.begin(), slot_specs.end(), spec) == slot_specs.end()) {
      throw InvalidArgument("--slot-rate " + spec + " has no effect: the run has no " + spec +
                            " slot");
    }
  }
  if (priority) catalog.apply_default_tiers();

  if (loop == serve::LoopMode::kClosed) {
    if (has("--sessions") && closed.sessions == 0) {
      throw InvalidArgument("--sessions must be positive");
    }
    // --requests is the total budget: split it across the session pool.  A
    // pool bigger than the budget would silently inflate the total (every
    // session issues at least once), so reject it instead.
    if (cfg.requests_per_point < closed.sessions) {
      throw InvalidArgument("--requests must be >= --sessions (" +
                            std::to_string(closed.sessions) +
                            "): every closed-loop session issues at least one request");
    }
    closed.requests_per_session = cfg.requests_per_point / closed.sessions;
    closed.seed = cfg.seed;
  } else if (qps <= 0.0) {
    const std::size_t capacity_batch =
        cfg.schedulers.front() == serve::SchedulerKind::kFifo ? 1 : max_batch;
    qps = 0.7 * serve::fleet_capacity_qps(
                    catalog, serve::FleetConfig::cycled(cfg.fleet_template, fleet),
                    capacity_batch);
  }
  // The closed loop's 0 QPS is never read: its sessions replace the trace.
  cfg.qps = {qps};

  if (loop == serve::LoopMode::kClosed || observe.enabled()) {
    serve::Scenario scenario =
        serve::campaign_scenario(cfg, catalog, serve::campaign_grid(cfg).front(), 0);
    scenario.observe = observe;
    bool tenant_table = priority;
    if (loop == serve::LoopMode::kClosed) {
      scenario.traffic.mode = serve::LoopMode::kClosed;
      scenario.traffic.closed = closed;
    } else {
      tenant_table = tenant_table || cfg.autoscalers.front() != serve::AutoscalerPolicy::kNone;
    }
    return run_single(scenario, cfg.cells, tenant_table, json, out);
  }

  const std::vector<serve::CampaignPoint> points = serve::run_campaign(cfg, catalog);
  if (json) {
    JsonWriter w(std::cout);
    serve::write_campaign_json(w, cfg, points);
  } else {
    const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled(cfg.fleet_template, fleet);
    const std::string title = fleet_cfg.label() + " serve campaign (" +
                              serve::process_name(cfg.process) + " arrivals)";
    serve::campaign_table(points, title).print(std::cout);
    points.front().metrics.to_table("point detail").print(std::cout);
    if (priority || cfg.autoscalers.front() != serve::AutoscalerPolicy::kNone) {
      points.front().metrics.tenant_table("per-tenant breakdown").print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) return usage();
  const std::string& mode = args[0];
  try {
    // Each mode reads a fixed span of positional words; one beyond it is an
    // error, not silently dropped.
    const auto at_most = [&](std::size_t n) {
      if (args.size() > n) throw InvalidArgument("unexpected argument: " + args[n]);
    };
    if (mode == "list") {
      at_most(1);
      return run_list(json);
    }
    if (args.size() < 2) return usage();
    if (mode == "tron") {
      at_most(4);
      const std::size_t seq = args.size() > 2 ? parse_size(args[2], "seq_len") : 128;
      const std::size_t batch = args.size() > 3 ? parse_size(args[3], "batch") : 1;
      if (seq == 0 || batch == 0) throw InvalidArgument("seq_len and batch must be positive");
      const std::unique_ptr<arch::Accelerator> acc = arch::make_accelerator("tron");
      const PerfReport r = acc->estimate_batch(
          arch::Workload::transformer(args[1], sim::transformer_by_name(args[1], seq)),
          batch);
      json ? print_report_json(r) : print_report(r);
      return 0;
    }
    if (mode == "ghost") {
      if (args.size() < 3) return usage();
      at_most(3);
      const std::unique_ptr<arch::Accelerator> acc = arch::make_accelerator("ghost");
      const PerfReport r = acc->estimate(arch::Workload::gnn(
          args[1] + "/" + args[2], sim::gnn_by_name(args[1]), sim::dataset_by_name(args[2])));
      json ? print_report_json(r) : print_report(r);
      return 0;
    }
    if (mode == "generate") {
      if (args.size() < 4) return usage();
      at_most(4);
      const std::size_t prompt = parse_size(args[2], "prompt_len");
      const std::size_t tokens = parse_size(args[3], "tokens");
      if (prompt == 0 || tokens == 0) throw InvalidArgument("prompt and tokens must be positive");
      // Autoregressive decoding is a TRON-only face: reach the concrete
      // device through the adapter.
      const arch::TronAdapter acc(arch::tron_config_by_name("tron"));
      const PerfReport r = acc.device().estimate_generation(
          sim::transformer_by_name(args[1], prompt + tokens), prompt, tokens);
      json ? print_report_json(r) : print_report(r);
      return 0;
    }
    if (mode == "serve") {
      return run_serve({args.begin() + 1, args.end()}, json);
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
