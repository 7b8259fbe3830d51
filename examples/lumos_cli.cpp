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
//   The serve flags are the rows of `kServeFlags` below, and `lumos_cli`
//   with no arguments prints them.  A closed-loop or observed (--trace-out,
//   --timeline-out, --profile) run simulates one scenario instead of a
//   campaign sweep: campaign grid point 0 with its derived seed, so a traced
//   open-loop run reproduces the first sweep point bit-for-bit.
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
#include <optional>
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

// One command-line value with the name that every parse error reports.
struct Arg {
  const std::string& name;
  const std::string& text;

  // A whole non-negative integer in [min, max]: strtoull alone would read
  // "xyz" as 0 and wrap "-5" to 2^64-5.  No trace or fleet needs 2^48 of
  // anything.
  [[nodiscard]] std::size_t count(std::size_t min = 0, std::size_t max = 1ull << 48) const {
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
      throw InvalidArgument(name + " must be a non-negative integer, got '" + text + "'");
    }
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || v < min || v > max) {
      throw InvalidArgument(name + " must be in [" + std::to_string(min) + ", " +
                            std::to_string(max) + "], got '" + text + "'");
    }
    return static_cast<std::size_t>(v);
  }
  // A finite number above 0, or at least 0 when `or_zero`.
  [[nodiscard]] double number(bool or_zero = false) const {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) {
      throw InvalidArgument(name + " must be a number, got '" + text + "'");
    }
    if (!std::isfinite(v) || v < 0.0 || (v == 0.0 && !or_zero)) {
      throw InvalidArgument(name + (or_zero ? " must be finite and >= 0"
                                            : " must be finite and positive"));
    }
    return v;
  }
  // A `*-us` duration, in seconds.
  [[nodiscard]] double us(bool or_zero = false) const { return number(or_zero) * 1e-6; }
};

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

// Everything a serve command line sets: the campaign (its base Scenario and
// its axes), where the observers write, and the catalog knobs applied once
// every flag is read, so that flag order never matters.
struct ServeRun {
  serve::CampaignConfig cfg;
  std::string trace_path;     // --trace-out
  std::string timeline_path;  // --timeline-out
  serve::SeqLenDist seqlen_dist = serve::SeqLenDist::kFixed;
  std::optional<std::string> decode;  // --decode's count, read once its shape is known
  serve::SeqLenDist decode_dist = serve::SeqLenDist::kFixed;
  double ttft_slo_s = 0.0;
  double tpot_slo_s = 0.0;
  double timeout_s = 0.0;
  std::size_t requests = 0;  // --requests; 0: not given
  bool priority = false;
};

// Writes the run's trace / timeline files and (text mode) the profile table.
// JSON mode writes the profile into the run's object instead, so stdout
// stays one well-formed JSON value.
void export_observation(const serve::Observation& obs, const ServeRun& run, bool json) {
  if (obs.tracer) {
    std::ofstream f(run.trace_path);
    if (!f) throw InvalidArgument("cannot open --trace-out path: " + run.trace_path);
    obs.tracer->write_chrome_trace(f);
  }
  if (obs.timeline) {
    std::ofstream f(run.timeline_path);
    if (!f) throw InvalidArgument("cannot open --timeline-out path: " + run.timeline_path);
    run.timeline_path.ends_with(".json") ? obs.timeline->write_json(f)
                                         : obs.timeline->write_csv(f);
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
// grid point 0 as one Scenario, one simulate, metric (+ tenant) tables or one
// JSON object.
int run_single(const ServeRun& run, bool tenant_table, bool json) {
  const serve::Scenario scenario =
      serve::campaign_scenario(run.cfg, serve::campaign_grid(run.cfg).front(), 0);
  serve::Observation obs;
  const serve::FleetMetrics m =
      run.cfg.cells > 1
          ? serve::simulate_sharded(scenario, run.cfg.cells)
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
  export_observation(obs, run, json);
  return 0;
}

// A mode that some flags need, named as usage and errors print it.
struct Mode {
  const char* name;
  bool (*on)(const ServeRun&);
};

constexpr Mode kOpenLoop{"--loop open", [](const ServeRun& r) {
                           return r.cfg.base.traffic.mode == serve::LoopMode::kOpen;
                         }};
constexpr Mode kClosedLoop{"--loop closed", [](const ServeRun& r) {
                             return r.cfg.base.traffic.mode == serve::LoopMode::kClosed;
                           }};
constexpr Mode kCampaign{"--loop open, no --trace-out/--timeline-out/--profile",
                         [](const ServeRun& r) {
                           return kOpenLoop.on(r) && !r.cfg.base.observe.enabled();
                         }};
constexpr Mode kBatching{"--sched batch", [](const ServeRun& r) {
                           return r.cfg.schedulers.front() != serve::SchedulerKind::kFifo;
                         }};
constexpr Mode kTransformers{"a fleet that serves transformers", [](const ServeRun& r) {
                               using arch::WorkloadKind;
                               return r.cfg.base.catalog.has_kind(WorkloadKind::kTransformer);
                             }};
constexpr Mode kDecode{"--decode", [](const ServeRun& r) { return r.decode.has_value(); }};
constexpr Mode kAutoscale{"--autoscale queue|util", [](const ServeRun& r) {
                            return r.cfg.autoscalers.front() != serve::AutoscalerPolicy::kNone;
                          }};
constexpr Mode kFaults{"--mtbf-us",
                       [](const ServeRun& r) { return r.cfg.fault_mtbfs_s.front() > 0.0; }};
constexpr Mode kTimeout{"--timeout-us", [](const ServeRun& r) { return r.timeout_s > 0.0; }};
constexpr Mode kCappedAdmission{"--admission queue-cap|tier-shed", [](const ServeRun& r) {
                                  const serve::AdmissionPolicy p = r.cfg.admissions.front();
                                  return p == serve::AdmissionPolicy::kQueueCap ||
                                         p == serve::AdmissionPolicy::kTierShed;
                                }};
constexpr Mode kHdr{"--percentiles hdr", [](const ServeRun& r) {
                      return r.cfg.base.sim.percentile_mode == serve::PercentileMode::kHdr;
                    }};
constexpr Mode kTraceOut{"--trace-out",
                         [](const ServeRun& r) { return r.cfg.base.observe.trace.enabled; }};
constexpr Mode kTimelineOut{"--timeline-out", [](const ServeRun& r) {
                              return r.cfg.base.observe.timeline.enabled;
                            }};

// One serve flag: its name, its value's placeholder (nullptr for a switch),
// its help line, the mode that reads it (nullptr: every mode), and the setter
// that parses its value into the run.  The parse loop, the mode gate and
// `usage` all read this table, so adding a flag is adding a row.
struct ServeFlag {
  const char* name;
  const char* value;
  const char* help;
  const Mode* needs;
  void (*set)(ServeRun&, const Arg&);
};

const ServeFlag kServeFlags[] = {
    {"--loop", "open|closed",
     "offered-QPS trace, or sessions that wait, think, reissue (default open)", nullptr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.traffic.mode = serve::loop_mode_from_name(v.text);
     }},
    {"--qps", "q", "offered QPS (default 70% of the fleet's unloaded capacity)", &kOpenLoop,
     [](ServeRun& r, const Arg& v) { r.cfg.qps = {v.number()}; }},
    {"--requests", "n",
     "trace length; closed loop: the total, a multiple of --sessions (default 50000, "
     "rounded down to a multiple)",
     nullptr,
     [](ServeRun& r, const Arg& v) { r.requests = v.count(1); }},
    {"--sessions", "n", "concurrent client sessions (default 32)", &kClosedLoop,
     [](ServeRun& r, const Arg& v) { r.cfg.base.traffic.closed.sessions = v.count(1); }},
    {"--think-time-us", "t", "mean exponential think time (default 2000)", &kClosedLoop,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.traffic.closed.think_time_mean_s = v.us(/*or_zero=*/true);
     }},
    {"--seqlen-dist", "fixed|uniform|lognormal",
     "sequence lengths of transformer tenants (default fixed)", &kTransformers,
     [](ServeRun& r, const Arg& v) { r.seqlen_dist = serve::seqlen_dist_from_name(v.text); }},
    {"--decode", "n", "mean tokens each transformer request generates after its prefill",
     &kTransformers, [](ServeRun& r, const Arg& v) { r.decode = v.text; }},
    {"--decode-dist", "fixed|uniform|lognormal", "decode-length shape (default fixed)",
     &kDecode,
     [](ServeRun& r, const Arg& v) { r.decode_dist = serve::seqlen_dist_from_name(v.text); }},
    {"--decode-mode", "continuous|monolithic",
     "join prefills at token boundaries, or hold the batch (default continuous)", &kDecode,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.sim.decode_mode = serve::decode_mode_from_name(v.text);
     }},
    {"--ttft-slo-us", "t", "time-to-first-token SLO of decoding tenants", &kDecode,
     [](ServeRun& r, const Arg& v) { r.ttft_slo_s = v.us(); }},
    {"--tpot-slo-us", "t", "time-per-output-token SLO of decoding tenants", &kDecode,
     [](ServeRun& r, const Arg& v) { r.tpot_slo_s = v.us(); }},
    {"--fleet", "n", "accelerators in the (initial) fleet (default 4)", nullptr,
     [](ServeRun& r, const Arg& v) { r.cfg.fleet_sizes = {v.count(1, 4096)}; }},
    {"--sched", "fifo|batch", "scheduler (default batch)", nullptr,
     [](ServeRun& r, const Arg& v) { r.cfg.schedulers = {serve::scheduler_from_name(v.text)}; }},
    {"--max-batch", "n", "dynamic-batch cap (default 8)", &kBatching,
     [](ServeRun& r, const Arg& v) {
       r.cfg.max_batches = {v.count(1, serve::BatchPolicy::kMaxBatchLimit)};
     }},
    {"--max-wait-us", "w", "dynamic-batch deadline (default 2000)", &kBatching,
     [](ServeRun& r, const Arg& v) { r.cfg.base.batch.max_wait_s = v.us(/*or_zero=*/true); }},
    {"--bursty", nullptr, "MMPP arrivals instead of Poisson", &kOpenLoop,
     [](ServeRun& r, const Arg&) {
       r.cfg.base.traffic.open.process = serve::ArrivalProcess::kBursty;
     }},
    {"--routing", "first-idle|energy-aware|cost-aware",
     "cost-aware: the cheapest idle slot predicted to make the SLO (default first-idle)", nullptr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.fleet.routing = serve::routing_from_name(v.text);
     }},
    {"--fleets", "t1;t2;...",
     "fleet-template axis, each t a spec[,spec...] ('tron;v100;tron,v100')", &kCampaign,
     [](ServeRun& r, const Arg& v) {
       r.cfg.fleet_templates.clear();
       for (const std::string& entry : split_list(v.text, ';')) {
         std::vector<std::string> specs = split_list(entry, ',');
         for (const std::string& spec : specs) {
           (void)arch::is_platform_spec(spec);  // registry name validation
         }
         r.cfg.fleet_templates.push_back(std::move(specs));
       }
     }},
    {"--usd-per-kwh", "x", "marginal energy price (default 0.10)", nullptr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.fleet.cost.usd_per_joule = v.number(/*or_zero=*/true) / 3.6e6;
     }},
    {"--usd-per-watt-hour", "x",
     "hosting $/W/h on a slot's static draw: its default $/slot-hour (default 0.01)", nullptr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.fleet.cost.usd_per_watt_hour = v.number(/*or_zero=*/true);
     }},
    {"--slot-rate", "spec=x",
     "exact $/slot-hour of one spec that a slot of the run uses (repeatable)", nullptr,
     [](ServeRun& r, const Arg& v) {
       const std::size_t eq = v.text.find('=');
       if (eq == std::string::npos || eq == 0) {
         throw InvalidArgument("--slot-rate expects <spec>=<usd-per-hour>, got '" + v.text + "'");
       }
       const std::string spec = v.text.substr(0, eq);
       (void)arch::is_platform_spec(spec);  // registry name validation
       const std::string rate = v.text.substr(eq + 1);
       r.cfg.base.fleet.cost.slot_hour_overrides.emplace_back(
           spec, Arg{"--slot-rate rate", rate}.number(/*or_zero=*/true));
     }},
    {"--seed", "s", "trace, session and trace-sampling seed (default 1)", nullptr,
     [](ServeRun& r, const Arg& v) {
       serve::Scenario& base = r.cfg.base;
       base.traffic.open.seed = base.traffic.closed.seed = base.observe.trace.seed = v.count();
     }},
    {"--priority", nullptr, "two priority tiers: high-traffic tenants 0, the rest 1", nullptr,
     [](ServeRun& r, const Arg&) { r.priority = true; }},
    {"--autoscale", "none|queue|util", "elastic fleet policy (default none)", nullptr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.autoscalers = {serve::autoscaler_from_name(v.text)};
     }},
    {"--scale-interval-us", "n", "autoscaler evaluation step (default 5000)", &kAutoscale,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.autoscaler.interval_s = v.us(); }},
    {"--min-fleet", "n", "per-family slot floor (default 1)", &kAutoscale,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.autoscaler.min_slots = v.count(); }},
    {"--max-fleet", "n", "per-family slot ceiling (default 64)", &kAutoscale,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.autoscaler.max_slots = v.count(); }},
    {"--grow-scale", "x", "grown slots use the registry's <spec>@<x> variant", &kAutoscale,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.autoscaler.grow_scale = v.number(); }},
    {"--mtbf-us", "n", "per-slot mean time between failures; a failure requeues its batch",
     nullptr, [](ServeRun& r, const Arg& v) { r.cfg.fault_mtbfs_s = {v.us()}; }},
    {"--mttr-us", "n", "per-slot mean time to repair (default 1000)", &kFaults,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.faults.mttr_s = v.us(); }},
    {"--timeout-us", "n", "per-request timeout, cancelling queued and in-flight work", nullptr,
     [](ServeRun& r, const Arg& v) { r.timeout_s = v.us(); }},
    {"--retries", "n", "attempts per request, with exponential backoff (default 1)", &kTimeout,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.retry.max_attempts = v.count(1); }},
    {"--admission", "none|queue-cap|tier-shed|slo-aware",
     "admission control at every arrival (default none)", nullptr,
     [](ServeRun& r, const Arg& v) { r.cfg.admissions = {serve::admission_from_name(v.text)}; }},
    {"--queue-cap", "n", "queue bound of the admission policy (default 256)", &kCappedAdmission,
     [](ServeRun& r, const Arg& v) { r.cfg.base.sim.admission.queue_cap = v.count(1); }},
    {"--percentiles", "exact|hdr",
     "exact, or hdr's bounded-relative-error histogram (default exact)", nullptr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.sim.percentile_mode = serve::percentile_mode_from_name(v.text);
     }},
    {"--hdr-error", "x", "hdr relative-error bound in (0, 1) (default 0.01)", &kHdr,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.sim.hdr_relative_error = v.number();
       if (v.number() >= 1.0) throw InvalidArgument("--hdr-error must be in (0, 1)");
     }},
    {"--cells", "k",
     "k fleets of 1/k the slots, run in parallel: goodput within 0.3% of serial, p99 1.70x "
     "at 8 cells (default 1)",
     nullptr, [](ServeRun& r, const Arg& v) { r.cfg.cells = v.count(1); }},
    {"--trace-out", "p", "write the run's Chrome trace_event JSON (chrome://tracing, Perfetto)",
     nullptr,
     [](ServeRun& r, const Arg& v) {
       r.trace_path = v.text;
       if (r.trace_path.empty()) throw InvalidArgument("--trace-out needs a path");
       r.cfg.base.observe.trace.enabled = true;
     }},
    {"--trace-sample", "x", "fraction of requests traced, in [0, 1] (default 1)", &kTraceOut,
     [](ServeRun& r, const Arg& v) {
       r.cfg.base.observe.trace.sample = v.number(/*or_zero=*/true);
       if (r.cfg.base.observe.trace.sample > 1.0) {
         throw InvalidArgument("--trace-sample must be in [0, 1]");
       }
     }},
    {"--timeline-out", "p", "write windowed time-series metrics: JSON for a .json path, else CSV",
     nullptr,
     [](ServeRun& r, const Arg& v) {
       r.timeline_path = v.text;
       if (r.timeline_path.empty()) throw InvalidArgument("--timeline-out needs a path");
       r.cfg.base.observe.timeline.enabled = true;
     }},
    {"--window-us", "n", "timeline window width (default 1000)", &kTimelineOut,
     [](ServeRun& r, const Arg& v) { r.cfg.base.observe.timeline.window_s = v.us(); }},
    {"--profile", nullptr, "event-loop self-profile: events and wall time per event source",
     nullptr, [](ServeRun& r, const Arg&) { r.cfg.base.observe.profile = true; }},
};

// Prints the modes and every serve flag, then returns exit code 2: every
// argument error ends here.
int usage() {
  std::cerr << "usage:\n  lumos_cli [--json] list\n  lumos_cli [--json] tron  <"
            << sim::joined_names(sim::transformer_names()) << "> [seq] [batch]\n"
            << "  lumos_cli [--json] ghost <" << sim::joined_names(sim::gnn_names()) << "> <"
            << sim::joined_names(sim::dataset_names()) << ">\n"
            << "  lumos_cli [--json] generate <" << sim::joined_names(sim::transformer_names())
            << "> <prompt> <tokens>\n"
            << "  lumos_cli [--json] serve <tron|ghost|mixed|spec[,spec...]> [serve flags]\n\n"
            << "serve flags (a flag whose mode is off exits 2):\n";
  constexpr std::size_t kHelpColumn = 26;
  for (const ServeFlag& f : kServeFlags) {
    std::string head = std::string("  ") + f.name;
    if (f.value) head = head + " <" + f.value + ">";
    head += head.size() < kHelpColumn ? std::string(kHelpColumn - head.size(), ' ')
                                      : "\n" + std::string(kHelpColumn, ' ');
    std::cerr << head << f.help;
    if (f.needs) std::cerr << " [needs " << f.needs->name << "]";
    std::cerr << '\n';
  }
  return 2;
}

int run_serve(const std::vector<std::string>& args, bool json) {
  if (args.empty()) {
    throw InvalidArgument("serve needs a fleet kind (tron|ghost|mixed|spec[,spec...])");
  }
  ServeRun run;
  serve::CampaignConfig& cfg = run.cfg;
  serve::Scenario& base = cfg.base;
  cfg.name = "lumos_cli serve";
  // "mixed" is the TRON+GHOST fleet; anything else is comma-separated
  // registry spec names cycled across the slots, like hybrid photonic and
  // electronic fleets ("tron,v100", "a100", "tron,xeon@2.0").  Each name
  // validates against the registry (unknown names throw the registry's
  // enumerated error), and the catalog follows the kinds the specs serve.
  std::vector<std::string> specs = args[0] == "mixed" ? std::vector<std::string>{"tron", "ghost"}
                                                      : split_list(args[0], ',');
  bool transformer = false;
  bool gnn = false;
  for (const std::string& spec : specs) {
    transformer = transformer || arch::spec_serves(spec, arch::WorkloadKind::kTransformer);
    gnn = gnn || arch::spec_serves(spec, arch::WorkloadKind::kGnn);
  }
  base.catalog = transformer && gnn ? serve::WorkloadCatalog::mixed_default()
                 : transformer     ? serve::WorkloadCatalog::tron_default()
                                   : serve::WorkloadCatalog::ghost_default();
  cfg.fleet_templates = {std::move(specs)};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  std::vector<const ServeFlag*> given;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const ServeFlag* flag = std::find_if(std::begin(kServeFlags), std::end(kServeFlags),
                                         [&](const ServeFlag& f) { return a == f.name; });
    if (flag == std::end(kServeFlags)) throw InvalidArgument("unknown serve flag: " + a);
    // A flag's value is the next argument unless that is itself a flag
    // ("--trace-out --profile" must not write a file named "--profile").
    std::string text;
    if (flag->value) {
      if (i + 1 >= args.size() || args[i + 1].starts_with("--")) {
        throw InvalidArgument(a + " needs a value");
      }
      text = args[++i];
    }
    flag->set(run, Arg{a, text});
    given.push_back(flag);
  }
  // A given flag that the chosen modes never read is an error, never a
  // silent no-op.
  for (const ServeFlag* flag : given) {
    if (flag->needs && !flag->needs->on(run)) {
      throw InvalidArgument(std::string(flag->name) + " needs " + flag->needs->name);
    }
  }
  if (run.seqlen_dist != serve::SeqLenDist::kFixed) {
    base.catalog.apply_seqlen_dist(run.seqlen_dist);
  }
  if (run.decode) {
    const std::size_t tokens =
        Arg{"--decode", *run.decode}.count(1, serve::LengthDist::max_center(run.decode_dist));
    base.catalog.apply_decode(run.decode_dist, tokens);
    if (run.ttft_slo_s > 0.0 || run.tpot_slo_s > 0.0) {
      base.catalog.apply_token_slos(run.ttft_slo_s, run.tpot_slo_s);
    }
  }
  if (run.timeout_s > 0.0) base.catalog.apply_timeout(run.timeout_s);
  const std::size_t fleet = cfg.fleet_sizes.front();
  const bool autoscaled = kAutoscale.on(run);
  // A --slot-rate prices the slots of its spec only, so one that no slot of
  // the run can take has no effect.  The run's slots are each template
  // cycled to --fleet, plus the "<spec>@<x>" variants that --grow-scale x
  // grows.
  std::vector<std::string> slot_specs;
  const double grow_scale = base.sim.autoscaler.grow_scale;
  for (const std::vector<std::string>& t : cfg.fleet_templates) {
    for (const std::string& spec : serve::FleetConfig::cycled(t, fleet).accelerators) {
      slot_specs.push_back(spec);
      if (autoscaled && grow_scale != 1.0) {
        slot_specs.push_back(arch::scaled_spec_name(spec, grow_scale));
      }
    }
  }
  for (const auto& [spec, rate] : base.fleet.cost.slot_hour_overrides) {
    if (std::find(slot_specs.begin(), slot_specs.end(), spec) == slot_specs.end()) {
      throw InvalidArgument("--slot-rate " + spec + " has no effect: the run has no " + spec +
                            " slot");
    }
  }
  if (run.priority) base.catalog.apply_default_tiers();
  base.traffic.open.request_count = run.requests > 0 ? run.requests : 50000;

  const bool closed = kClosedLoop.on(run);
  if (closed) {
    // --requests is the total budget, split evenly across the sessions; the
    // default budget rounds down to a multiple of them.
    serve::ClosedLoopConfig& sessions = base.traffic.closed;
    const std::size_t total = base.traffic.open.request_count;
    if (run.requests % sessions.sessions != 0 || total < sessions.sessions) {
      throw InvalidArgument("--requests " + std::to_string(total) +
                            " is not a multiple of --sessions " +
                            std::to_string(sessions.sessions) +
                            ": every closed-loop session issues the same number of requests");
    }
    sessions.requests_per_session = total / sessions.sessions;
    cfg.qps = {0.0};  // never read: the sessions replace the trace
  } else if (cfg.qps.empty()) {
    const std::size_t capacity_batch =
        cfg.schedulers.front() == serve::SchedulerKind::kFifo ? 1 : cfg.max_batches.front();
    const serve::FleetConfig first = serve::FleetConfig::cycled(cfg.fleet_templates.front(), fleet);
    cfg.qps = {0.7 * serve::fleet_capacity_qps(base.catalog, first, capacity_batch)};
  }

  if (closed || base.observe.enabled()) {
    return run_single(run, run.priority || (!closed && autoscaled), json);
  }
  const std::vector<serve::CampaignPoint> points = serve::run_campaign(cfg);
  if (json) {
    JsonWriter w(std::cout);
    serve::write_campaign_json(w, cfg, points);
  } else {
    const serve::FleetConfig fleet_cfg =
        serve::FleetConfig::cycled(cfg.fleet_templates.front(), fleet);
    const std::string title = fleet_cfg.label() + " serve campaign (" +
                              serve::process_name(base.traffic.open.process) + " arrivals)";
    serve::campaign_table(points, title).print(std::cout);
    points.front().metrics.to_table("point detail").print(std::cout);
    if (run.priority || autoscaled) {
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
      const std::size_t seq = args.size() > 2 ? Arg{"seq_len", args[2]}.count(1) : 128;
      const std::size_t batch = args.size() > 3 ? Arg{"batch", args[3]}.count(1) : 1;
      const std::unique_ptr<arch::Accelerator> acc = arch::make_accelerator("tron");
      const PerfReport r = acc->estimate(
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
      const std::size_t prompt = Arg{"prompt_len", args[2]}.count(1);
      const std::size_t tokens = Arg{"tokens", args[3]}.count(1);
      const nn::TransformerConfig model = sim::transformer_by_name(args[1], prompt + tokens);
      const std::unique_ptr<arch::Accelerator> acc = arch::make_accelerator("tron");
      const PerfReport r = acc->estimate_generation(
          arch::Workload::transformer(model.name, model), prompt, tokens);
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
