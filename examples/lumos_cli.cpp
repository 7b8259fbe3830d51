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
//                        lengths for transformer tenants (default fixed)
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
//     --max-batch <n>    dynamic-batch cap (default 8)
//     --max-wait-us <w>  dynamic-batch deadline (default 2000)
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
//                        (repeatable; overrides the static-draw default)
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
//                        (default 256; needs --admission)
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
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
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
  std::cout << "{\n"
            << "  \"platform\": \"" << json_escape(r.platform) << "\",\n"
            << "  \"workload\": \"" << json_escape(r.workload) << "\",\n"
            << "  \"latency_s\": " << r.latency_s << ",\n"
            << "  \"ops_per_second\": " << r.ops_per_second() << ",\n"
            << "  \"energy_per_bit_j\": " << r.energy_per_bit_j() << ",\n"
            << "  \"dynamic_energy_j\": " << r.dynamic_energy_j << ",\n"
            << "  \"static_energy_j\": " << r.static_energy_j << ",\n"
            << "  \"total_energy_j\": " << r.total_energy_j << ",\n"
            << "  \"average_power_w\": " << r.average_power_w() << ",\n"
            << "  \"op_count\": " << r.op_count << ",\n"
            << "  \"bits\": " << r.bits << ",\n"
            << "  \"memory_stall_s\": " << r.breakdown.memory_stall_s << ",\n"
            << "  \"breakdown\": [\n";
  const std::vector<arch::BreakdownEntry> entries = arch::breakdown_entries(r);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::cout << "    {\"stage\": \"" << entries[i].stage
              << "\", \"time_s\": " << entries[i].time_s
              << ", \"energy_j\": " << entries[i].energy_j << "}"
              << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
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

void print_names_json(const char* key, const std::vector<std::string>& names, bool last) {
  std::cout << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << "\"" << json_escape(names[i]) << "\"" << (i + 1 < names.size() ? ", " : "");
  }
  std::cout << "]" << (last ? "" : ",") << "\n";
}

// `list`: every name the registries and serve enums accept, so scripts can
// discover valid arguments without parsing usage text.
int run_list(bool json) {
  if (json) {
    std::cout << "{\n";
    print_names_json("transformer_models", sim::transformer_names(), false);
    print_names_json("gnn_models", sim::gnn_names(), false);
    print_names_json("datasets", sim::dataset_names(), false);
    print_names_json("accelerator_specs", arch::spec_names(), false);
    print_names_json("arrival_processes", serve::process_names(), false);
    print_names_json("schedulers", serve::scheduler_names(), false);
    print_names_json("routing_policies", serve::routing_names(), false);
    print_names_json("autoscalers", serve::autoscaler_names(), false);
    print_names_json("loop_modes", serve::loop_mode_names(), false);
    print_names_json("seqlen_dists", serve::seqlen_dist_names(), false);
    print_names_json("admission_policies", serve::admission_names(), false);
    print_names_json("completion_statuses", serve::completion_status_names(), false);
    print_names_json("percentile_modes", serve::percentile_mode_names(), false);
    print_names_json("decode_dists", serve::seqlen_dist_names(), false);
    print_names_json("decode_modes", serve::decode_mode_names(), true);
    std::cout << "}\n";
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

// `"profile": {...}` JSON member for the event-loop self-profile (no
// surrounding comma).
std::string profile_json(const serve::EventLoopProfiler& p) {
  std::ostringstream os;
  os << "\"profile\": {\"iterations\": " << p.iterations()
     << ", \"accounted_wall_s\": " << p.accounted_wall_s() << ", \"sources\": [";
  for (std::size_t i = 0; i < static_cast<std::size_t>(serve::LoopSource::kCount); ++i) {
    const auto src = static_cast<serve::LoopSource>(i);
    os << (i == 0 ? "" : ", ") << "{\"source\": \""
       << json_escape(serve::loop_source_name(src)) << "\", \"events\": " << p.events(src)
       << ", \"wall_s\": " << p.wall_s(src) << "}";
  }
  os << "]}";
  return os.str();
}

// Writes the run's trace / timeline files and (text mode) the profile table.
// JSON-mode callers splice `profile_json` into their own object instead so
// stdout stays one well-formed JSON value.
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

// `"trace": {...}` JSON member summarising the tracer's buffers.
std::string trace_summary_json(const serve::LifecycleTracer& t) {
  std::ostringstream os;
  os << "\"trace\": {\"sampled_requests\": " << t.sampled_requests()
     << ", \"request_events\": " << t.request_events().size()
     << ", \"batch_spans\": " << t.batch_spans().size()
     << ", \"dropped_requests\": " << t.dropped_requests()
     << ", \"dropped_batch_spans\": " << t.dropped_batch_spans() << "}";
  return os.str();
}

// Closed-loop runs bypass the (offered-QPS-sweeping) campaign machinery: one
// Scenario, one simulate, metric + tenant tables or a flat JSON object.
int run_closed_loop(serve::Scenario scenario, const serve::ClosedLoopConfig& closed,
                    std::size_t cells, bool priority, bool json, const ObserveOut& out) {
  scenario.traffic.mode = serve::LoopMode::kClosed;
  scenario.traffic.closed = closed;
  serve::Observation obs;
  const serve::FleetMetrics m =
      cells > 1 ? serve::simulate_sharded(scenario, cells)
                : serve::simulate(scenario, scenario.observe.enabled() ? &obs : nullptr);
  if (json) {
    std::cout << "{\n"
              << "  \"fleet\": \"" << json_escape(scenario.fleet.label()) << "\",\n"
              << "  \"loop\": \"closed\",\n"
              << "  \"sessions\": " << m.sessions << ",\n"
              << "  \"completed\": " << m.completed << ",\n"
              << "  \"throughput_qps\": " << m.throughput_qps << ",\n"
              << "  \"goodput_qps\": " << m.goodput_qps << ",\n"
              << "  \"slo_attainment\": " << m.slo_attainment << ",\n"
              << "  \"p50_latency_s\": " << m.p50_latency_s << ",\n"
              << "  \"p99_latency_s\": " << m.p99_latency_s << ",\n"
              << "  \"mean_session_s\": " << m.mean_session_s << ",\n"
              << "  \"p50_session_s\": " << m.p50_session_s << ",\n"
              << "  \"p99_session_s\": " << m.p99_session_s << ",\n"
              << "  \"max_session_s\": " << m.max_session_s << ",\n"
              << "  \"mean_batch\": " << m.mean_batch_size << ",\n"
              << "  \"fleet_energy_j\": " << m.fleet_energy_j << ",\n"
              << "  \"fleet_cost_usd\": " << m.fleet_cost_usd << ",\n"
              << "  \"cost_per_request_usd\": " << m.cost_per_request_usd << ",\n"
              << "  \"estimate_lookups\": " << m.estimate_lookups << ",\n"
              << "  \"estimate_misses\": " << m.estimate_misses << ",\n"
              << "  \"shed\": " << m.shed_requests << ",\n"
              << "  \"timed_out\": " << m.timed_out_requests << ",\n"
              << "  \"retries\": " << m.retried_attempts << ",\n"
              << "  \"drop_rate\": " << m.drop_rate << ",\n"
              << "  \"availability\": " << m.fleet_availability;
    if (obs.tracer) std::cout << ",\n  " << trace_summary_json(*obs.tracer);
    if (obs.timeline) std::cout << ",\n  \"timeline_windows\": " << obs.timeline->windows().size();
    if (obs.profiler) std::cout << ",\n  " << profile_json(*obs.profiler);
    std::cout << "\n}\n";
  } else {
    m.to_table(scenario.fleet.label() + " closed-loop serve").print(std::cout);
    if (priority) m.tenant_table("per-tenant breakdown").print(std::cout);
  }
  export_observation(obs, out, json);
  return 0;
}

// Observed open-loop runs also bypass the campaign: one Scenario built to
// match campaign grid point 0 (same derived trace seed), simulated directly
// so the observers can be handed back and exported.
int run_open_observed(const serve::CampaignConfig& cfg, const serve::WorkloadCatalog& catalog,
                      double qps, std::size_t fleet, std::size_t max_batch, bool priority,
                      const serve::ObserveConfig& observe, const ObserveOut& out, bool json) {
  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled(cfg.fleet_template, fleet, cfg.routing);
  scenario.fleet.cost = cfg.cost;
  scenario.catalog = catalog;
  scenario.scheduler = cfg.schedulers.front();
  // Campaign FIFO points pin max_batch to 1; mirror that for bit parity.
  scenario.batch.max_batch =
      cfg.schedulers.front() == serve::SchedulerKind::kFifo ? 1 : max_batch;
  scenario.batch.max_wait_s = cfg.max_wait_s;
  scenario.sim.slo_scale = cfg.slo_scale;
  scenario.sim.autoscaler = cfg.autoscale;
  scenario.sim.autoscaler.policy = cfg.autoscalers.front();
  scenario.sim.admission = cfg.admission;
  scenario.sim.admission.policy = cfg.admissions.front();
  scenario.sim.faults = cfg.faults;
  scenario.sim.faults.mtbf_s = cfg.fault_mtbfs_s.front();
  scenario.sim.retry = cfg.retry;
  scenario.sim.percentile_mode = cfg.percentile_mode;
  scenario.sim.hdr_relative_error = cfg.hdr_relative_error;
  scenario.sim.decode_mode = cfg.decode_mode;
  scenario.traffic.open.offered_qps = qps;
  scenario.traffic.open.request_count = cfg.requests_per_point;
  scenario.traffic.open.process = cfg.process;
  scenario.traffic.open.seed = cfg.seed + 0x9E3779B9u;  // campaign point 0
  scenario.observe = observe;
  serve::Observation obs;
  const serve::FleetMetrics m = serve::simulate(scenario, &obs);
  if (json) {
    std::cout << "{\n"
              << "  \"fleet\": \"" << json_escape(scenario.fleet.label()) << "\",\n"
              << "  \"loop\": \"open\",\n"
              << "  \"offered_qps\": " << qps << ",\n"
              << "  \"requests\": " << cfg.requests_per_point << ",\n"
              << "  \"completed\": " << m.completed << ",\n"
              << "  \"throughput_qps\": " << m.throughput_qps << ",\n"
              << "  \"goodput_qps\": " << m.goodput_qps << ",\n"
              << "  \"slo_attainment\": " << m.slo_attainment << ",\n"
              << "  \"p50_latency_s\": " << m.p50_latency_s << ",\n"
              << "  \"p99_latency_s\": " << m.p99_latency_s << ",\n"
              << "  \"p999_latency_s\": " << m.p999_latency_s << ",\n"
              << "  \"mean_batch\": " << m.mean_batch_size << ",\n"
              << "  \"fleet_energy_j\": " << m.fleet_energy_j << ",\n"
              << "  \"fleet_cost_usd\": " << m.fleet_cost_usd << ",\n"
              << "  \"cost_per_request_usd\": " << m.cost_per_request_usd << ",\n"
              << "  \"shed\": " << m.shed_requests << ",\n"
              << "  \"timed_out\": " << m.timed_out_requests << ",\n"
              << "  \"retries\": " << m.retried_attempts << ",\n"
              << "  \"drop_rate\": " << m.drop_rate << ",\n"
              << "  \"availability\": " << m.fleet_availability;
    if (obs.tracer) std::cout << ",\n  " << trace_summary_json(*obs.tracer);
    if (obs.timeline) std::cout << ",\n  \"timeline_windows\": " << obs.timeline->windows().size();
    if (obs.profiler) std::cout << ",\n  " << profile_json(*obs.profiler);
    std::cout << "\n}\n";
  } else {
    m.to_table(scenario.fleet.label() + " observed open-loop serve").print(std::cout);
    if (priority || cfg.autoscalers.front() != serve::AutoscalerPolicy::kNone) {
      m.tenant_table("per-tenant breakdown").print(std::cout);
    }
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
    std::vector<std::string> specs;
    std::string rest = args[0];
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      specs.push_back(rest.substr(0, comma));
      if (specs.back().empty()) {
        throw InvalidArgument("serve fleet spec list has an empty entry: " + args[0]);
      }
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
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
  bool sessions_given = false;
  // Mode-gated knobs: track use so a knob without its enabling mode errors
  // instead of being silently ignored.
  std::string knob_without_policy;
  std::string open_only_flag;
  std::string closed_only_flag;
  double mtbf_s = 0.0;
  double timeout_s = 0.0;
  std::size_t decode_tokens = 0;  // 0: decode off
  serve::SeqLenDist decode_dist = serve::SeqLenDist::kFixed;
  bool decode_dist_given = false;
  bool decode_mode_given = false;
  double ttft_slo_s = 0.0;
  double tpot_slo_s = 0.0;
  bool mttr_given = false;
  bool retries_given = false;
  bool queue_cap_given = false;
  serve::ObserveConfig observe;
  ObserveOut out;
  bool trace_sample_given = false;
  bool window_given = false;
  bool hdr_error_given = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw InvalidArgument(a + " needs a value");
      return args[++i];
    };
    if (a == "--loop") {
      loop = serve::loop_mode_from_name(value());
    } else if (a == "--qps") {
      open_only_flag = a;
      qps = parse_double(value(), "--qps");
      if (qps <= 0.0) throw InvalidArgument("--qps must be positive");
    } else if (a == "--requests") {
      cfg.requests_per_point = parse_size(value(), "--requests");
    } else if (a == "--sessions") {
      closed_only_flag = a;
      closed.sessions = parse_size(value(), "--sessions");
      sessions_given = true;
    } else if (a == "--think-time-us") {
      closed_only_flag = a;
      closed.think_time_mean_s = parse_double(value(), "--think-time-us") * 1e-6;
      if (closed.think_time_mean_s < 0.0) {
        throw InvalidArgument("--think-time-us must be >= 0");
      }
    } else if (a == "--seqlen-dist") {
      catalog.apply_seqlen_dist(serve::seqlen_dist_from_name(value()));
    } else if (a == "--decode") {
      decode_tokens = parse_size(value(), "--decode");
      if (decode_tokens == 0) throw InvalidArgument("--decode must be >= 1");
    } else if (a == "--decode-dist") {
      decode_dist_given = true;
      decode_dist = serve::seqlen_dist_from_name(value());
    } else if (a == "--decode-mode") {
      decode_mode_given = true;
      cfg.decode_mode = serve::decode_mode_from_name(value());
    } else if (a == "--ttft-slo-us") {
      ttft_slo_s = parse_double(value(), "--ttft-slo-us") * 1e-6;
      if (ttft_slo_s <= 0.0) throw InvalidArgument("--ttft-slo-us must be positive");
    } else if (a == "--tpot-slo-us") {
      tpot_slo_s = parse_double(value(), "--tpot-slo-us") * 1e-6;
      if (tpot_slo_s <= 0.0) throw InvalidArgument("--tpot-slo-us must be positive");
    } else if (a == "--fleet") {
      fleet = parse_size(value(), "--fleet");
    } else if (a == "--sched") {
      cfg.schedulers = {serve::scheduler_from_name(value())};
    } else if (a == "--max-batch") {
      max_batch = parse_size(value(), "--max-batch");
    } else if (a == "--max-wait-us") {
      cfg.max_wait_s = parse_double(value(), "--max-wait-us") * 1e-6;
      if (cfg.max_wait_s < 0.0) throw InvalidArgument("--max-wait-us must be >= 0");
    } else if (a == "--bursty") {
      open_only_flag = a;
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
      const double rate = parse_double(pair.substr(eq + 1), "--slot-rate rate");
      if (rate < 0.0) throw InvalidArgument("--slot-rate rate must be >= 0");
      cfg.cost.slot_hour_overrides.emplace_back(pair.substr(0, eq), rate);
    } else if (a == "--fleets") {
      // Fleet-template grid axis: semicolon-separated templates, each a
      // comma-separated spec list, swept as the outermost campaign axis.
      const std::string grid = value();
      cfg.fleet_templates.clear();
      std::string rest_templates = grid;
      while (true) {
        const std::size_t semi = rest_templates.find(';');
        std::string entry = rest_templates.substr(0, semi);
        std::vector<std::string> specs;
        while (!entry.empty()) {
          const std::size_t comma = entry.find(',');
          specs.push_back(entry.substr(0, comma));
          if (specs.back().empty()) {
            throw InvalidArgument("--fleets template has an empty spec: '" + grid + "'");
          }
          (void)arch::is_platform_spec(specs.back());  // registry name validation
          entry = comma == std::string::npos ? "" : entry.substr(comma + 1);
        }
        if (specs.empty()) {
          throw InvalidArgument("--fleets has an empty template: '" + grid + "'");
        }
        cfg.fleet_templates.push_back(std::move(specs));
        if (semi == std::string::npos) break;
        rest_templates = rest_templates.substr(semi + 1);
      }
    } else if (a == "--seed") {
      cfg.seed = parse_size(value(), "--seed");
    } else if (a == "--priority") {
      priority = true;
    } else if (a == "--autoscale") {
      cfg.autoscalers = {serve::autoscaler_from_name(value())};
    } else if (a == "--scale-interval-us") {
      knob_without_policy = a;
      cfg.autoscale.interval_s = parse_double(value(), "--scale-interval-us") * 1e-6;
      if (cfg.autoscale.interval_s <= 0.0) {
        throw InvalidArgument("--scale-interval-us must be positive");
      }
    } else if (a == "--min-fleet") {
      knob_without_policy = a;
      cfg.autoscale.min_slots = parse_size(value(), "--min-fleet");
    } else if (a == "--max-fleet") {
      knob_without_policy = a;
      cfg.autoscale.max_slots = parse_size(value(), "--max-fleet");
    } else if (a == "--grow-scale") {
      knob_without_policy = a;
      cfg.autoscale.grow_scale = parse_double(value(), "--grow-scale");
      if (cfg.autoscale.grow_scale <= 0.0) {
        throw InvalidArgument("--grow-scale must be positive");
      }
    } else if (a == "--mtbf-us") {
      mtbf_s = parse_double(value(), "--mtbf-us") * 1e-6;
      if (mtbf_s <= 0.0) throw InvalidArgument("--mtbf-us must be positive");
    } else if (a == "--mttr-us") {
      mttr_given = true;
      cfg.faults.mttr_s = parse_double(value(), "--mttr-us") * 1e-6;
      if (cfg.faults.mttr_s <= 0.0) throw InvalidArgument("--mttr-us must be positive");
    } else if (a == "--timeout-us") {
      timeout_s = parse_double(value(), "--timeout-us") * 1e-6;
      if (timeout_s <= 0.0) throw InvalidArgument("--timeout-us must be positive");
    } else if (a == "--retries") {
      retries_given = true;
      cfg.retry.max_attempts = parse_size(value(), "--retries");
      if (cfg.retry.max_attempts == 0) throw InvalidArgument("--retries must be >= 1");
    } else if (a == "--admission") {
      cfg.admissions = {serve::admission_from_name(value())};
    } else if (a == "--queue-cap") {
      queue_cap_given = true;
      cfg.admission.queue_cap = parse_size(value(), "--queue-cap");
      if (cfg.admission.queue_cap == 0) throw InvalidArgument("--queue-cap must be >= 1");
    } else if (a == "--cells") {
      cfg.cells = parse_size(value(), "--cells");
      if (cfg.cells == 0) throw InvalidArgument("--cells must be >= 1");
    } else if (a == "--percentiles") {
      cfg.percentile_mode = serve::percentile_mode_from_name(value());
    } else if (a == "--hdr-error") {
      hdr_error_given = true;
      cfg.hdr_relative_error = parse_double(value(), "--hdr-error");
      if (!(cfg.hdr_relative_error > 0.0 && cfg.hdr_relative_error < 1.0)) {
        throw InvalidArgument("--hdr-error must be in (0, 1)");
      }
    } else if (a == "--trace-out") {
      out.trace_path = value();
      if (out.trace_path.empty()) throw InvalidArgument("--trace-out needs a path");
      observe.trace.enabled = true;
    } else if (a == "--trace-sample") {
      trace_sample_given = true;
      observe.trace.sample = parse_double(value(), "--trace-sample");
      if (observe.trace.sample < 0.0 || observe.trace.sample > 1.0) {
        throw InvalidArgument("--trace-sample must be in [0, 1]");
      }
    } else if (a == "--timeline-out") {
      out.timeline_path = value();
      if (out.timeline_path.empty()) throw InvalidArgument("--timeline-out needs a path");
      observe.timeline.enabled = true;
    } else if (a == "--window-us") {
      window_given = true;
      observe.timeline.window_s = parse_double(value(), "--window-us") * 1e-6;
      if (observe.timeline.window_s <= 0.0) {
        throw InvalidArgument("--window-us must be positive");
      }
    } else if (a == "--profile") {
      observe.profile = true;
    } else {
      throw InvalidArgument("unknown serve flag: " + a);
    }
  }
  if (fleet == 0 || max_batch == 0 || cfg.requests_per_point == 0) {
    throw InvalidArgument("--fleet, --max-batch, and --requests must be positive");
  }
  if (!knob_without_policy.empty() &&
      cfg.autoscalers.front() == serve::AutoscalerPolicy::kNone) {
    throw InvalidArgument(knob_without_policy +
                          " has no effect without --autoscale queue|util");
  }
  if (loop == serve::LoopMode::kClosed && !open_only_flag.empty()) {
    throw InvalidArgument(open_only_flag + " has no effect with --loop closed");
  }
  if (loop == serve::LoopMode::kOpen && !closed_only_flag.empty()) {
    throw InvalidArgument(closed_only_flag + " has no effect without --loop closed");
  }
  if (mttr_given && mtbf_s <= 0.0) {
    throw InvalidArgument("--mttr-us has no effect without --mtbf-us");
  }
  if (retries_given && timeout_s <= 0.0) {
    throw InvalidArgument("--retries has no effect without --timeout-us");
  }
  if (queue_cap_given && cfg.admissions.front() == serve::AdmissionPolicy::kNone) {
    throw InvalidArgument("--queue-cap has no effect without --admission");
  }
  if (trace_sample_given && !observe.trace.enabled) {
    throw InvalidArgument("--trace-sample has no effect without --trace-out");
  }
  if (window_given && !observe.timeline.enabled) {
    throw InvalidArgument("--window-us has no effect without --timeline-out");
  }
  if (hdr_error_given && cfg.percentile_mode != serve::PercentileMode::kHdr) {
    throw InvalidArgument("--hdr-error has no effect without --percentiles hdr");
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
  if (decode_tokens == 0) {
    // Decode sub-knobs without --decode would be silently ignored; error like
    // the other mode-gated knobs instead.
    if (decode_dist_given) {
      throw InvalidArgument("--decode-dist has no effect without --decode");
    }
    if (decode_mode_given) {
      throw InvalidArgument("--decode-mode has no effect without --decode");
    }
    if (ttft_slo_s > 0.0) {
      throw InvalidArgument("--ttft-slo-us has no effect without --decode");
    }
    if (tpot_slo_s > 0.0) {
      throw InvalidArgument("--tpot-slo-us has no effect without --decode");
    }
  } else {
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
  if (priority) catalog.apply_default_tiers();

  if (loop == serve::LoopMode::kClosed) {
    if (sessions_given && closed.sessions == 0) {
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
    serve::Scenario scenario;
    scenario.fleet = serve::FleetConfig::cycled(cfg.fleet_template, fleet, cfg.routing);
    scenario.fleet.cost = cfg.cost;
    scenario.catalog = catalog;
    scenario.scheduler = cfg.schedulers.front();
    scenario.batch.max_batch = max_batch;
    scenario.batch.max_wait_s = cfg.max_wait_s;
    scenario.sim.slo_scale = cfg.slo_scale;
    scenario.sim.autoscaler = cfg.autoscale;
    scenario.sim.autoscaler.policy = cfg.autoscalers.front();
    scenario.sim.faults = cfg.faults;
    scenario.sim.faults.mtbf_s = mtbf_s;
    scenario.sim.retry = cfg.retry;
    scenario.sim.admission = cfg.admission;
    scenario.sim.admission.policy = cfg.admissions.front();
    scenario.sim.percentile_mode = cfg.percentile_mode;
    scenario.sim.hdr_relative_error = cfg.hdr_relative_error;
    scenario.sim.decode_mode = cfg.decode_mode;
    scenario.observe = observe;
    return run_closed_loop(std::move(scenario), closed, cfg.cells, priority, json, out);
  }

  if (qps <= 0.0) {
    const std::size_t capacity_batch =
        cfg.schedulers.front() == serve::SchedulerKind::kFifo ? 1 : max_batch;
    qps = 0.7 * serve::fleet_capacity_qps(
                    catalog, serve::FleetConfig::cycled(cfg.fleet_template, fleet),
                    capacity_batch);
  }
  cfg.qps = {qps};

  if (observe.enabled()) {
    return run_open_observed(cfg, catalog, qps, fleet, max_batch, priority, observe, out,
                             json);
  }

  const std::vector<serve::CampaignPoint> points = serve::run_campaign(cfg, catalog);
  if (json) {
    serve::write_campaign_json(cfg, points, std::cout);
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
    if (mode == "list") {
      return run_list(json);
    }
    if (args.size() < 2) return usage();
    if (mode == "tron") {
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
      const std::unique_ptr<arch::Accelerator> acc = arch::make_accelerator("ghost");
      const PerfReport r = acc->estimate(arch::Workload::gnn(
          args[1] + "/" + args[2], sim::gnn_by_name(args[1]), sim::dataset_by_name(args[2])));
      json ? print_report_json(r) : print_report(r);
      return 0;
    }
    if (mode == "generate") {
      if (args.size() < 4) return usage();
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
