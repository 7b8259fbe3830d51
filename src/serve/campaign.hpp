// Fleet-scale serving campaigns: one base Scenario swept over fleet
// template x fleet size x scheduler x batch cap x autoscaler x admission x
// fault MTBF x offered QPS, producing saturation-knee tables (latency
// percentiles and goodput against load) like the paper's figure series.  A
// fleet template is the `arch` spec names cycled across the slots, so one
// campaign compares homogeneous, full+eco, mixed-family, electronic and
// hybrid fleets.  Grid points are independent simulations, so the sweep runs
// on `parallel_for`; each point's trace seed mixes the base seed with its
// grid index, keeping results bit-reproducible across `LUMOS_THREADS`.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "serve/simulator.hpp"

namespace lumos::serve {

struct CampaignConfig {
  std::string name = "serve";
  // Cell-sharded simulation per grid point (see shard.hpp): every point runs
  // as `cells` independent cells.  1 (the default) is the serial simulator.
  // Grid points already parallelise across the pool; cells > 1 mainly helps
  // sparse grids of huge points.
  std::size_t cells = 1;
  // Everything the axes leave alone: the catalog, routing and cost, the
  // batch deadline, the sim knobs (the autoscaler, admission and fault
  // configs whose policy or MTBF an axis sets) and the open-loop traffic
  // (request count, arrival process, campaign seed).  A campaign sweeps
  // offered load, so the base serves generated open-loop traffic with no
  // observers.
  Scenario base;
  // The grid axes, outermost first; each grid point copies `base` and sets
  // only its axis values (see campaign_scenario).
  std::vector<std::vector<std::string>> fleet_templates{{"tron"}};
  std::vector<std::size_t> fleet_sizes{4};
  std::vector<SchedulerKind> schedulers{SchedulerKind::kFifo, SchedulerKind::kDynamicBatch};
  std::vector<std::size_t> max_batches{8};  // dynamic batching only
  std::vector<AutoscalerPolicy> autoscalers{AutoscalerPolicy::kNone};
  std::vector<AdmissionPolicy> admissions{AdmissionPolicy::kNone};
  std::vector<double> fault_mtbfs_s{0.0};  // per-slot MTBF; 0 injects no faults
  std::vector<double> qps;  // offered-QPS points (see fleet_capacity_qps)
};

// Throws `InvalidArgument` naming the offending field for empty or
// out-of-range axes, `cells` above a fleet size, or a base with an explicit
// trace, observers or closed-loop traffic; then validates every grid point's
// Scenario (see validate_scenario).
void validate_campaign(const CampaignConfig& config);

struct CampaignPoint {
  // Spec names cycled across this point's slots (the template that produced
  // it; "a+b" joins of these label tables and JSON).
  std::vector<std::string> fleet_template;
  double qps = 0.0;
  SchedulerKind scheduler = SchedulerKind::kFifo;
  std::size_t fleet_size = 0;  // initial fleet size of elastic points
  std::size_t max_batch = 1;
  AutoscalerPolicy autoscaler = AutoscalerPolicy::kNone;
  AdmissionPolicy admission = AdmissionPolicy::kNone;
  double fault_mtbf_s = 0.0;  // 0: no fault injection at this point
  FleetMetrics metrics;
};

// The campaign's grid points in grid order, with empty metrics.
[[nodiscard]] std::vector<CampaignPoint> campaign_grid(const CampaignConfig& config);

// The Scenario that `point`, grid point `index` of the campaign, simulates:
// `config.base` with the point's axis values and a trace seed mixed from the
// base seed and `index`.  The CLI's single-run paths build their runs as
// point 0, so a traced run reproduces the first sweep point.
[[nodiscard]] Scenario campaign_scenario(const CampaignConfig& config,
                                         const CampaignPoint& point, std::size_t index);

// Runs every grid point (in parallel) and returns them in grid order.
// Validates `config` (see validate_campaign) and the catalog's coverage.
[[nodiscard]] std::vector<CampaignPoint> run_campaign(const CampaignConfig& config);

// Unloaded capacity estimate of a `fleet_size` fleet of `spec` at a fixed
// batch size: fleet_size / (mix-weighted mean per-request service time over
// the workloads the spec can serve).  Entries with a sampled sequence-length
// distribution are priced at their *expected* service time (fixed-seed Monte
// Carlo over the entry's distribution), not the native length, so overload
// sweeps expressed as multiples of capacity stay honest for lognormal
// catalogs.  Decode-enabled entries additionally price their expected decode
// time ((E[tokens] - 1) steps at the native context, amortised over the
// batch's lanes), so decode capacity multiples stay honest too; decode-free
// catalogs price exactly as before.  Use it to place QPS points around the
// saturation knee.
[[nodiscard]] double fleet_capacity_qps(const WorkloadCatalog& catalog,
                                        const std::string& spec, std::size_t fleet_size,
                                        std::size_t batch);

// Unloaded capacity of an arbitrary (possibly mixed-family) fleet: for each
// workload kind, the kind's slots sustain sum(1/service) requests/s, and the
// offered load splits by mix weight — so the fleet saturates at
// min over kinds of (kind capacity / kind traffic fraction).
[[nodiscard]] double fleet_capacity_qps(const WorkloadCatalog& catalog,
                                        const FleetConfig& fleet, std::size_t batch);

// One row per grid point: load, scheduler, tail latencies, goodput, energy.
[[nodiscard]] Table campaign_table(const std::vector<CampaignPoint>& points,
                                   const std::string& title);

// Machine-readable campaign dump: writes one JSON object (points as an
// array) as the root or the next element of `w`.
void write_campaign_json(JsonWriter& w, const CampaignConfig& config,
                         const std::vector<CampaignPoint>& points);

}  // namespace lumos::serve
