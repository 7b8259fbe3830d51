// Fleet-scale serving campaigns: sweep offered QPS x scheduler x batch policy
// x fleet size over one workload catalog, producing saturation-knee tables
// (latency percentiles / goodput vs load) analogous to the paper's figure
// series.  Fleets are described by a template of `arch` registry spec names
// cycled across the slots, so one campaign config expresses homogeneous
// ({"tron"}), full+eco ({"tron", "tron-eco"}), and mixed-family
// ({"tron", "ghost"}) fleets uniformly.  Grid points are independent
// simulations, so the sweep runs in parallel via `parallel_for`; every point
// derives its trace seed from the campaign seed and its grid index, keeping
// results bit-reproducible across `LUMOS_THREADS` settings.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "serve/simulator.hpp"

namespace lumos::serve {

struct CampaignConfig {
  std::string name = "serve";
  // Spec names cycled across each fleet's slots (see FleetConfig::cycled).
  std::vector<std::string> fleet_template{"tron"};
  // Fleet-template grid axis: when non-empty these templates sweep as the
  // *outermost* axis (photonic vs electronic vs hybrid fleets in one
  // campaign); empty (the default) sweeps just `fleet_template`, and that
  // single-template enumeration is bit-identical to the pre-axis campaign.
  std::vector<std::vector<std::string>> fleet_templates;
  // Dollar-cost knobs applied at every grid point (see CostModel).
  CostModel cost;
  std::vector<double> qps;  // offered-QPS points (see fleet_capacity_qps)
  std::vector<SchedulerKind> schedulers{SchedulerKind::kFifo, SchedulerKind::kDynamicBatch};
  std::vector<std::size_t> fleet_sizes{4};
  std::vector<std::size_t> max_batches{8};  // dynamic batching only
  // Autoscaling grid axis; {kNone} (the default) keeps fleets static.  The
  // non-policy knobs (interval, thresholds, slot bounds) come from
  // `autoscale`, whose own `policy` field is overridden per grid point.
  std::vector<AutoscalerPolicy> autoscalers{AutoscalerPolicy::kNone};
  AutoscalerConfig autoscale;
  // Admission-control grid axis; {kNone} (the default) admits everything.
  // The non-policy knobs (queue cap, tier factor, SLO margin) come from
  // `admission`, whose own `policy` field is overridden per grid point.
  std::vector<AdmissionPolicy> admissions{AdmissionPolicy::kNone};
  AdmissionConfig admission;
  // Fault-injection grid axis: per-slot MTBF points in seconds; {0.0} (the
  // default) disables injection.  MTTR and the fault seed come from `faults`,
  // whose own `mtbf_s` field is overridden per grid point.
  std::vector<double> fault_mtbfs_s{0.0};
  FaultConfig faults;
  // Retry policy applied at every grid point (default: no retries).
  RetryPolicy retry;
  // Percentile computation at every grid point (see PercentileMode): kExact
  // (default, bit-identical) or the bounded-error kHdr sketch for huge
  // per-point request counts.
  PercentileMode percentile_mode = PercentileMode::kExact;
  double hdr_relative_error = 0.01;
  // Decode-phase scheduling at every grid point (see DecodeMode); only
  // matters when the catalog's entries decode.
  DecodeMode decode_mode = DecodeMode::kContinuous;
  double max_wait_s = 2e-3;
  std::size_t requests_per_point = 100000;
  // Cell-sharded simulation per grid point (see shard.hpp): every point runs
  // as `cells` independent cells.  1 (the default) is the serial simulator,
  // bit-identical to pre-shard campaigns.  Note grid points already
  // parallelise across the pool; cells > 1 mainly helps sparse grids of huge
  // points.
  std::size_t cells = 1;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  RoutingPolicy routing = RoutingPolicy::kFirstIdle;
  double slo_scale = 10.0;
  std::uint64_t seed = 1;
};

// Throws `InvalidArgument` naming the offending field for empty/non-positive
// sweep axes (qps, schedulers, fleet sizes, batches, requests, template).
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
// the point's axes over the config's shared knobs, with a trace seed mixed
// from the campaign seed and `index`.  The CLI's single-run paths build
// their runs as point 0, so a traced run reproduces the first sweep point.
[[nodiscard]] Scenario campaign_scenario(const CampaignConfig& config,
                                         const WorkloadCatalog& catalog,
                                         const CampaignPoint& point, std::size_t index);

// Runs every grid point (in parallel) and returns them in grid order.
// Validates `config` (see validate_campaign) and the catalog's coverage.
[[nodiscard]] std::vector<CampaignPoint> run_campaign(const CampaignConfig& config,
                                                      const WorkloadCatalog& catalog);

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
