// Deterministic discrete-event simulation of an accelerator fleet serving a
// pluggable traffic source.
//
// The entry point is `simulate(const Scenario&)`: a `Scenario` is the whole
// run as one validated value — fleet, catalog, scheduler, batch policy, sim
// knobs, and traffic (open-loop generator knobs, closed-loop session knobs,
// or an explicit pre-materialised trace).  The event loop pulls requests from
// a `serve::TrafficSource` (see traffic.hpp) and feeds completions back, so
// closed-loop clients — whose arrivals depend on completions — plug into the
// same loop as open-loop traces.
//
// Event loop over five event sources — request arrivals (pulled from the
// traffic source, retried attempts included), batch-deadline expiries (from
// the scheduler), accelerator completions (a min-heap keyed by (time,
// dispatch seq)), slot failure/recovery transitions (the seeded fault
// process, see faults.hpp), and autoscaler evaluation steps (every
// `interval_s` of simulated time) — with a fixed processing order at equal
// timestamps (completions, then faults, then arrivals, then autoscaling,
// then dispatch).  Fleets are built from `arch` registry spec
// names and may mix fabric families (TRON + GHOST serving one mixed catalog):
// routing is kind-aware, so a request only dispatches to an idle accelerator
// that can serve it.  Priority tiers from the catalog's entries make the
// scheduler pop strict-priority (see scheduler.hpp), and each entry's SLO
// scores its own completions (per-tenant goodput in `FleetMetrics::tenants`).
// Requests carry sampled prompt lengths (see LengthDist): batches share a
// (workload, seq-bucket) key and service times come from the seq-aware
// estimate cache.
//
// Autoregressive decode: requests carrying a sampled decode length (see
// DecodeConfig) split into a prefill phase and per-token decode steps.  A
// slot whose batch finishes its prefill keeps the requests as decode lanes
// and re-enters the event loop at every token boundary through the same
// completion heap; under `DecodeMode::kContinuous` the scheduler admits
// waiting prefills of the same workload into free lanes at those boundaries
// (continuous batching).  Lanes store no token counters: a slot counts its
// completed steps and keeps the earliest count at which a lane finishes, and
// each lane derives its tokens from that count and the count when it joined.
// So a boundary that changes only counters (no lane finishes, no joiner can
// board) counts the step, moves no lane, and starts the next step at the
// slot's cached price without the joiner scan; only the estimate cache's
// lookup count differs from re-pricing the step.  Decode-free runs are
// bit-identical to the pre-decode event loop.
//
// Elastic fleets: an enabled autoscaler grows per-spec-family slot counts by
// instantiating registry-named accelerators mid-simulation and shrinks them
// by draining (no new dispatches, in-flight batch completes) before retiring,
// so the (time, seq) total order — and with it bit-reproducibility — is
// preserved.  A disabled autoscaler and all-zero priorities are bit-identical
// to the static single-tier simulator.
//
// Service times and energies come from the per-spec `EstimateCache`, so the
// loop's cost per request is a queue push, a heap push/pop, and one probe of
// an open-addressing index: millions of requests simulate in seconds.  The
// loop itself is serial and allocation-light; campaigns parallelise over grid
// points (see campaign.hpp).  Results are bit-reproducible for a fixed scenario across
// runs and `LUMOS_THREADS` settings — seeded sources keep that true through
// the closed-loop feedback path.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "serve/autoscaler.hpp"
#include "serve/cache.hpp"
#include "serve/faults.hpp"
#include "serve/metrics.hpp"
#include "serve/observe.hpp"
#include "serve/scheduler.hpp"
#include "serve/trace.hpp"
#include "serve/traffic.hpp"
#include "serve/workload.hpp"

namespace lumos::serve {

// How a dispatched batch picks among idle accelerators that can serve it.
enum class RoutingPolicy {
  kFirstIdle,     // lowest-index compatible idle accelerator
  kEnergyAware,   // compatible idle accelerator with the lowest predicted batch energy
  kCostAware,     // cheapest compatible idle slot still predicted to make the
                  // tenant's SLO (slot-hour rate x latency + $/J x energy);
                  // falls back to first-idle when no candidate can make it
};

// Dollar-cost knobs of a fleet: amortised slot-hour rates (capex + hosting)
// plus marginal energy price.  A slot's default hourly rate derives from its
// static draw (idle board power x `usd_per_watt_hour`, a hosting-cost proxy
// that needs no per-spec table); `slot_hour_overrides` pins exact $/slot-hour
// figures per spec name where known.  `kCostAware` routing and the
// `FleetMetrics` cost fields both price through this model.
struct CostModel {
  // Hosting $/W/h applied to a slot's static power for its default rate.
  double usd_per_watt_hour = 0.01;
  // Marginal energy price (default: $0.10/kWh).
  double usd_per_joule = 0.10 / 3.6e6;
  // (spec name, $/slot-hour) pairs; the first match wins over the default.
  std::vector<std::pair<std::string, double>> slot_hour_overrides;

  // The amortised hourly rate of a slot of `spec` whose static draw is
  // `static_power_w`.
  [[nodiscard]] double slot_hour_rate(const std::string& spec,
                                      double static_power_w) const;
};

// How a slot running a decode batch treats its free lanes at token boundaries
// (only meaningful when some catalog entry decodes — see DecodeConfig).
//
//   * kMonolithic — the prefill batch decodes to completion as one unit; lanes
//     that finish early sit empty until the whole batch drains (the classic
//     static-batching baseline, with its head-of-line TTFT penalty).
//   * kContinuous — at every token boundary the scheduler may admit waiting
//     prefills of the same workload into the free lanes (Orca/vLLM-style
//     continuous batching).  A joining step pays the joiners' prefill on top
//     of the decode step, so running lanes see the interference as TPOT
//     jitter while waiting requests see dramatically better TTFT.
enum class DecodeMode {
  kMonolithic,
  kContinuous,
};

struct FleetConfig {
  // One `arch` registry spec name per fleet slot ("tron", "ghost-eco", ...).
  std::vector<std::string> accelerators;
  RoutingPolicy routing = RoutingPolicy::kFirstIdle;
  // Dollar-cost knobs (always on: every run reports fleet/request cost).
  CostModel cost;

  [[nodiscard]] static FleetConfig homogeneous(
      const std::string& spec, std::size_t count,
      RoutingPolicy routing = RoutingPolicy::kFirstIdle);
  // Cycles `specs` across `count` slots: full/eco variants ({"tron",
  // "tron-eco"}), mixed TRON+GHOST fleets, photonic+electronic hybrids.
  [[nodiscard]] static FleetConfig cycled(
      const std::vector<std::string>& specs, std::size_t count,
      RoutingPolicy routing = RoutingPolicy::kFirstIdle);

  // "a+b+c" join of the distinct spec names, in slot order (labels, JSON).
  [[nodiscard]] std::string label() const;
};

// Simulation-wide fallback SLO for goodput: kSloScale times the slowest
// workload's unloaded batch-1 latency, each workload scored on the first
// fleet slot that can serve it.  Catalog entries with their own
// `slo_latency_s` are scored against that instead (per-tenant SLOs).
inline constexpr double kSloScale = 10.0;

struct SimConfig {
  // Elastic serving; `policy == kNone` (the default) keeps the fleet static.
  AutoscalerConfig autoscaler;
  // Robustness knobs (see faults.hpp); all disabled by default, and disabled
  // runs are bit-identical to the pre-fault simulator.  Failed slots abort
  // their in-flight batch (requests requeue) and drop out of routing and
  // autoscaling until they recover; timed-out attempts (per-entry
  // `CatalogEntry.timeout_s`) retry under `retry` until the budget runs out;
  // `admission` is consulted at every arrival.
  FaultConfig faults;
  RetryPolicy retry;
  AdmissionConfig admission;
  // Latency-percentile computation: kExact (default) sorts every sample,
  // bit-identical to the historical path; kHdr streams samples into a
  // bounded-relative-error sketch (see metrics.hpp) so memory stops scaling
  // with request count.  `hdr_relative_error` bounds the sketch's percentile
  // error in kHdr mode.
  PercentileMode percentile_mode = PercentileMode::kExact;
  double hdr_relative_error = 0.01;
  // Decode-phase scheduling (see DecodeMode).  Irrelevant — and bit-identity
  // preserving — when no request decodes.
  DecodeMode decode_mode = DecodeMode::kContinuous;
  // Retain the raw latency state (per-tenant samples or sketches, session
  // latencies) in `FleetMetrics::latency_state` so this run's metrics can be
  // merged with another's (FleetMetrics::merge needs it on both sides).
  // Sharded runs set this per cell internally; off by default because
  // exact-mode state holds every sample.
  bool keep_latency_state = false;
};

// One serving run as a value: everything `simulate` needs, validated at the
// call.  Traffic comes from `traffic` (open- or closed-loop generator knobs)
// unless `trace` is non-empty, in which case that explicit arrival-ordered
// open-loop trace is served instead (tests and replay harnesses hand-build
// traces; `traffic` is ignored then).
struct Scenario {
  FleetConfig fleet;
  WorkloadCatalog catalog;
  SchedulerKind scheduler = SchedulerKind::kDynamicBatch;
  BatchPolicy batch;
  SimConfig sim;
  TrafficConfig traffic;
  std::vector<Request> trace;
  // Observability (tracing / timeline / profiling; see observe.hpp).  All
  // disabled by default, and disabled runs are bit-identical to the
  // unobserved simulator.
  ObserveConfig observe;
};

// Throws `InvalidArgument` naming the bad field: empty fleets, empty
// catalogs, out-of-range batch policies, bad traffic knobs (non-positive
// offered QPS / request counts / sessions / think times), explicit-trace
// requests naming workload indices outside the catalog or arriving out of
// order (non-finite, negative, or earlier than the request before), and bad
// autoscaler, fault, retry, or admission configs.
void validate_scenario(const Scenario& scenario);

// Simulates the scenario (`fleet.accelerators` are the initial slots of an
// elastic run).  Validates via `validate_scenario`; also throws for catalogs
// with workloads no fleet accelerator can serve.  When `scenario.observe`
// enables observers and `observation` is non-null, the run's observers are
// moved into it after the loop drains (export via their write_* methods);
// observers never change the returned metrics.
[[nodiscard]] FleetMetrics simulate(const Scenario& scenario,
                                    Observation* observation = nullptr);

}  // namespace lumos::serve
