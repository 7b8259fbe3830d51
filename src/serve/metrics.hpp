// Result metrics of one serving simulation: tail-latency percentiles,
// goodput, queueing behaviour, batching behaviour, fleet energy, autoscaling
// activity, and a per-tenant (per catalog entry) breakdown with each tenant's
// own SLO attainment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace lumos::serve {

// Exact nearest-rank percentile (q in [0, 1]) of `samples`; sorts in place.
// 0 for an empty vector.  The tests' reference: the library reads sorted runs.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);

// An ascending run of latency samples and their sum.  Built from samples in
// arrival order: the sum adds them in that order (bit-identical to a running
// sum), then the run sorts once.  Percentiles are index reads and merging is
// linear, so no later step ever re-sorts.
class SampleRun {
 public:
  SampleRun() = default;
  explicit SampleRun(std::vector<double> samples);

  // Linear merge of `other`'s run into this one; the sums add.
  void merge(const SampleRun& other);

  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  // sum / count, max and nearest-rank percentile (q in [0, 1]); 0 when empty.
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double max() const noexcept { return empty() ? 0.0 : values_.back(); }
  [[nodiscard]] double percentile(double q) const;

 private:
  std::vector<double> values_;  // ascending
  double sum_ = 0.0;
};

// Nearest-rank percentile (q in [0, 1]) of the union of `runs`, selected
// without merging them: always one of their elements, bit-equal to
// percentile() over their concatenation.  0 when every run is empty.
[[nodiscard]] double percentile_of_runs(std::span<const SampleRun> runs, double q);

// How a simulation computes its latency percentiles (SimConfig.percentile_mode).
// kExact stores and sorts every latency sample (bit-identical to the
// historical path, the default); kHdr streams samples into a bounded-error
// `lumos::HdrHistogram` (SimConfig.hdr_relative_error) so percentile memory
// stops scaling with request count — the 100M-request-scale path.  Mean, max,
// and every counter stay exact in both modes.
enum class PercentileMode {
  kExact,
  kHdr,
};

// Per-tenant slice of a simulation: one catalog entry's completions scored
// against that entry's own SLO (falling back to the simulation-wide SLO when
// the entry does not set one).
struct TenantMetrics {
  std::string name;
  std::uint32_t priority = 0;     // scheduler tier (lower = more urgent)
  double slo_latency_s = 0.0;     // the SLO this tenant was scored against
  std::size_t completed = 0;
  std::size_t within_slo = 0;     // completions within the SLO (merge-exact counter)
  double slo_attainment = 0.0;    // fraction of completions within the SLO
  double goodput_qps = 0.0;       // within-SLO completions / duration
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  // Robustness (all zero when admission/timeouts are disabled).
  std::size_t shed = 0;       // rejected at admission
  std::size_t timed_out = 0;  // deadline exceeded, retries exhausted
  double drop_rate = 0.0;     // (shed + timed_out) / issued
  // Dollars attributed to this tenant's completions: served slot-time at the
  // slot's hourly rate plus batch energy at the fleet's $/J (see CostModel).
  // Sums across tenants to <= fleet_cost_usd (idle burn is unattributed).
  double cost_usd = 0.0;
};

// One slot's availability under fault injection (see FaultConfig).
struct SlotAvailability {
  std::string spec;                // registry spec name of the slot
  std::size_t failures = 0;        // failure transitions within the active window
  std::size_t repairs = 0;         // completed repairs
  double uptime_fraction = 1.0;    // up time / active-window time
  double observed_mttr_s = 0.0;    // mean completed repair duration
};

// Raw latency state of a simulation, which finalize() reads and a run can
// retain for exact cross-run merging (SimConfig.keep_latency_state; sharded
// runs always retain it per cell).  kExact mode keeps every per-tenant
// sample; kHdr keeps the per-tenant sketches instead.  `FleetMetrics::merge`
// merges whichever is present, so merged percentiles are those of the union
// multiset.  Every retained sample vector is ascending: each is a SampleRun,
// sorted once where it is produced (the simulator's end of run, the
// closed-loop source's finish).
struct LatencyState {
  bool hdr = false;                      // which representation is live
  double hdr_relative_error = 0.01;      // sketch eps (kHdr; must match to merge)
  std::vector<SampleRun> tenant_samples; // kExact: per tenant
  std::vector<HdrHistogram> tenant_hist; // kHdr: per tenant
  SampleRun session_samples;             // closed-loop session latencies
  // Per-token phase latencies of decode requests (kept exact in both
  // percentile modes: decode requests are a slice of the traffic, not the
  // 100M-request firehose the hdr sketches exist for).
  SampleRun ttft_samples;                // time to first token
  SampleRun tpot_samples;                // mean time per output token
};

// The raw sums behind the fleet means and rates that no counter can rebuild.
// Purely additive: merging two runs adds their tallies field by field.
struct Tally {
  double latency_s = 0.0;      // completed requests' latencies (mean latency)
  double busy_slot_s = 0.0;    // slot-time spent serving (utilization)
  double active_slot_s = 0.0;  // slot-time of the active windows (mean fleet size)
  double queue_depth_s = 0.0;  // time integral of the queue depth
  double window_slot_s = 0.0;  // fault-injected runs: active-window slot-time
  double down_slot_s = 0.0;    // ... of which the slots were down (availability)
  double repair_s = 0.0;       // completed repair durations (MTTR)

  Tally& operator+=(const Tally& other) noexcept;
  bool operator==(const Tally&) const = default;
};

struct FleetMetrics {
  // Traffic.
  double offered_qps = 0.0;
  std::size_t completed = 0;
  std::size_t within_slo = 0;     // completions within their SLO (merge-exact counter)
  double duration_s = 0.0;        // first arrival (t=0) to last completion
  double throughput_qps = 0.0;    // completed / duration
  double goodput_qps = 0.0;       // within-SLO completions / duration
  double slo_latency_s = 0.0;     // simulation-wide (fallback) SLO
  double slo_attainment = 0.0;    // fraction of completions within their SLO

  // Request latency (arrival -> completion).
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p999_latency_s = 0.0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;

  // Queueing.
  double mean_queue_depth = 0.0;  // time-weighted
  std::size_t peak_queue_depth = 0;

  // Batching.
  std::size_t dispatches = 0;
  std::vector<std::size_t> batch_histogram;  // [batch size] -> dispatch count
  double mean_batch_size = 0.0;

  // Energy (dispatched batches + idle static burn across the fleet).
  double fleet_energy_j = 0.0;
  double energy_per_request_j = 0.0;
  double fleet_utilization = 0.0;  // busy time / integral of active slot-time

  // Dollar cost (see CostModel): active slot-time at each slot's hourly rate
  // plus fleet energy at $/J.  Adds exactly across shard folds (disjoint
  // sub-fleets, disjoint energy); cost_per_request recomputes from the merged
  // totals.
  double fleet_cost_usd = 0.0;
  double cost_per_request_usd = 0.0;

  // Autoscaling (all zero / initial==final for static fleets).
  std::size_t autoscale_grows = 0;
  std::size_t autoscale_shrinks = 0;
  std::size_t initial_fleet_size = 0;
  std::size_t peak_fleet_size = 0;
  std::size_t final_fleet_size = 0;   // active (non-draining) slots at the end
  double mean_fleet_size = 0.0;       // time-weighted slot count

  // Robustness: faults, timeouts, retries, admission (all zero when those
  // features are disabled — the default).  `completed` above counts only kOk
  // terminals; completed + shed + timed-out == requests the source issued.
  std::size_t shed_requests = 0;       // rejected at admission (terminal)
  std::size_t timed_out_requests = 0;  // timeout with no retry budget (terminal)
  std::size_t attempt_timeouts = 0;    // attempts past their deadline (retried or not)
  std::size_t retried_attempts = 0;    // re-issued attempts
  std::size_t failed_batches = 0;      // in-flight batches aborted by slot failure
  std::size_t requeued_requests = 0;   // requests requeued by those aborts
  std::size_t slot_failures = 0;       // failure transitions across the fleet
  std::size_t slot_recoveries = 0;     // recovery transitions across the fleet
  double drop_rate = 0.0;              // (shed + timed-out) / issued requests
  double fleet_availability = 1.0;     // up slot-time / active slot-time
  double observed_mttr_s = 0.0;        // mean completed repair duration
  // Per-slot availability, slot order (filled only under fault injection).
  std::vector<SlotAvailability> slot_availability;

  // Per-tenant breakdown, one entry per catalog entry (catalog order).
  std::vector<TenantMetrics> tenants;

  // Closed-loop sessions (all zero for open-loop scenarios).  Session latency
  // is end to end: a session's first issue to its last completion, think
  // times included.
  std::size_t sessions = 0;
  double mean_session_s = 0.0;
  double p50_session_s = 0.0;
  double p99_session_s = 0.0;
  double max_session_s = 0.0;

  // Autoregressive decode (all zero when no catalog entry decodes — the
  // default — so pre-decode scenarios report bit-identical metrics).  TTFT is
  // arrival to first generated token (prefill end); TPOT is a completed
  // request's mean decode-step time, (last token - first token) / (tokens-1),
  // defined for requests generating >= 2 tokens.
  std::size_t decode_requests = 0;        // completions that generated tokens
  std::size_t generated_tokens = 0;       // tokens generated by completions
  std::size_t aborted_decode_tokens = 0;  // tokens lost to mid-decode slot failures
  std::size_t decode_steps = 0;           // token-boundary steps the fleet ran
  double tokens_per_s = 0.0;              // generated_tokens / duration
  double mean_ttft_s = 0.0;
  double p50_ttft_s = 0.0;
  double p95_ttft_s = 0.0;
  double p99_ttft_s = 0.0;
  double max_ttft_s = 0.0;
  double mean_tpot_s = 0.0;
  double p50_tpot_s = 0.0;
  double p95_tpot_s = 0.0;
  double p99_tpot_s = 0.0;
  double max_tpot_s = 0.0;
  // Per-token SLO attainment over decode completions whose entry sets the
  // matching SLO (merge-exact counters; attainment is 1 with no such SLO).
  std::size_t ttft_slo_requests = 0;
  std::size_t within_ttft_slo = 0;
  std::size_t tpot_slo_requests = 0;
  std::size_t within_tpot_slo = 0;
  double ttft_attainment = 1.0;
  double tpot_attainment = 1.0;
  // Decode-batch occupancy: [active lanes] -> decode-step count (index 0
  // unused).  Mean is lane-steps / steps — how full the decode batches ran,
  // the number continuous batching exists to raise.
  std::vector<std::size_t> decode_occupancy;
  double mean_decode_occupancy = 0.0;

  // Estimate-cache effectiveness, summed over the fleet's per-spec caches.
  std::size_t estimate_lookups = 0;
  std::size_t estimate_misses = 0;

  // Raw sums behind the derived means and rates (see Tally).
  Tally tally;

  // Retained raw latency state (null unless SimConfig.keep_latency_state was
  // set — sharded cell runs set it so the merge can recompute percentiles
  // exactly).  shared_ptr keeps FleetMetrics cheaply copyable.
  std::shared_ptr<LatencyState> latency_state;

  // Hit fraction (1.0 for a lookup-free run so an untouched cache never reads
  // as "all misses").
  [[nodiscard]] double estimate_hit_rate() const noexcept;

  // Folds `other` — the metrics of an *independent, concurrently simulated*
  // partition (a shard cell, a disjoint sub-fleet) — into this object: raw
  // sums add, then the one finalize() derives every rate, mean, attainment
  // and percentile from them.  Nothing is rebuilt from a derived value, so a
  // pairwise merge gives the same bits in either order.
  //
  //   * Add: every counter, histogram, dollar and energy total, the tally,
  //     offered_qps (concurrent cells' loads add) and the fleet sizes
  //     (disjoint sub-fleets; the peak is the sum of per-cell peaks).
  //   * Max: duration_s (cells run concurrently), the SLO, and
  //     peak_queue_depth (cells queue independently — there is no
  //     fleet-wide instant to align).
  //   * Latency state: sorted runs merge linearly (kExact) or sketches merge
  //     (kHdr), so percentiles and maxima are those of the union.  Both sides
  //     must carry `latency_state` (SimConfig::keep_latency_state) of the
  //     same mode and sketch resolution, or InvalidArgument.
  //   * Positional: tenants merge element-wise (both sides must describe the
  //     same catalog, or InvalidArgument); slot_availability concatenates in
  //     call order.
  void merge(const FleetMetrics& other);

  [[nodiscard]] Table to_table(const std::string& title) const;
  // One row per tenant: priority, SLO, attainment, goodput, tail latency.
  [[nodiscard]] Table tenant_table(const std::string& title) const;
};

// The one derivation, run by simulate() and FleetMetrics::merge: sets every
// derived FleetMetrics and TenantMetrics field — rates, means, attainments,
// maxima and percentiles — from three inputs: the counters, `m.tally` and
// `m.latency_state` (non-null; one entry per tenant).  Means divide sums;
// percentiles are index reads, or a selection across the tenants' runs for
// the fleet, so nothing re-sorts.
void finalize(FleetMetrics& m);

}  // namespace lumos::serve
