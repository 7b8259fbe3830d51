// Serving observability: request lifecycle tracing, windowed time-series
// metrics, and event-loop self-profiling for the discrete-event simulator.
//
// The simulator's five event sources (completions, faults, arrivals/retries,
// autoscaling, dispatch) call the hooks of an `ObserverHub` owned by
// `simulate()`, which forwards each event to the observers that record it.
// Observation is opt-in per scenario (`Scenario::observe`); with every
// observer disabled — the default — the simulator runs an instantiation of
// its loop with no hook sites at all, and results are bit-identical to the
// unobserved simulator (pinned by tests/test_observe.cpp).  Enabled
// observers only *read* the event stream, so observed runs produce the same
// FleetMetrics bit-for-bit too — tracing a simulation can never change it.
//
// Three concrete observers:
//
//   * `LifecycleTracer` — per-request lifecycle spans (arrival -> admission
//     verdict -> queue -> dispatch -> completion / shed / requeue / retry /
//     timeout) and per-slot batch spans, recorded into bounded buffers with
//     deterministic id-hash sampling (`TracerConfig.sample`), exported as
//     Chrome `trace_event` JSON (slots as threads, batches as duration
//     slices, requests as async spans + flow arrows) loadable in
//     chrome://tracing or https://ui.perfetto.dev.  Batch spans live in a
//     ring buffer (newest wins); request events saturate (new requests stop
//     being sampled when the buffer fills, already-sampled requests finish
//     recording) so every exported request span stays balanced.
//   * `TimelineRecorder` — fixed-window time series (arrivals, throughput,
//     goodput, sheds, timeouts, retries, queue depth, fleet size, failed
//     slots, per-tenant attainment per window) exported as CSV or JSON for
//     plotting overload and fault transients.
//   * `EventLoopProfiler` — wall-clock self-profile of the event loop:
//     calls, events and time per source, plus scheduler-pop and
//     estimate-lookup costs inside dispatch, printed as a table.  The only
//     observer that reads a real clock; it still never touches simulated
//     state.
//
// `simulate(scenario, &observation)` moves the scenario's observers into
// `observation` after the run so callers can export (see lumos_cli serve
// --trace-out / --timeline-out / --profile).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/table.hpp"
#include "serve/faults.hpp"
#include "serve/trace.hpp"
#include "serve/workload.hpp"

namespace lumos::serve {

// ---------------------------------------------------------------------------
// Configuration (lives in Scenario::observe; all disabled by default)
// ---------------------------------------------------------------------------

// Lifecycle-tracer knobs.  `sample` is the traced fraction of requests,
// selected by a deterministic hash of the request id (independent of event
// interleaving and of which requests other observers see); batch spans are
// recorded for every dispatch regardless of sampling.
struct TracerConfig {
  bool enabled = false;
  double sample = 1.0;   // fraction of requests traced, in [0, 1]
  std::uint64_t seed = 1;  // id-hash salt (distinct seeds trace distinct subsets)
  std::size_t max_request_events = 1u << 20;  // request-event saturation bound
  std::size_t max_batch_spans = 1u << 16;     // batch-span ring capacity
};

// Timeline-recorder knobs: one row of counters/gauges per `window_s` of
// simulated time.
struct TimelineConfig {
  bool enabled = false;
  double window_s = 1e-3;
};

struct ObserveConfig {
  TracerConfig trace;
  TimelineConfig timeline;
  bool profile = false;  // event-loop self-profiling (wall clock)

  [[nodiscard]] bool enabled() const noexcept {
    return trace.enabled || timeline.enabled || profile;
  }
};

// Throws `InvalidArgument` naming the bad field (sample outside [0, 1], zero
// buffer capacities, non-positive / non-finite window).  A fully disabled
// config is always valid.
void validate_observe(const ObserveConfig& config);

// ---------------------------------------------------------------------------
// Lifecycle tracer
// ---------------------------------------------------------------------------

// One recorded transition of a sampled request.
enum class RequestEventKind : std::uint8_t {
  kArrival,         // fresh arrival pulled from the source
  kShed,            // rejected by admission (terminal)
  kDispatch,        // left the queue for a slot
  kRequeue,         // batch aborted by a slot failure; back to the queue
  kAttemptTimeout,  // attempt past its deadline
  kRetry,           // retried attempt scheduled
  kComplete,        // completed (terminal)
  kTimeout,         // timed out with no retry budget (terminal)
};

struct RequestEvent {
  double time_s = 0.0;
  std::uint64_t id = 0;
  std::uint32_t workload = 0;
  std::uint32_t attempt = 0;
  std::int32_t slot = -1;  // kDispatch: target slot; -1 otherwise
  RequestEventKind kind = RequestEventKind::kArrival;
};

// One slot's served (or aborted) batch.
struct BatchSpan {
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t seq = 0;  // dispatch seq
  std::uint32_t slot = 0;
  std::uint32_t workload = 0;
  std::uint32_t size = 0;
  bool aborted = false;
};

// SplitMix64 finaliser: a well-mixed 64-bit hash, so the sampling decision is
// a pure function of (id, seed) — independent of event interleaving, fleet
// shape, and LUMOS_THREADS.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Deterministic id-hash request sampler (SplitMix64 over id ^ salt).  Exposed
// so tests and future observers can reuse the exact sampling decision.
[[nodiscard]] bool trace_sampled(std::uint64_t id, std::uint64_t seed, double sample);

class LifecycleTracer {
 public:
  // `catalog` must outlive the tracer (workload names in the export).
  LifecycleTracer(const TracerConfig& config, const WorkloadCatalog& catalog);

  // The events it records (see ObserverHub for each hook's meaning).  The
  // per-request hooks test the sampling hash here, so an unsampled request
  // costs the event loop no call.
  void on_slot_added(std::size_t slot, const std::string& spec, double now_s);
  void on_arrival(const Request& request, double now_s) {
    if (sampled(request.id)) arrive(request, now_s);
  }
  void on_dispatch(std::size_t slot, std::uint64_t seq, const std::vector<Request>& batch,
                   double now_s, double done_s);
  void on_batch_complete(std::size_t slot, std::uint64_t seq, double start_s, double end_s,
                         std::size_t size);
  void on_batch_abort(std::size_t slot, std::uint64_t seq, double start_s, double abort_s,
                      std::size_t size);
  void on_requeue(const Request& request, double now_s);
  void on_attempt_timeout(const Request& request, double now_s, bool will_retry);
  void on_retry(const Request& request, double now_s, double reissue_s);
  void on_complete(const Request& request, double now_s, CompletionStatus status, double,
                   bool) {
    if (sampled(request.id)) complete(request, now_s, status);
  }

  // Recorded request events, in event-loop (chronological) order.
  [[nodiscard]] const std::vector<RequestEvent>& request_events() const noexcept {
    return events_;
  }
  // Batch-span ring contents in ring order (use `span.seq` to sort by
  // dispatch when the ring wrapped).
  [[nodiscard]] const std::vector<BatchSpan>& batch_spans() const noexcept {
    return spans_;
  }
  // Requests that arrived while the event buffer was saturated (they were
  // not sampled; their spans are absent, not truncated).
  [[nodiscard]] std::size_t dropped_requests() const noexcept { return dropped_requests_; }
  // Batch spans overwritten by the ring.
  [[nodiscard]] std::size_t dropped_batch_spans() const noexcept { return dropped_spans_; }
  [[nodiscard]] std::size_t sampled_requests() const noexcept { return sampled_requests_; }

  // Chrome trace_event JSON ({"traceEvents": [...]}; timestamps in us).
  // Loadable in chrome://tracing and Perfetto; validated by
  // tools/validate_trace.py.
  void write_chrome_trace(std::ostream& os) const;

 private:
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  void record(const Request& request, double time_s, RequestEventKind kind,
              std::int32_t slot = -1);
  // Whether `id` is in the traced fraction (trace_sampled's decision).
  [[nodiscard]] bool sampled(std::uint64_t id) const noexcept {
    return static_cast<double>(splitmix64(id ^ config_.seed)) < threshold_;
  }
  // The sampled request's arrival and terminal outcome.
  void arrive(const Request& request, double now_s);
  void complete(const Request& request, double now_s, CompletionStatus status);
  // Whether `id` is a sampled request still in flight.
  [[nodiscard]] bool live(std::uint64_t id) const;

  TracerConfig config_;
  double threshold_;  // config_.sample scaled to the id hash's 2^64 range
  const WorkloadCatalog* catalog_;
  std::vector<std::string> slot_specs_;  // slot index -> registry spec name
  std::vector<RequestEvent> events_;
  std::vector<BatchSpan> spans_;  // ring buffer once max_batch_spans is hit
  std::size_t span_next_ = 0;     // ring write cursor
  // Per-slot index into `spans_` of the slot's in-flight batch (kNoSpan when
  // idle): lets a failure cut the right span short.
  std::vector<std::size_t> slot_open_span_;
  // Sampled requests still in flight; keeps saturation from truncating a
  // request's span mid-lifecycle.
  std::unordered_set<std::uint64_t> live_ids_;
  std::size_t sampled_requests_ = 0;
  std::size_t dropped_requests_ = 0;
  std::size_t dropped_spans_ = 0;
  bool saturated_ = false;
};

// ---------------------------------------------------------------------------
// Timeline recorder
// ---------------------------------------------------------------------------

// Counters and gauges of one fixed window of simulated time.  Counters are
// events inside the window; gauges are the last (and max, for queue depth)
// `on_tick` snapshot inside it.
struct TimelineWindow {
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t completed = 0;
  std::size_t within_slo = 0;
  std::size_t timed_out = 0;
  std::size_t attempt_timeouts = 0;
  std::size_t retries = 0;
  std::size_t requeued = 0;
  std::size_t dispatches = 0;
  std::size_t batch_aborts = 0;
  std::size_t slot_failures = 0;
  std::size_t slot_recoveries = 0;
  std::size_t autoscale_grows = 0;
  std::size_t autoscale_shrinks = 0;
  std::size_t queue_depth_last = 0;
  std::size_t queue_depth_max = 0;
  std::size_t active_slots = 0;
  std::size_t failed_slots = 0;
  // Per catalog entry: completions and within-SLO completions in the window.
  std::vector<std::size_t> tenant_completed;
  std::vector<std::size_t> tenant_within_slo;
};

class TimelineRecorder {
 public:
  // `catalog` must outlive the recorder (tenant names in the export).
  TimelineRecorder(const TimelineConfig& config, const WorkloadCatalog& catalog);

  // The events it records (see ObserverHub for each hook's meaning).  The
  // hooks of every request, batch and loop iteration are defined here, so
  // the event loop bumps its counter without a call.
  void on_arrival(const Request&, double now_s) { ++window_at(now_s).arrivals; }
  void on_admission(const Request&, double now_s, bool admitted) {
    if (admitted) ++window_at(now_s).admitted;
  }
  void on_dispatch(std::size_t, std::uint64_t, const std::vector<Request>&, double now_s,
                   double) {
    ++window_at(now_s).dispatches;
  }
  void on_batch_abort(std::size_t slot, std::uint64_t seq, double start_s, double abort_s,
                      std::size_t size);
  void on_requeue(const Request& request, double now_s);
  void on_attempt_timeout(const Request& request, double now_s, bool will_retry);
  void on_retry(const Request& request, double now_s, double reissue_s);
  void on_complete(const Request& request, double now_s, CompletionStatus status, double,
                   bool within_slo) {
    TimelineWindow& w = window_at(now_s);
    switch (status) {
      case CompletionStatus::kOk:
        ++w.completed;
        ++w.tenant_completed[request.workload];
        if (within_slo) {
          ++w.within_slo;
          ++w.tenant_within_slo[request.workload];
        }
        break;
      case CompletionStatus::kShed:
        ++w.shed;
        break;
      case CompletionStatus::kTimeout:
        ++w.timed_out;
        break;
    }
  }
  void on_slot_failure(std::size_t slot, double now_s);
  void on_slot_recovery(std::size_t slot, double now_s);
  void on_autoscale(std::size_t family, int delta, double now_s);
  void on_tick(double now_s, std::size_t queued, std::size_t active_slots,
               std::size_t failed_slots) {
    TimelineWindow& w = window_at(now_s);
    w.queue_depth_last = queued;
    w.queue_depth_max = std::max(w.queue_depth_max, queued);
    w.active_slots = active_slots;
    w.failed_slots = failed_slots;
  }
  void finish(double end_s);

  [[nodiscard]] double window_s() const noexcept { return config_.window_s; }
  [[nodiscard]] const std::vector<TimelineWindow>& windows() const noexcept {
    return windows_;
  }

  // One CSV row per window: t_start_s, counters, gauges, derived
  // throughput/goodput QPS, then per-tenant `<name>_completed` /
  // `<name>_within_slo` columns (README documents the layout).
  void write_csv(std::ostream& os) const;
  // The same series as one JSON object ({"window_s": ..., "tenants": [...],
  // "windows": [...]}).
  void write_json(std::ostream& os) const;

 private:
  // The window holding `time_s`.  Truncating cast of a non-negative product
  // == floor; the multiply (vs a divide) keeps this cheap since every counter
  // bump lands here.
  [[nodiscard]] TimelineWindow& window_at(double time_s) {
    const std::size_t idx = static_cast<std::size_t>(std::max(0.0, time_s) * inv_window_s_);
    return idx < windows_.size() ? windows_[idx] : grow_to(idx);
  }
  // Appends windows up to `idx` and returns the last.
  TimelineWindow& grow_to(std::size_t idx);

  TimelineConfig config_;
  double inv_window_s_ = 0.0;  // 1 / window_s: multiply beats divide per event
  const WorkloadCatalog* catalog_;
  std::vector<TimelineWindow> windows_;
};

// ---------------------------------------------------------------------------
// Event-loop profiler
// ---------------------------------------------------------------------------

// Where event-loop wall time goes.  kDispatch is inclusive of its two
// sub-sources (kSchedulerPop, kEstimate), reported separately so "the
// scheduler is the bottleneck" and "the estimate cache is the bottleneck"
// are directly readable.
enum class LoopSource : std::uint8_t {
  kCompletions = 0,  // completion-heap drain
  kFaults,           // fault-process transitions
  kArrivals,         // traffic-source pulls + admission
  kRetries,          // retry-heap re-issues
  kAutoscale,        // autoscaler evaluation steps
  kDispatch,         // batch formation + routing (inclusive)
  kSchedulerPop,     // scheduler ready/pop inside dispatch
  kEstimate,         // estimate-cache lookups inside dispatch
  kCount,
};

[[nodiscard]] const char* loop_source_name(LoopSource source) noexcept;

// Wall-clock self-profile of one simulation's event loop.  The only observer
// holding a real clock; it reads `steady_clock` only when enabled, so
// unprofiled runs never pay for a clock call.
class EventLoopProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  // Adds one call, `events` events and the wall time since `t0` to
  // `source`.
  void record(LoopSource source, Clock::time_point t0, std::uint64_t events) noexcept;
  void add_iterations(std::uint64_t iterations) noexcept { iterations_ += iterations; }

  // Times `source` was recorded (kDispatch: the dispatch rounds the loop
  // ran) beside the events those calls produced (kDispatch: dispatches).
  [[nodiscard]] std::uint64_t calls(LoopSource source) const noexcept;
  [[nodiscard]] std::uint64_t events(LoopSource source) const noexcept;
  [[nodiscard]] double wall_s(LoopSource source) const noexcept;
  [[nodiscard]] std::uint64_t iterations() const noexcept { return iterations_; }
  // Sum over the non-overlapping sources (kSchedulerPop / kEstimate are
  // subsets of kDispatch and excluded).
  [[nodiscard]] double accounted_wall_s() const noexcept;

  // source | calls | events | wall ms | ns/event | share of accounted time.
  [[nodiscard]] Table to_table(const std::string& title) const;

 private:
  std::uint64_t calls_[static_cast<std::size_t>(LoopSource::kCount)] = {};
  std::uint64_t events_[static_cast<std::size_t>(LoopSource::kCount)] = {};
  double wall_s_[static_cast<std::size_t>(LoopSource::kCount)] = {};
  std::uint64_t iterations_ = 0;
};

// ---------------------------------------------------------------------------
// Hub + observation handoff
// ---------------------------------------------------------------------------

// The observers of one run, handed back to the caller by
// `simulate(scenario, &observation)` for export.  Null members were not
// enabled in the scenario.
struct Observation {
  std::unique_ptr<LifecycleTracer> tracer;
  std::unique_ptr<TimelineRecorder> timeline;
  std::unique_ptr<EventLoopProfiler> profiler;
};

// Owns the configured observers of one simulation and forwards each event
// loop hook to the observers that record it.  Hooks are called in the loop's
// deterministic event order with simulated timestamps; observers must not
// mutate simulation state (they receive const views only).  Only observed
// runs construct a hub (see simulate()).
class ObserverHub {
 public:
  // Validates `config`; `catalog` must outlive the hub.
  ObserverHub(const ObserveConfig& config, const WorkloadCatalog& catalog);

  [[nodiscard]] EventLoopProfiler* profiler() noexcept { return profiler_.get(); }

  // Each hook reaches only the observers that record its event, tracer
  // first.  They are defined here, so the event loop pays no call to reach
  // an observer, and none for one that is off.
  //
  // A fleet slot came into existence (initial slots at t=0, grown slots at
  // their activation instant).  `spec` is the slot's registry spec name.
  void on_slot_added(std::size_t slot, const std::string& spec, double now_s) {
    if (tracer_) tracer_->on_slot_added(slot, spec, now_s);
  }
  // A fresh request was pulled from the traffic source (retried attempts
  // re-enter through `on_retry`, not here).
  void on_arrival(const Request& request, double now_s) {
    if (tracer_) tracer_->on_arrival(request, now_s);
    if (timeline_) timeline_->on_arrival(request, now_s);
  }
  // Admission verdict for an arriving attempt (fresh or retried).  A false
  // verdict is terminal: `on_complete` follows with kShed.
  void on_admission(const Request& request, double now_s, bool admitted) {
    if (timeline_) timeline_->on_admission(request, now_s, admitted);
  }
  // A batch left the queue for slot `slot` (dispatch seq `seq`), due back at
  // `done_s`.
  void on_dispatch(std::size_t slot, std::uint64_t seq, const std::vector<Request>& batch,
                   double now_s, double done_s) {
    if (tracer_) tracer_->on_dispatch(slot, seq, batch, now_s, done_s);
    if (timeline_) timeline_->on_dispatch(slot, seq, batch, now_s, done_s);
  }
  // The in-flight batch on `slot` finished (span [start_s, end_s]).
  void on_batch_complete(std::size_t slot, std::uint64_t seq, double start_s, double end_s,
                         std::size_t size) {
    if (tracer_) tracer_->on_batch_complete(slot, seq, start_s, end_s, size);
  }
  // The in-flight batch on `slot` was aborted by a slot failure at `abort_s`;
  // its requests requeue (one `on_requeue` each).
  void on_batch_abort(std::size_t slot, std::uint64_t seq, double start_s, double abort_s,
                      std::size_t size) {
    if (tracer_) tracer_->on_batch_abort(slot, seq, start_s, abort_s, size);
    if (timeline_) timeline_->on_batch_abort(slot, seq, start_s, abort_s, size);
  }
  void on_requeue(const Request& request, double now_s) {
    if (tracer_) tracer_->on_requeue(request, now_s);
    if (timeline_) timeline_->on_requeue(request, now_s);
  }
  // An attempt exceeded its timeout.  `will_retry` says whether a retried
  // attempt follows (`on_retry`) or the request terminates (kTimeout).
  void on_attempt_timeout(const Request& request, double now_s, bool will_retry) {
    if (tracer_) tracer_->on_attempt_timeout(request, now_s, will_retry);
    if (timeline_) timeline_->on_attempt_timeout(request, now_s, will_retry);
  }
  // A retried attempt was scheduled to re-arrive at `reissue_s`.
  void on_retry(const Request& request, double now_s, double reissue_s) {
    if (tracer_) tracer_->on_retry(request, now_s, reissue_s);
    if (timeline_) timeline_->on_retry(request, now_s, reissue_s);
  }
  // Terminal outcome of one logical request (exactly one call per request,
  // mirroring TrafficSource::on_complete).  `latency_s` is client-perceived
  // (first issue to now); `within_slo` is false for non-kOk terminals.
  void on_complete(const Request& request, double now_s, CompletionStatus status,
                   double latency_s, bool within_slo) {
    if (tracer_) tracer_->on_complete(request, now_s, status, latency_s, within_slo);
    if (timeline_) timeline_->on_complete(request, now_s, status, latency_s, within_slo);
  }
  void on_slot_failure(std::size_t slot, double now_s) {
    if (timeline_) timeline_->on_slot_failure(slot, now_s);
  }
  void on_slot_recovery(std::size_t slot, double now_s) {
    if (timeline_) timeline_->on_slot_recovery(slot, now_s);
  }
  // The autoscaler applied a delta to `family` (+1 grow, -1 shrink).
  void on_autoscale(std::size_t family, int delta, double now_s) {
    if (timeline_) timeline_->on_autoscale(family, delta, now_s);
  }
  // One event-loop iteration advanced simulated time to `now_s`.  Gauge
  // snapshot: queued requests, active (non-draining) slots, and the live
  // down slots among them.
  void on_tick(double now_s, std::size_t queued, std::size_t active_slots,
               std::size_t failed_slots) {
    if (timeline_) timeline_->on_tick(now_s, queued, active_slots, failed_slots);
  }
  // The loop drained; `end_s` is the simulation's final instant.
  void finish(double end_s) {
    if (timeline_) timeline_->finish(end_s);
  }

  // Releases the owned observers (call after `finish`).
  [[nodiscard]] Observation take();

 private:
  std::unique_ptr<LifecycleTracer> tracer_;
  std::unique_ptr<TimelineRecorder> timeline_;
  std::unique_ptr<EventLoopProfiler> profiler_;
};

}  // namespace lumos::serve
