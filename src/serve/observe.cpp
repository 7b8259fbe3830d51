#include "serve/observe.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace lumos::serve {

namespace {

// `sample` in the hash's own 64-bit space: an id is traced when its hash, as
// a double, lies below this.  Scaling by 2^64 is exact, so this is the same
// decision as comparing hash / 2^64 with `sample`, without the rounding
// pitfalls of dividing by 2^64 and with one scaling per tracer, not per id.
double sample_threshold(double sample) noexcept {
  if (sample >= 1.0) return std::numeric_limits<double>::infinity();
  return std::ldexp(std::max(sample, 0.0), 64);
}

// tid layout: 1 is the synthetic "clients" thread (arrivals, request spans),
// slot i is tid i + 2.
constexpr int kClientsTid = 1;
int slot_tid(std::size_t slot) { return static_cast<int>(slot) + 2; }

// Every window counter both exports write, in column order after "t_s".
constexpr std::pair<const char*, std::size_t TimelineWindow::*> kWindowFields[] = {
    {"arrivals", &TimelineWindow::arrivals}, {"admitted", &TimelineWindow::admitted},
    {"shed", &TimelineWindow::shed}, {"completed", &TimelineWindow::completed},
    {"within_slo", &TimelineWindow::within_slo}, {"timed_out", &TimelineWindow::timed_out},
    {"attempt_timeouts", &TimelineWindow::attempt_timeouts}, {"retries", &TimelineWindow::retries},
    {"requeued", &TimelineWindow::requeued}, {"dispatches", &TimelineWindow::dispatches},
    {"batch_aborts", &TimelineWindow::batch_aborts},
    {"slot_failures", &TimelineWindow::slot_failures},
    {"slot_recoveries", &TimelineWindow::slot_recoveries},
    {"autoscale_grows", &TimelineWindow::autoscale_grows},
    {"autoscale_shrinks", &TimelineWindow::autoscale_shrinks},
    {"queue_depth_last", &TimelineWindow::queue_depth_last},
    {"queue_depth_max", &TimelineWindow::queue_depth_max},
    {"active_slots", &TimelineWindow::active_slots},
    {"failed_slots", &TimelineWindow::failed_slots},
};

}  // namespace

void validate_observe(const ObserveConfig& config) {
  const TracerConfig& t = config.trace;
  if (t.enabled) {
    if (!(t.sample >= 0.0 && t.sample <= 1.0)) {
      throw InvalidArgument("ObserveConfig.trace: TracerConfig.sample must be in [0, 1]");
    }
    if (t.max_request_events == 0) {
      throw InvalidArgument(
          "ObserveConfig.trace: TracerConfig.max_request_events must be >= 1");
    }
    if (t.max_batch_spans == 0) {
      throw InvalidArgument("ObserveConfig.trace: TracerConfig.max_batch_spans must be >= 1");
    }
  }
  if (config.timeline.enabled) {
    if (!(config.timeline.window_s > 0.0) || !std::isfinite(config.timeline.window_s)) {
      throw InvalidArgument(
          "ObserveConfig.timeline: TimelineConfig.window_s must be positive and finite");
    }
  }
}

bool trace_sampled(std::uint64_t id, std::uint64_t seed, double sample) {
  return static_cast<double>(splitmix64(id ^ seed)) < sample_threshold(sample);
}

// ---------------------------------------------------------------------------
// LifecycleTracer
// ---------------------------------------------------------------------------

LifecycleTracer::LifecycleTracer(const TracerConfig& config, const WorkloadCatalog& catalog)
    : config_(config), threshold_(sample_threshold(config.sample)), catalog_(&catalog) {
  spans_.reserve(std::min<std::size_t>(config_.max_batch_spans, 4096));
}

bool LifecycleTracer::live(std::uint64_t id) const {
  // Only sampled ids are ever live: the hash rules out most ids before the
  // set lookup.
  return sampled(id) && live_ids_.count(id) != 0;
}

void LifecycleTracer::on_slot_added(std::size_t slot, const std::string& spec, double) {
  if (slot_specs_.size() <= slot) slot_specs_.resize(slot + 1);
  slot_specs_[slot] = spec;
}

void LifecycleTracer::record(const Request& request, double time_s, RequestEventKind kind,
                             std::int32_t slot) {
  RequestEvent ev;
  ev.time_s = time_s;
  ev.id = request.id;
  ev.workload = request.workload;
  ev.attempt = request.attempt;
  ev.slot = slot;
  ev.kind = kind;
  events_.push_back(ev);
}

void LifecycleTracer::arrive(const Request& request, double now_s) {
  // Saturation refuses whole requests, never truncates one mid-span: a
  // request either has its complete lifecycle in the buffer or is absent.
  if (saturated_ || events_.size() >= config_.max_request_events) {
    saturated_ = true;
    ++dropped_requests_;
    return;
  }
  live_ids_.insert(request.id);
  ++sampled_requests_;
  record(request, now_s, RequestEventKind::kArrival);
}

void LifecycleTracer::on_dispatch(std::size_t slot, std::uint64_t seq,
                                  const std::vector<Request>& batch, double now_s,
                                  double done_s) {
  BatchSpan span;
  span.start_s = now_s;
  span.end_s = done_s;
  span.seq = seq;
  span.slot = static_cast<std::uint32_t>(slot);
  span.workload = batch.front().workload;
  span.size = static_cast<std::uint32_t>(batch.size());
  if (slot_open_span_.size() <= slot) slot_open_span_.resize(slot + 1, kNoSpan);
  if (spans_.size() < config_.max_batch_spans) {
    slot_open_span_[slot] = spans_.size();
    spans_.push_back(span);
  } else {
    // Ring: the oldest recorded span makes room for the newest.
    spans_[span_next_] = span;
    slot_open_span_[slot] = span_next_;
    span_next_ = (span_next_ + 1) % config_.max_batch_spans;
    ++dropped_spans_;
  }
  if (live_ids_.empty()) return;  // nothing sampled in flight; skip the scan
  for (const Request& req : batch) {
    if (live(req.id)) {
      record(req, now_s, RequestEventKind::kDispatch, static_cast<std::int32_t>(slot));
    }
  }
}

void LifecycleTracer::on_batch_complete(std::size_t slot, std::uint64_t seq, double, double,
                                        std::size_t) {
  // The span's end was already the predicted completion; just close the slot.
  if (slot < slot_open_span_.size() && slot_open_span_[slot] != kNoSpan &&
      spans_[slot_open_span_[slot]].seq == seq) {
    slot_open_span_[slot] = kNoSpan;
  }
}

void LifecycleTracer::on_batch_abort(std::size_t slot, std::uint64_t seq, double,
                                     double abort_s, std::size_t) {
  if (slot < slot_open_span_.size() && slot_open_span_[slot] != kNoSpan) {
    BatchSpan& span = spans_[slot_open_span_[slot]];
    if (span.seq == seq) {
      // The batch never ran to its predicted end; the span is cut short.
      span.end_s = abort_s;
      span.aborted = true;
    }
    slot_open_span_[slot] = kNoSpan;
  }
}

void LifecycleTracer::on_requeue(const Request& request, double now_s) {
  if (live(request.id)) {
    record(request, now_s, RequestEventKind::kRequeue);
  }
}

void LifecycleTracer::on_attempt_timeout(const Request& request, double now_s, bool) {
  if (live(request.id)) {
    record(request, now_s, RequestEventKind::kAttemptTimeout);
  }
}

void LifecycleTracer::on_retry(const Request& request, double now_s, double) {
  if (live(request.id)) {
    record(request, now_s, RequestEventKind::kRetry);
  }
}

void LifecycleTracer::complete(const Request& request, double now_s,
                               CompletionStatus status) {
  const auto it = live_ids_.find(request.id);
  if (it == live_ids_.end()) return;
  live_ids_.erase(it);
  switch (status) {
    case CompletionStatus::kOk:
      record(request, now_s, RequestEventKind::kComplete);
      break;
    case CompletionStatus::kShed:
      record(request, now_s, RequestEventKind::kShed);
      break;
    case CompletionStatus::kTimeout:
      record(request, now_s, RequestEventKind::kTimeout);
      break;
  }
}

void LifecycleTracer::write_chrome_trace(std::ostream& os) const {
  // Timestamps are microseconds (the trace_event contract); fixed 3 digits
  // keep nanosecond resolution without 17-digit noise.
  const std::ios::fmtflags flags = os.flags();
  const std::streamsize precision = os.precision();
  os << std::fixed << std::setprecision(3);
  JsonWriter json(os);
  json.begin_object().field("displayTimeUnit", "ms").begin_array("traceEvents");
  // Closes the open event with a one-member `args` object.
  const auto args = [&](const char* key, const auto& value) {
    json.begin_object("args").field(key, value).end().end();
  };

  // Metadata: name the process and every thread lane.
  const auto metadata = [&](const char* name, int tid, const std::string& value) {
    json.begin_object().field("name", name).field("ph", "M").field("pid", 1).field("tid", tid);
    args("name", value);
  };
  metadata("process_name", 0, "lumos serve");
  metadata("thread_name", kClientsTid, "clients");
  for (std::size_t i = 0; i < slot_specs_.size(); ++i) {
    metadata("thread_name", slot_tid(i),
             "slot " + std::to_string(i) + " [" + slot_specs_[i] + "]");
  }

  // Batch spans, ring order (seq in args recovers dispatch order).
  for (const BatchSpan& span : spans_) {
    json.begin_object()
        .field("name", catalog_->workload(span.workload).name() + " x" + std::to_string(span.size))
        .field("cat", "batch")
        .field("ph", "X")
        .field("ts", span.start_s * 1e6)
        .field("dur", std::max(0.0, span.end_s - span.start_s) * 1e6)
        .field("pid", 1)
        .field("tid", slot_tid(span.slot))
        .begin_object("args")
        .field("seq", span.seq)
        .field("batch", span.size)
        .field("aborted", span.aborted)
        .end()
        .end();
    if (span.aborted) {
      json.begin_object()
          .field("name", "batch-abort")
          .field("cat", "fault")
          .field("ph", "i")
          .field("s", "t")
          .field("ts", span.end_s * 1e6)
          .field("pid", 1)
          .field("tid", slot_tid(span.slot));
      args("seq", span.seq);
    }
  }

  // Request lifecycles: one async span per request (cat "req", id = request
  // id) from arrival to its terminal event, instants for the transitions, and
  // flow arrows from each queue entry ("s" on the clients lane) to the
  // dispatch that drained it ("f" on the slot lane).  `event` opens one event
  // of request `ev` and writes its keys up to `tid`.
  const auto event = [&](const RequestEvent& ev, const std::string& name, const char* ph,
                         const char* cat, int tid) -> JsonWriter& {
    json.begin_object().field("name", name).field("ph", ph);
    if (std::string_view(ph) == "f") json.field("bp", "e");
    return json.field("cat", cat)
        .field("id", ev.id)
        .field("ts", ev.time_s * 1e6)
        .field("pid", 1)
        .field("tid", tid);
  };
  for (const RequestEvent& ev : events_) {
    const std::string span = "req " + std::to_string(ev.id);
    const auto instant = [&](const char* name) -> JsonWriter& {
      return event(ev, name, "n", "req", kClientsTid);
    };
    const auto enqueue = [&] { event(ev, "queue", "s", "queue", kClientsTid).end(); };
    switch (ev.kind) {
      case RequestEventKind::kArrival:
        event(ev, span, "b", "req", kClientsTid);
        args("workload", catalog_->workload(ev.workload).name());
        enqueue();
        break;
      case RequestEventKind::kDispatch:
        instant("dispatch")
            .begin_object("args")
            .field("slot", ev.slot)
            .field("attempt", ev.attempt)
            .end()
            .end();
        event(ev, "queue", "f", "queue",
              slot_tid(static_cast<std::size_t>(std::max<std::int32_t>(ev.slot, 0))))
            .end();
        break;
      case RequestEventKind::kRequeue:
        instant("requeue").end();
        enqueue();
        break;
      case RequestEventKind::kAttemptTimeout:
        instant("attempt-timeout");
        args("attempt", ev.attempt);
        break;
      case RequestEventKind::kRetry:
        instant("retry");
        args("attempt", ev.attempt);
        enqueue();
        break;
      case RequestEventKind::kShed:
        instant("shed").end();
        event(ev, span, "e", "req", kClientsTid);
        args("status", "shed");
        break;
      case RequestEventKind::kTimeout:
        instant("timeout").end();
        event(ev, span, "e", "req", kClientsTid);
        args("status", "timeout");
        break;
      case RequestEventKind::kComplete:
        event(ev, span, "e", "req", kClientsTid);
        args("status", "ok");
        break;
    }
  }
  json.end().end();
  os.flags(flags);
  os.precision(precision);
}

// ---------------------------------------------------------------------------
// TimelineRecorder
// ---------------------------------------------------------------------------

TimelineRecorder::TimelineRecorder(const TimelineConfig& config,
                                   const WorkloadCatalog& catalog)
    : config_(config), inv_window_s_(1.0 / config.window_s), catalog_(&catalog) {}

TimelineWindow& TimelineRecorder::grow_to(std::size_t idx) {
  while (windows_.size() <= idx) {
    TimelineWindow w;
    if (!windows_.empty()) {
      // Gauges carry forward through quiet windows so plots hold their level
      // instead of dropping to zero between events; counters reset.
      const TimelineWindow& prev = windows_.back();
      w.queue_depth_last = prev.queue_depth_last;
      w.queue_depth_max = prev.queue_depth_last;
      w.active_slots = prev.active_slots;
      w.failed_slots = prev.failed_slots;
    }
    w.tenant_completed.assign(catalog_->size(), 0);
    w.tenant_within_slo.assign(catalog_->size(), 0);
    windows_.push_back(std::move(w));
  }
  return windows_[idx];
}

void TimelineRecorder::on_batch_abort(std::size_t, std::uint64_t, double, double abort_s,
                                      std::size_t) {
  ++window_at(abort_s).batch_aborts;
}

void TimelineRecorder::on_requeue(const Request&, double now_s) {
  ++window_at(now_s).requeued;
}

void TimelineRecorder::on_attempt_timeout(const Request&, double now_s, bool) {
  ++window_at(now_s).attempt_timeouts;
}

void TimelineRecorder::on_retry(const Request&, double now_s, double) {
  ++window_at(now_s).retries;
}

void TimelineRecorder::on_slot_failure(std::size_t, double now_s) {
  ++window_at(now_s).slot_failures;
}

void TimelineRecorder::on_slot_recovery(std::size_t, double now_s) {
  ++window_at(now_s).slot_recoveries;
}

void TimelineRecorder::on_autoscale(std::size_t, int delta, double now_s) {
  TimelineWindow& w = window_at(now_s);
  if (delta > 0) {
    ++w.autoscale_grows;
  } else if (delta < 0) {
    ++w.autoscale_shrinks;
  }
}

void TimelineRecorder::finish(double end_s) {
  // Materialise the final window so the series spans the whole run even when
  // the last events landed earlier.
  if (end_s > 0.0) (void)window_at(end_s);
}

void TimelineRecorder::write_csv(std::ostream& os) const {
  os << "t_s";
  for (const auto& [name, member] : kWindowFields) os << ',' << name;
  os << ",throughput_qps,goodput_qps";
  for (std::size_t i = 0; i < catalog_->size(); ++i) {
    const std::string name = catalog_->workload(i).name();
    os << "," << name << "_completed," << name << "_within_slo";
  }
  os << "\n";
  char buf[64];
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const TimelineWindow& w = windows_[i];
    std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(i) * config_.window_s);
    os << buf;
    for (const auto& [name, member] : kWindowFields) os << ',' << w.*member;
    std::snprintf(buf, sizeof buf, "%.9g",
                  static_cast<double>(w.completed) / config_.window_s);
    os << "," << buf;
    std::snprintf(buf, sizeof buf, "%.9g",
                  static_cast<double>(w.within_slo) / config_.window_s);
    os << "," << buf;
    for (std::size_t t = 0; t < w.tenant_completed.size(); ++t) {
      os << "," << w.tenant_completed[t] << "," << w.tenant_within_slo[t];
    }
    os << "\n";
  }
}

void TimelineRecorder::write_json(std::ostream& os) const {
  // Nine significant digits, like write_csv's times and rates.
  const std::ios::fmtflags flags = os.flags();
  const std::streamsize precision = os.precision();
  os << std::defaultfloat << std::setprecision(9);
  JsonWriter json(os);
  json.begin_object().field("window_s", config_.window_s).begin_array("tenants");
  for (std::size_t i = 0; i < catalog_->size(); ++i) json.element(catalog_->workload(i).name());
  json.end().begin_array("windows");
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const TimelineWindow& w = windows_[i];
    json.begin_object().field("t_s", static_cast<double>(i) * config_.window_s);
    for (const auto& [name, member] : kWindowFields) json.field(name, w.*member);
    json.begin_array("tenant_completed");
    for (const std::size_t n : w.tenant_completed) json.element(n);
    json.end().begin_array("tenant_within_slo");
    for (const std::size_t n : w.tenant_within_slo) json.element(n);
    json.end().end();
  }
  json.end().end();
  os.flags(flags);
  os.precision(precision);
}

// ---------------------------------------------------------------------------
// EventLoopProfiler
// ---------------------------------------------------------------------------

const char* loop_source_name(LoopSource source) noexcept {
  switch (source) {
    case LoopSource::kCompletions: return "completions";
    case LoopSource::kFaults: return "faults";
    case LoopSource::kArrivals: return "arrivals";
    case LoopSource::kRetries: return "retries";
    case LoopSource::kAutoscale: return "autoscale";
    case LoopSource::kDispatch: return "dispatch";
    case LoopSource::kSchedulerPop: return "scheduler-pop";
    case LoopSource::kEstimate: return "estimate-cache";
    case LoopSource::kCount: break;
  }
  return "?";
}

void EventLoopProfiler::record(LoopSource source, Clock::time_point t0,
                               std::uint64_t events) noexcept {
  const std::size_t i = static_cast<std::size_t>(source);
  wall_s_[i] += std::chrono::duration<double>(Clock::now() - t0).count();
  ++calls_[i];
  events_[i] += events;
}

std::uint64_t EventLoopProfiler::calls(LoopSource source) const noexcept {
  return calls_[static_cast<std::size_t>(source)];
}

std::uint64_t EventLoopProfiler::events(LoopSource source) const noexcept {
  return events_[static_cast<std::size_t>(source)];
}

double EventLoopProfiler::wall_s(LoopSource source) const noexcept {
  return wall_s_[static_cast<std::size_t>(source)];
}

double EventLoopProfiler::accounted_wall_s() const noexcept {
  double total = 0.0;
  for (const LoopSource s : {LoopSource::kCompletions, LoopSource::kFaults,
                             LoopSource::kArrivals, LoopSource::kRetries,
                             LoopSource::kAutoscale, LoopSource::kDispatch}) {
    total += wall_s(s);
  }
  return total;
}

Table EventLoopProfiler::to_table(const std::string& title) const {
  Table t(title);
  t.add_row({"source", "calls", "events", "wall ms", "ns/event", "share"});
  const double total = accounted_wall_s();
  const auto row = [&](LoopSource s, bool in_total) {
    const std::uint64_t n = events(s);
    const double w = wall_s(s);
    t.add_row({std::string(in_total ? "" : "  ") + loop_source_name(s),
               std::to_string(calls(s)), std::to_string(n), Table::num(w * 1e3, 3),
               Table::num(n > 0 ? w * 1e9 / static_cast<double>(n) : 0.0, 1),
               in_total ? Table::num(total > 0.0 ? w / total : 0.0, 3) : "-"});
  };
  row(LoopSource::kCompletions, true);
  row(LoopSource::kFaults, true);
  row(LoopSource::kArrivals, true);
  row(LoopSource::kRetries, true);
  row(LoopSource::kAutoscale, true);
  row(LoopSource::kDispatch, true);
  // Sub-sources of dispatch, indented and excluded from the share column.
  row(LoopSource::kSchedulerPop, false);
  row(LoopSource::kEstimate, false);
  t.add_row({"loop total", std::to_string(iterations_) + " iters", "-",
             Table::num(total * 1e3, 3),
             Table::num(iterations_ > 0 ? total * 1e9 / static_cast<double>(iterations_) : 0.0,
                        1),
             "1.000"});
  return t;
}

// ---------------------------------------------------------------------------
// ObserverHub
// ---------------------------------------------------------------------------

ObserverHub::ObserverHub(const ObserveConfig& config, const WorkloadCatalog& catalog) {
  validate_observe(config);
  if (config.trace.enabled) {
    tracer_ = std::make_unique<LifecycleTracer>(config.trace, catalog);
  }
  if (config.timeline.enabled) {
    timeline_ = std::make_unique<TimelineRecorder>(config.timeline, catalog);
  }
  if (config.profile) profiler_ = std::make_unique<EventLoopProfiler>();
}

Observation ObserverHub::take() {
  Observation out;
  out.tracer = std::move(tracer_);
  out.timeline = std::move(timeline_);
  out.profiler = std::move(profiler_);
  return out;
}

}  // namespace lumos::serve
