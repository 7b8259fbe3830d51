#include "serve/traffic.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "serve/event.hpp"

namespace lumos::serve {

void validate_closed_loop(const ClosedLoopConfig& config) {
  if (config.sessions < 1) {
    throw InvalidArgument("ClosedLoopConfig.sessions must be >= 1");
  }
  if (config.requests_per_session < 1) {
    throw InvalidArgument("ClosedLoopConfig.requests_per_session must be >= 1");
  }
  if (!(config.think_time_mean_s >= 0.0) || !std::isfinite(config.think_time_mean_s)) {
    throw InvalidArgument("ClosedLoopConfig.think_time_mean_s must be finite and >= 0, got " +
                          std::to_string(config.think_time_mean_s));
  }
  if (config.sessions > 0xFFFFFFFEull) {
    throw InvalidArgument("ClosedLoopConfig.sessions must fit a session id");
  }
}

// ---------------------------------------------------------------------------
// OpenLoopSource
// ---------------------------------------------------------------------------

OpenLoopSource::OpenLoopSource(std::vector<Request> trace)
    : owned_(std::move(trace)), trace_(&owned_) {}

OpenLoopSource::OpenLoopSource(const std::vector<Request>* trace) : trace_(trace) {
  LUMOS_EXPECTS_MSG(trace != nullptr, "OpenLoopSource needs a trace");
}

std::size_t OpenLoopSource::total_requests() const noexcept { return trace_->size(); }

double OpenLoopSource::next_arrival_time() const noexcept {
  return next_ < trace_->size() ? (*trace_)[next_].arrival_s : kNever;
}

Request OpenLoopSource::pop_arrival() {
  LUMOS_EXPECTS(next_ < trace_->size());
  return (*trace_)[next_++];
}

void OpenLoopSource::on_complete(const Request&, double, CompletionStatus) {}

void OpenLoopSource::finish(FleetMetrics&) {}

// ---------------------------------------------------------------------------
// ClosedLoopSource
// ---------------------------------------------------------------------------

ClosedLoopSource::ClosedLoopSource(const WorkloadCatalog& catalog,
                                   const ClosedLoopConfig& config)
    : catalog_(&catalog), config_(config) {
  LUMOS_EXPECTS_MSG(!catalog.empty(), "ClosedLoopSource needs a non-empty catalog");
  validate_closed_loop(config);

  // Tenant assignment: one seeded mix draw per session, so the session pool
  // follows the catalog's weights independently of think-time draws.
  Rng tenant_rng(config.seed, /*stream=*/0x5E55);
  std::vector<double> cumulative;
  cumulative.reserve(catalog.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    acc += catalog.at(i).mix_weight;
    cumulative.push_back(acc);
  }

  sessions_.resize(config.sessions);
  session_latencies_s_.reserve(config.sessions);
  for (std::uint32_t s = 0; s < config.sessions; ++s) {
    const double u = tenant_rng.next_double() * cumulative.back();
    std::uint32_t workload = 0;
    while (cumulative[workload] <= u && workload + 1 < cumulative.size()) ++workload;
    sessions_[s].workload = workload;
    // Per-session stream: every draw a session ever makes (initial stagger,
    // think times, sequence lengths) comes from its own sequence, so the
    // draws cannot depend on how sessions interleave.
    sessions_[s].rng = Rng(config.seed, /*stream=*/0xC0FFEEull + s);
    // Stagger the first issues with one think draw each: sessions do not all
    // slam the fleet at t = 0.
    schedule(s, 0.0);
  }
}

void ClosedLoopSource::schedule(std::uint32_t session, double not_before_s) {
  Session& s = sessions_[session];
  const double think_s =
      config_.think_time_mean_s > 0.0 ? s.rng.exponential(config_.think_time_mean_s) : 0.0;
  const CatalogEntry& entry = catalog_->at(s.workload);
  const std::uint32_t seq_len = entry.prompt().sample(s.rng, kPromptFloor, kPromptGrid);
  // Decode-free tenants draw nothing here, so their sessions' streams (and
  // every pre-decode scenario) replay bit-identically.
  const std::uint32_t decode_tokens = entry.decode.tokens.sample(s.rng);
  pending_.push({not_before_s + think_s, session, seq_len, decode_tokens});
}

std::size_t ClosedLoopSource::total_requests() const noexcept {
  return config_.sessions * config_.requests_per_session;
}

double ClosedLoopSource::next_arrival_time() const noexcept {
  return pending_.next_time_s();
}

Request ClosedLoopSource::pop_arrival() {
  LUMOS_EXPECTS(!pending_.empty());
  const Pending p = pending_.pop();
  Session& s = sessions_[p.session];
  if (s.issued == 0) s.first_issue_s = p.time_s;
  ++s.issued;
  Request r;
  r.id = next_id_++;
  r.arrival_s = p.time_s;
  r.workload = s.workload;
  r.seq_len = p.seq_len;
  r.session = p.session;
  r.decode_tokens = p.decode_tokens;
  return r;
}

void ClosedLoopSource::on_complete(const Request& request, double time_s,
                                   CompletionStatus /*status*/) {
  // A shed or timed-out request still unblocks its session: the client saw a
  // terminal answer (fast rejection or deadline expiry) and moves on.
  if (request.session == Request::kNoSession) return;
  LUMOS_EXPECTS(request.session < sessions_.size());
  Session& s = sessions_[request.session];
  ++s.completed;
  if (s.issued < config_.requests_per_session) {
    // The client thinks, then issues its next request.
    schedule(request.session, time_s);
  } else if (s.completed == config_.requests_per_session) {
    // Session done: end-to-end latency from first issue to last completion.
    session_latencies_s_.push_back(time_s - s.first_issue_s);
  }
}

void ClosedLoopSource::finish(FleetMetrics& metrics) {
  LUMOS_EXPECTS(metrics.latency_state != nullptr);
  metrics.sessions = session_latencies_s_.size();
  metrics.latency_state->session_samples = SampleRun(std::move(session_latencies_s_));
}

std::unique_ptr<TrafficSource> make_traffic_source(const WorkloadCatalog& catalog,
                                                   const TrafficConfig& config) {
  if (config.mode == LoopMode::kClosed) {
    return std::make_unique<ClosedLoopSource>(catalog, config.closed);
  }
  return std::make_unique<OpenLoopSource>(generate_trace(catalog, config.open));
}

}  // namespace lumos::serve
