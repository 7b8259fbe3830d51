// Pluggable traffic sources for the serving simulator: the pull-based API
// that feeds the event loop its requests.
//
// `TrafficSource` inverts the old "pre-materialised trace" contract.  The
// event loop asks the source when the next request arrives
// (`next_arrival_time`), pops it when simulated time reaches that instant
// (`pop_arrival`), and feeds every completion back (`on_complete`).  The
// feedback hook is what makes closed-loop clients expressible: a session's
// next arrival does not exist until its previous request completes.
//
// Implementations:
//   * `OpenLoopSource` — wraps a materialised arrival-time-ordered trace
//     (Poisson / MMPP, see trace.hpp); ignores completions.  Bit-identical to
//     the pre-source simulator: same trace, same events, same metrics.
//   * `ClosedLoopSource` — a pool of client sessions, each pinned to one
//     catalog entry (tenant) by seeded mix draw.  A session issues one
//     request, waits for its completion, thinks for an exponential
//     `think_time_mean_s`, then issues the next — `sessions` requests in
//     flight at most, arrival rate set by service speed instead of an offered
//     QPS.  Each session owns an rng stream derived from (seed, session), so
//     think times and sampled sequence lengths are independent of event
//     interleaving, and pending issues order by (time, session id): runs are
//     bit-reproducible across repeats and `LUMOS_THREADS`.
//
// Sources are single-use: one `simulate()` consumes one source.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "serve/event_heap.hpp"
#include "serve/faults.hpp"
#include "serve/metrics.hpp"
#include "serve/trace.hpp"
#include "serve/workload.hpp"

namespace lumos::serve {

// Open- vs closed-loop load generation.
enum class LoopMode { kOpen, kClosed };

struct ClosedLoopConfig {
  std::size_t sessions = 32;              // concurrent client sessions
  std::size_t requests_per_session = 64;  // issues per session before it ends
  double think_time_mean_s = 2e-3;        // exponential think time after a completion
  std::uint64_t seed = 1;
};

// Throws `InvalidArgument` naming the bad field (zero sessions or requests,
// negative / non-finite think time).
void validate_closed_loop(const ClosedLoopConfig& config);

// Which traffic a Scenario runs: open-loop generator knobs or closed-loop
// session knobs, selected by `mode`.
struct TrafficConfig {
  LoopMode mode = LoopMode::kOpen;
  TraceConfig open;
  ClosedLoopConfig closed;
};

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  // Total requests this source will ever issue (the simulation's completion
  // target).
  [[nodiscard]] virtual std::size_t total_requests() const noexcept = 0;

  // Arrival instant of the next pending request; +infinity while none is
  // pending (closed loop: every live session is waiting on a completion).
  [[nodiscard]] virtual double next_arrival_time() const noexcept = 0;

  // Pops the pending request (call only when `next_arrival_time()` is
  // finite).  Ids are assigned in pop (arrival) order.
  [[nodiscard]] virtual Request pop_arrival() = 0;

  // Feedback hook: `request` reached its terminal state at `time_s` —
  // completed (kOk), rejected by admission (kShed), or timed out with no
  // retry budget left (kTimeout).  Exactly one call per logical request
  // (retried attempts are not terminal).  The event loop calls this in
  // deterministic order — (time, dispatch seq), batch order within a batch —
  // before pulling further arrivals, so sources may schedule new arrivals at
  // or after `time_s`.
  virtual void on_complete(const Request& request, double time_s,
                           CompletionStatus status) = 0;

  // Writes source-side results into `metrics` once the loop has drained: the
  // session count, and the session latencies as a sorted run in
  // `metrics.latency_state`, which the simulator attaches before this call
  // and finalises after it.  Open-loop sources report nothing.
  virtual void finish(FleetMetrics& metrics) = 0;
};

// A materialised open-loop trace behind the source API.
class OpenLoopSource final : public TrafficSource {
 public:
  // Owning: takes the trace by value (the generated-trace path).  `trace`
  // must be arrival-time ordered (generate_trace's contract).
  explicit OpenLoopSource(std::vector<Request> trace);
  // Borrowing: serves `*trace` without copying it (the explicit-trace path —
  // a Scenario's trace outlives the run).  Same ordering contract.
  explicit OpenLoopSource(const std::vector<Request>* trace);

  [[nodiscard]] std::size_t total_requests() const noexcept override;
  [[nodiscard]] double next_arrival_time() const noexcept override;
  [[nodiscard]] Request pop_arrival() override;
  void on_complete(const Request& request, double time_s, CompletionStatus status) override;
  void finish(FleetMetrics& metrics) override;

 private:
  std::vector<Request> owned_;
  const std::vector<Request>* trace_;  // owned_ or the borrowed vector
  std::size_t next_ = 0;
};

// Closed-loop session pool behind the source API.
class ClosedLoopSource final : public TrafficSource {
 public:
  // `catalog` must outlive the source.  Validates `config`.
  ClosedLoopSource(const WorkloadCatalog& catalog, const ClosedLoopConfig& config);

  [[nodiscard]] std::size_t total_requests() const noexcept override;
  [[nodiscard]] double next_arrival_time() const noexcept override;
  [[nodiscard]] Request pop_arrival() override;
  void on_complete(const Request& request, double time_s, CompletionStatus status) override;
  void finish(FleetMetrics& metrics) override;

 private:
  struct Session {
    std::uint32_t workload = 0;   // catalog entry this session drives
    std::size_t issued = 0;       // requests popped so far
    std::size_t completed = 0;    // requests finished so far
    double first_issue_s = 0.0;   // first pop instant (session latency start)
    Rng rng;                      // per-session stream: think times + seq lengths

    Session() : rng(0) {}
  };

  // One scheduled issue.  Min-ordered by (time, session id) — the session id
  // tie-break keeps pop order deterministic when think times collide.
  struct Pending {
    double time_s = 0.0;
    std::uint32_t session = 0;
    std::uint32_t seq_len = 0;
    std::uint32_t decode_tokens = 0;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.session > b.session;
    }
  };

  void schedule(std::uint32_t session, double not_before_s);

  const WorkloadCatalog* catalog_;
  ClosedLoopConfig config_;
  std::vector<Session> sessions_;
  EventHeap<Pending, PendingLater> pending_;
  std::vector<double> session_latencies_s_;
  std::uint64_t next_id_ = 0;
};

// Builds the configured source; open-loop materialises the trace via
// `generate_trace` (so a Scenario's open-loop results are bit-identical to
// simulating that trace directly).
[[nodiscard]] std::unique_ptr<TrafficSource> make_traffic_source(
    const WorkloadCatalog& catalog, const TrafficConfig& config);

}  // namespace lumos::serve
