// Fault and overload machinery for the serving simulator: slot failure
// injection, request timeouts/retries, and admission control.
//
// Three independent knobs, all disabled by default and all bit-reproducible:
//
//   * `FaultConfig` — a seeded per-slot failure/recovery process.  Each slot
//     draws exponential time-to-failure (mean `mtbf_s`) and time-to-repair
//     (mean `mttr_s`) from its own rng stream (keyed by slot index), so the
//     fault schedule is independent of event interleaving and of how many
//     slots exist at any instant.  A failing slot aborts its in-flight batch
//     (the simulator requeues the requests) and is invisible to routing and
//     autoscaling until it recovers.
//   * `RetryPolicy` — bounded retries with exponential backoff plus
//     deterministic jitter for attempts that time out (`CatalogEntry.
//     timeout_s`).  Backoff for attempt k is
//     base_backoff_s * kBackoffMultiplier^(k-1) * (1 +/- kBackoffJitter), that
//     is base * 2^(k-1) within 10%, the jitter drawn from a stream keyed by
//     the request id so retried arrivals replay bit-for-bit.
//   * `AdmissionConfig` — an admission policy that `admit` consults at
//     every arrival (retries included).  Policies: admit everything, a global
//     queue cap, tier-aware shedding (tier k's cap is queue_cap *
//     kTierShedFactor^k, a quarter per tier, so tier 0 keeps its goodput
//     while tier 1 sheds — the DAGOR/Breakwater shape), and SLO-aware
//     cost-based rejection, admitting while the predicted latency from the
//     estimate cache's service times fits the request's SLO.
//
// Terminal request outcomes are `CompletionStatus`; the traffic source sees
// exactly one terminal status per logical request via
// `TrafficSource::on_complete`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace lumos::serve {

// Terminal outcome of one logical request (one `on_complete` call each).
enum class CompletionStatus {
  kOk,       // completed; scored against its SLO
  kShed,     // rejected by admission control at arrival
  kTimeout,  // exceeded its timeout with no retry budget left
};

// Per-slot failure/recovery process knobs.  `mtbf_s <= 0` (the default)
// disables injection entirely — the simulator takes the bit-identical
// fault-free path.
struct FaultConfig {
  double mtbf_s = 0.0;   // mean time between failures per slot; <= 0 disables
  double mttr_s = 1e-3;  // mean time to repair a failed slot
  std::uint64_t seed = 1;

  [[nodiscard]] bool enabled() const noexcept { return mtbf_s > 0.0; }
};

// Throws `InvalidArgument` naming the bad field (non-finite mtbf, non-positive
// or non-finite mttr while enabled).  A disabled config is always valid.
void validate_faults(const FaultConfig& config);

// Backoff growth per further retry, and the +/- fraction of the backoff that
// the seeded jitter draws.
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kBackoffJitter = 0.1;

// Retry knobs for timed-out attempts.  `max_attempts` counts every attempt
// including the first, so 1 (the default) means "no retries".
struct RetryPolicy {
  std::size_t max_attempts = 1;  // total attempts per logical request
  double base_backoff_s = 1e-3;  // backoff before the second attempt
  std::uint64_t seed = 1;        // jitter stream

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 1; }
};

// Throws `InvalidArgument` naming the bad field (zero attempts, negative or
// non-finite backoff).
void validate_retry(const RetryPolicy& policy);

// Backoff delay before re-issuing request `request_id` as retry number
// `attempt` (1-based: the first retry passes 1 and waits `base_backoff_s`,
// scaled by kBackoffMultiplier per further retry, then jittered).  Pure
// function of (policy, request_id, attempt): retried schedules replay
// bit-for-bit regardless of event interleaving.
[[nodiscard]] double retry_backoff_s(const RetryPolicy& policy, std::uint64_t request_id,
                                     std::size_t attempt);

enum class AdmissionPolicy {
  kNone,      // admit everything (bit-identical to the pre-admission loop)
  kQueueCap,  // reject when the queue already holds `queue_cap` requests
  kTierShed,  // per-tier caps: queue_cap * kTierShedFactor^tier — lower
              // tiers shed first, tier 0 keeps (almost) the full cap
  kSloAware,  // reject when predicted wait + service exceeds the request's SLO
};

// kTierShed's cap shrink per priority tier.
inline constexpr double kTierShedFactor = 0.25;

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kNone;
  std::size_t queue_cap = 256;  // kQueueCap / kTierShed: tier-0 queue bound
};

// Throws `InvalidArgument` for a zero cap under kQueueCap or kTierShed.  Any
// other config is valid.
void validate_admission(const AdmissionConfig& config);

// What an admission decision may look at: the arriving request's tier and
// SLO, the queue, and the fleet's predicted cost of serving it.  The
// simulator fills `predicted_wait_s`/`service_s` only for policies that need
// them (kSloAware), so disabled-policy runs never touch the estimate cache.
struct AdmissionSignals {
  std::uint32_t tier = 0;         // priority tier of the arriving request
  std::size_t queued = 0;         // requests waiting in the scheduler
  double predicted_wait_s = 0.0;  // estimated queue-drain time ahead of it
  double service_s = 0.0;         // estimated service time of this request
  double slo_s = 0.0;             // SLO the request will be scored against
};

// True to admit the arriving request under `config`'s policy (always true
// under kNone).  A pure function of its arguments: admission decisions replay
// bit-for-bit.
[[nodiscard]] bool admit(const AdmissionConfig& config, const AdmissionSignals& signals);

// Seeded per-slot failure/recovery process.  Tracked slots alternate up and
// down phases with exponential dwell times; every slot owns an rng stream
// keyed by its index, so one slot's phase sequence never depends on another's
// (or on when slots are grown).  `next_event_s`/`next_event_slot` expose the
// earliest pending transition (ties break on the lowest slot index), which
// the event loop folds in as its fifth event source.
class SlotFaultProcess {
 public:
  // Validates `config` (must be enabled: callers gate on `config.enabled()`).
  explicit SlotFaultProcess(const FaultConfig& config);

  // Starts tracking the next slot index (up from `now_s`; first failure drawn
  // immediately).  Call once per fleet slot in index order, growth included.
  void add_slot(double now_s);
  // Stops tracking `slot` (retired slots neither fail nor recover).
  void remove_slot(std::size_t slot);

  [[nodiscard]] bool up(std::size_t slot) const noexcept;

  // Earliest pending transition instant (+infinity when nothing is tracked)
  // and the slot it belongs to.  Both are kept current by `add_slot`,
  // `remove_slot` and `advance`, so the event loop reads them without a scan.
  [[nodiscard]] double next_event_s() const noexcept { return next_s_; }
  [[nodiscard]] std::size_t next_event_slot() const noexcept { return next_slot_; }

  // Applies `slot`'s pending transition; returns its new up state (false:
  // just failed, true: just recovered).  The next transition is drawn from
  // the slot's own stream at the call.
  bool advance(std::size_t slot);

 private:
  struct State {
    Rng rng;
    bool tracked = false;
    bool up = true;
    double next_s = 0.0;

    State() : rng(0) {}
  };

  // Recomputes `next_s_` and `next_slot_` over the tracked slots.
  void find_next() noexcept;

  FaultConfig config_;
  std::vector<State> states_;
  double next_s_;
  std::size_t next_slot_;
};

}  // namespace lumos::serve
