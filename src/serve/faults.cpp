#include "serve/faults.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "serve/event.hpp"

namespace lumos::serve {

namespace {
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
// Stream bases keep fault draws and retry jitter off every existing stream
// (traces, sessions, tenant assignment).
constexpr std::uint64_t kFaultStreamBase = 0xFA117;
constexpr std::uint64_t kJitterStreamBase = 0x8ACC0FF;
}  // namespace

void validate_faults(const FaultConfig& config) {
  if (!std::isfinite(config.mtbf_s)) {
    throw InvalidArgument("FaultConfig.mtbf_s must be finite, got " +
                          std::to_string(config.mtbf_s));
  }
  if (!config.enabled()) return;
  if (!(config.mttr_s > 0.0) || !std::isfinite(config.mttr_s)) {
    throw InvalidArgument("FaultConfig.mttr_s must be positive and finite, got " +
                          std::to_string(config.mttr_s));
  }
}

void validate_retry(const RetryPolicy& policy) {
  if (policy.max_attempts < 1) {
    throw InvalidArgument("RetryPolicy.max_attempts must be >= 1 (1 means no retries)");
  }
  if (!(policy.base_backoff_s >= 0.0) || !std::isfinite(policy.base_backoff_s)) {
    throw InvalidArgument("RetryPolicy.base_backoff_s must be finite and >= 0, got " +
                          std::to_string(policy.base_backoff_s));
  }
}

double retry_backoff_s(const RetryPolicy& policy, std::uint64_t request_id,
                       std::size_t attempt) {
  LUMOS_EXPECTS(attempt >= 1);  // attempt 0 is the first issue, never backed off
  double backoff = policy.base_backoff_s;
  for (std::size_t k = 1; k < attempt; ++k) backoff *= kBackoffMultiplier;
  // One fresh stream per (request, attempt): the draw cannot depend on how
  // many other requests retried before this one.
  Rng rng(policy.seed, kJitterStreamBase + request_id * 31 + attempt);
  return backoff * rng.uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
}

void validate_admission(const AdmissionConfig& config) {
  if ((config.policy == AdmissionPolicy::kQueueCap ||
       config.policy == AdmissionPolicy::kTierShed) &&
      config.queue_cap < 1) {
    throw InvalidArgument("AdmissionConfig.queue_cap must be >= 1");
  }
}

bool admit(const AdmissionConfig& config, const AdmissionSignals& s) {
  switch (config.policy) {
    case AdmissionPolicy::kQueueCap:
      return s.queued < config.queue_cap;
    case AdmissionPolicy::kTierShed: {
      // DAGOR-shaped tiered shedding: tier k is admitted while the queue is
      // below queue_cap * kTierShedFactor^k, so under mounting backlog the
      // lowest tiers stop being admitted first and tier 0 keeps (almost) the
      // whole cap.
      double cap = static_cast<double>(config.queue_cap);
      for (std::uint32_t k = 0; k < s.tier; ++k) cap *= kTierShedFactor;
      return static_cast<double>(s.queued) < cap;
    }
    case AdmissionPolicy::kSloAware:
      // Breakwater-shaped cost-based rejection: admit only while the
      // predicted completion latency (queue drain ahead of the request plus
      // its own service) fits within the SLO it will be scored against.
      return s.predicted_wait_s + s.service_s <= s.slo_s;
    case AdmissionPolicy::kNone:
      break;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SlotFaultProcess
// ---------------------------------------------------------------------------

SlotFaultProcess::SlotFaultProcess(const FaultConfig& config)
    : config_(config), next_s_(kNever), next_slot_(kNoSlot) {
  validate_faults(config);
  LUMOS_EXPECTS_MSG(config.enabled(), "SlotFaultProcess needs an enabled FaultConfig");
}

void SlotFaultProcess::add_slot(double now_s) {
  State s;
  s.rng = Rng(config_.seed, kFaultStreamBase + states_.size());
  s.tracked = true;
  s.up = true;
  s.next_s = now_s + s.rng.exponential(config_.mtbf_s);
  states_.push_back(std::move(s));
  find_next();
}

void SlotFaultProcess::remove_slot(std::size_t slot) {
  LUMOS_EXPECTS(slot < states_.size());
  states_[slot].tracked = false;
  find_next();
}

bool SlotFaultProcess::up(std::size_t slot) const noexcept {
  return slot < states_.size() ? states_[slot].up : true;
}

void SlotFaultProcess::find_next() noexcept {
  // Strict `<`: ties go to the lowest slot index.
  next_s_ = kNever;
  next_slot_ = kNoSlot;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    if (s.tracked && s.next_s < next_s_) {
      next_s_ = s.next_s;
      next_slot_ = i;
    }
  }
}

bool SlotFaultProcess::advance(std::size_t slot) {
  LUMOS_EXPECTS(slot < states_.size());
  State& s = states_[slot];
  LUMOS_EXPECTS(s.tracked);
  const double now_s = s.next_s;
  s.up = !s.up;
  s.next_s = now_s + s.rng.exponential(s.up ? config_.mtbf_s : config_.mttr_s);
  find_next();
  return s.up;
}

}  // namespace lumos::serve
