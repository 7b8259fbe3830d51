// Autoscaling policies for the serving simulator: elastic fleets.
//
// An autoscaler policy is a step-based control law the event loop evaluates
// every `interval_s` of *simulated* time, once per spec family (the distinct
// registry names the fleet was built from).  Each step sees the family's
// signals — active slot count, queued requests it could serve, utilization
// over the last interval — and returns a desired slot delta against the
// policy's constant thresholds (kQueueHighPerSlot and the others below).  The
// simulator applies the delta by instantiating a new registry-named
// accelerator (growth) or retiring one (shrink).  Retiring always drains
// first: the slot stops receiving dispatches immediately but finishes its
// in-flight batch, so no request is ever dropped and the event loop's (time,
// seq) total order is preserved — simulations stay bit-reproducible.
//
// Growth can instantiate scaled registry variants ("tron@0.5") via
// `grow_scale`, giving policies a continuous-ish action space over the
// discrete slot count.
#pragma once

#include <cstddef>

namespace lumos::serve {

enum class AutoscalerPolicy {
  kNone,               // static fleet (bit-identical to the non-elastic simulator)
  kQueueDepth,         // reactive: grow on backlog, shrink on idle capacity
  kTargetUtilization,  // track a utilization set point with a dead band
};

// kQueueDepth: grow when the family's queue exceeds kQueueHighPerSlot
// requests per active slot; shrink when the queue is empty and utilization
// over the last interval fell below kQueueLowUtilization.
inline constexpr double kQueueHighPerSlot = 4.0;
inline constexpr double kQueueLowUtilization = 0.3;

// kTargetUtilization: grow above kUtilizationTarget + kUtilizationBand,
// shrink below kUtilizationTarget - kUtilizationBand (never with a backlog
// deeper than the active slots).
inline constexpr double kUtilizationTarget = 0.65;
inline constexpr double kUtilizationBand = 0.15;

struct AutoscalerConfig {
  AutoscalerPolicy policy = AutoscalerPolicy::kNone;
  // Evaluation step, in simulated seconds.
  double interval_s = 5e-3;

  // Per-family slot bounds.  `min_slots >= 1` keeps every workload kind
  // serveable, so elastic simulations can never livelock.
  std::size_t min_slots = 1;
  std::size_t max_slots = 64;

  // Spec scale of grown slots: 1 reuses the family's spec verbatim; other
  // values instantiate the registry's "<base>@<scale>" variant (e.g. 0.5
  // grows half-size burst capacity).
  double grow_scale = 1.0;
};

// Throws `InvalidArgument` naming the bad field (non-positive or non-finite
// interval or grow_scale, min_slots of 0, max < min).  A kNone config is
// always valid.
void validate_autoscaler(const AutoscalerConfig& config);

// One spec family's observable state at an evaluation step.
struct FamilySignals {
  std::size_t active_slots = 0;  // accepting dispatches (up, not draining)
  std::size_t queued = 0;        // waiting requests this family could serve
  double utilization = 0.0;      // family busy fraction over the last interval
};

// Desired slot delta of `config`'s policy for one family at one step
// (positive grows, negative shrinks, 0 under kNone; the simulator clamps so
// active slots stay within [min_slots, max_slots]).  A pure function of its
// arguments, so elastic simulations replay bit-for-bit.
[[nodiscard]] int autoscale_step(const AutoscalerConfig& config, const FamilySignals& signals);

}  // namespace lumos::serve
