#include "serve/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace lumos::serve {

void validate_autoscaler(const AutoscalerConfig& config) {
  if (config.policy == AutoscalerPolicy::kNone) return;
  if (!(config.interval_s > 0.0) || !std::isfinite(config.interval_s)) {
    throw InvalidArgument("AutoscalerConfig.interval_s must be positive and finite, got " +
                          std::to_string(config.interval_s));
  }
  if (config.min_slots == 0) {
    throw InvalidArgument("AutoscalerConfig.min_slots must be >= 1 (a family with zero "
                          "slots could never serve its workload kind again)");
  }
  if (config.max_slots < config.min_slots) {
    throw InvalidArgument("AutoscalerConfig.max_slots must be >= min_slots, got " +
                          std::to_string(config.max_slots) + " < " +
                          std::to_string(config.min_slots));
  }
  if (!(config.grow_scale > 0.0) || !std::isfinite(config.grow_scale)) {
    throw InvalidArgument("AutoscalerConfig.grow_scale must be positive and finite, got " +
                          std::to_string(config.grow_scale));
  }
}

int autoscale_step(const AutoscalerConfig& config, const FamilySignals& s) {
  switch (config.policy) {
    case AutoscalerPolicy::kQueueDepth: {
      // Reactive backlog policy: a queue deeper than kQueueHighPerSlot
      // requests per active slot means the family is falling behind — grow.
      // An empty queue with the family mostly idle over the last interval
      // means capacity is wasted — shrink one slot.  max(1, active): every
      // slot of the family may be failed under fault injection, and a backlog
      // with zero active slots must read as "grow".
      const double per_slot = static_cast<double>(s.queued) /
                              static_cast<double>(std::max<std::size_t>(s.active_slots, 1));
      if (per_slot > kQueueHighPerSlot) return 1;
      if (s.queued == 0 && s.utilization < kQueueLowUtilization) return -1;
      return 0;
    }
    case AutoscalerPolicy::kTargetUtilization:
      // Set-point policy: keep utilization inside a dead band around the
      // target.  Never shrinks into a backlog deeper than the active slots
      // (the queue would immediately re-trigger growth and the fleet would
      // oscillate).
      if (s.utilization > kUtilizationTarget + kUtilizationBand) return 1;
      if (s.utilization < kUtilizationTarget - kUtilizationBand &&
          s.queued <= s.active_slots) {
        return -1;
      }
      return 0;
    case AutoscalerPolicy::kNone:
      break;
  }
  return 0;
}

}  // namespace lumos::serve
