#include "serve/scheduler.hpp"

#include <deque>
#include <map>

#include "common/error.hpp"
#include "serve/event.hpp"

namespace lumos::serve {

namespace {

// Workload w's strict tier under `tiers` (empty vector / out-of-range: 0).
std::uint32_t tier_of(const std::vector<std::uint32_t>& tiers, std::uint32_t workload) {
  return workload < tiers.size() ? tiers[workload] : 0;
}

// FIFO over per-workload sub-queues: a global enqueue sequence defines the
// arrival order, and masked calls compare only the sub-queue heads, so a
// disallowed backlog at the logical front (a saturated mixed fleet's other
// kind) costs O(workloads) per op instead of a scan of the whole queue.
// With priority tiers the pop compares (tier, seq): strict priority across
// tiers, arrival order within a tier.
class FifoScheduler final : public Scheduler {
 public:
  explicit FifoScheduler(std::vector<std::uint32_t> priorities)
      : tiers_(std::move(priorities)) {}

  bool enqueue(const Request& request, double) override {
    if (request.workload >= queues_.size()) queues_.resize(request.workload + 1);
    std::deque<Entry>& queue = queues_[request.workload];
    queue.push_back({seq_++, request});
    ++queued_;
    return queue.size() == 1;
  }

  [[nodiscard]] std::size_t queued() const noexcept override { return queued_; }

  [[nodiscard]] std::size_t queued(std::uint32_t workload) const noexcept override {
    return workload < queues_.size() ? queues_[workload].size() : 0;
  }

  [[nodiscard]] bool ready(double, const WorkloadMask& mask) const noexcept override {
    for (std::uint32_t w = 0; w < queues_.size(); ++w) {
      if (!queues_[w].empty() && mask.allows(w)) return true;
    }
    return false;
  }

  [[nodiscard]] double next_deadline_s(const WorkloadMask&) const noexcept override {
    return kNever;
  }

  void pop(double, const WorkloadMask& mask, std::vector<Request>& out) override {
    out.clear();
    // Lowest-tier, then earliest-enqueued allowed head (the global front when
    // unmasked and untiered).
    std::size_t best = queues_.size();
    for (std::uint32_t w = 0; w < queues_.size(); ++w) {
      if (queues_[w].empty() || !mask.allows(w)) continue;
      if (best == queues_.size()) {
        best = w;
        continue;
      }
      const std::uint32_t tier = tier_of(tiers_, w);
      const std::uint32_t best_tier = tier_of(tiers_, static_cast<std::uint32_t>(best));
      if (tier < best_tier ||
          (tier == best_tier && queues_[w].front().seq < queues_[best].front().seq)) {
        best = w;
      }
    }
    if (best < queues_.size()) {
      out.push_back(queues_[best].front().request);
      queues_[best].pop_front();
      --queued_;
    }
  }

  std::size_t pop_joiners(std::uint32_t workload, std::size_t max_n, double,
                          std::vector<Request>& out) override {
    if (workload >= queues_.size()) return 0;
    std::deque<Entry>& queue = queues_[workload];
    std::size_t taken = 0;
    while (taken < max_n && !queue.empty()) {
      out.push_back(queue.front().request);
      queue.pop_front();
      --queued_;
      ++taken;
    }
    return taken;
  }

 private:
  struct Entry {
    std::uint64_t seq;
    Request request;
  };
  std::vector<std::deque<Entry>> queues_;
  std::vector<std::uint32_t> tiers_;
  std::uint64_t seq_ = 0;
  std::size_t queued_ = 0;
};

// Per-(workload, seq-bucket) batching buckets, keyed workload-major so the
// map iterates (workload, seq) ascending and masks/tiers — which bind per
// workload — test only the key's high half.  A bucket lives only while it
// holds requests: the pop that empties it erases it, so every scan walks the
// waiting work, never every bucket the run has touched.  Readiness and
// deadlines ignore tiers (a lower-priority bucket's deadline must still wake
// the event loop so the tier eventually dispatches); the pop respects strict
// tier order among the ready buckets, falling back to longest-waiting-head
// order within a tier.
class DynamicBatchScheduler final : public Scheduler {
 public:
  DynamicBatchScheduler(const BatchPolicy& policy, std::vector<std::uint32_t> priorities)
      : policy_(policy), tiers_(std::move(priorities)) {
    LUMOS_EXPECTS_MSG(policy.max_batch >= 1 && policy.max_batch <= BatchPolicy::kMaxBatchLimit,
                      "BatchPolicy.max_batch must be in [1, " +
                          std::to_string(BatchPolicy::kMaxBatchLimit) + "], got " +
                          std::to_string(policy.max_batch));
    LUMOS_EXPECTS_MSG(policy.max_wait_s >= 0.0, "BatchPolicy.max_wait_s must be >= 0");
  }

  bool enqueue(const Request& request, double) override {
    // A push behind a bucket's head moves neither its deadline nor, short of
    // filling it, its readiness.
    std::deque<Request>& bucket = buckets_[key_of(request.workload, request.seq_len)];
    bucket.push_back(request);
    ++queued_;
    if (request.workload >= queued_of_.size()) queued_of_.resize(request.workload + 1, 0);
    ++queued_of_[request.workload];
    return bucket.size() == 1 || bucket.size() == policy_.max_batch;
  }

  [[nodiscard]] std::size_t queued() const noexcept override { return queued_; }

  [[nodiscard]] std::size_t queued(std::uint32_t workload) const noexcept override {
    return workload < queued_of_.size() ? queued_of_[workload] : 0;
  }

  [[nodiscard]] bool ready(double now_s, const WorkloadMask& mask) const noexcept override {
    for (const auto& [key, bucket] : buckets_) {
      if (!mask.allows(workload_of(key))) continue;
      if (bucket.size() >= policy_.max_batch) return true;
      if (bucket.front().arrival_s + policy_.max_wait_s <= now_s) return true;
    }
    return false;
  }

  [[nodiscard]] double next_deadline_s(const WorkloadMask& mask) const noexcept override {
    double deadline = kNever;
    for (const auto& [key, bucket] : buckets_) {
      if (!mask.allows(workload_of(key))) continue;
      deadline = std::min(deadline, bucket.front().arrival_s + policy_.max_wait_s);
    }
    return deadline;
  }

  void pop(double now_s, const WorkloadMask& mask, std::vector<Request>& out) override {
    out.clear();
    // Among ready allowed buckets, serve the lowest tier; within a tier, the
    // bucket whose oldest request has waited longest (tie: lowest
    // (workload id, seq bucket) via the map's iteration order).
    auto best = buckets_.end();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (!mask.allows(workload_of(it->first))) continue;
      const std::deque<Request>& bucket = it->second;
      const bool is_ready = bucket.size() >= policy_.max_batch ||
                            bucket.front().arrival_s + policy_.max_wait_s <= now_s;
      if (!is_ready) continue;
      if (best == buckets_.end()) {
        best = it;
        continue;
      }
      const std::uint32_t tier = tier_of(tiers_, workload_of(it->first));
      const std::uint32_t best_tier = tier_of(tiers_, workload_of(best->first));
      if (tier < best_tier ||
          (tier == best_tier && bucket.front().arrival_s < best->second.front().arrival_s)) {
        best = it;
      }
    }
    if (best == buckets_.end()) return;
    std::deque<Request>& bucket = best->second;
    const std::size_t take = std::min(policy_.max_batch, bucket.size());
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(bucket.front());
      bucket.pop_front();
    }
    queued_ -= take;
    queued_of_[workload_of(best->first)] -= take;
    if (bucket.empty()) buckets_.erase(best);
  }

  std::size_t pop_joiners(std::uint32_t workload, std::size_t max_n, double,
                          std::vector<Request>& out) override {
    // One joiner at a time: always the oldest head across the workload's seq
    // buckets (tie: lowest seq bucket via map order).  max_n is a lane count
    // — small — so the repeated scan over the workload's buckets stays cheap.
    std::size_t taken = 0;
    while (taken < max_n) {
      auto best = buckets_.end();
      for (auto it = buckets_.lower_bound(key_of(workload, 0));
           it != buckets_.end() && workload_of(it->first) == workload; ++it) {
        if (best == buckets_.end() ||
            it->second.front().arrival_s < best->second.front().arrival_s) {
          best = it;
        }
      }
      if (best == buckets_.end()) break;
      out.push_back(best->second.front());
      best->second.pop_front();
      if (best->second.empty()) buckets_.erase(best);
      --queued_;
      ++taken;
    }
    if (taken > 0) queued_of_[workload] -= taken;
    return taken;
  }

 private:
  // Workload-major bucket key: high 32 bits workload, low 32 bits seq bucket.
  [[nodiscard]] static std::uint64_t key_of(std::uint32_t workload,
                                            std::uint32_t seq_len) noexcept {
    return (static_cast<std::uint64_t>(workload) << 32) | seq_len;
  }
  [[nodiscard]] static std::uint32_t workload_of(std::uint64_t key) noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }

  BatchPolicy policy_;
  std::vector<std::uint32_t> tiers_;
  // std::map for deterministic iteration order (ascending workload, seq);
  // never holds an empty bucket.
  std::map<std::uint64_t, std::deque<Request>> buckets_;
  std::size_t queued_ = 0;
  // Waiting requests per workload, kept so that `queued(workload)` — read at
  // every token boundary of a continuous decode — is O(1).
  std::vector<std::size_t> queued_of_;
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, const BatchPolicy& policy,
                                          std::vector<std::uint32_t> priorities) {
  if (kind == SchedulerKind::kFifo) {
    return std::make_unique<FifoScheduler>(std::move(priorities));
  }
  return std::make_unique<DynamicBatchScheduler>(policy, std::move(priorities));
}

}  // namespace lumos::serve
