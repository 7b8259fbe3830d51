#include "serve/scheduler.hpp"

#include <algorithm>
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

// Per-(workload, seq-bucket) batching buckets, keyed workload-major so keys
// order (workload, seq) ascending and masks/tiers — which bind per workload —
// test only the key's high half.  The map indexes every bucket the run has
// opened and never erases one: a bucket keeps its storage, so a batch that
// drains it leaves its vector's capacity for the next opening, and a run
// allocates per bucket, not per batch.  The scans walk `open_`, the
// non-empty buckets in ascending key order, so they see the waiting work and
// never every bucket the run has touched.  Readiness and deadlines ignore
// tiers (a lower-priority bucket's deadline must still wake the event loop
// so the tier eventually dispatches); the pop respects strict tier order
// among the ready buckets, falling back to longest-waiting-head order within
// a tier.
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
  // `open_` points into `buckets_`, so a copy would point into its source.
  DynamicBatchScheduler(const DynamicBatchScheduler&) = delete;
  DynamicBatchScheduler& operator=(const DynamicBatchScheduler&) = delete;

  bool enqueue(const Request& request, double) override {
    // A push behind a bucket's head moves neither its deadline nor, short of
    // filling it, its readiness.
    const std::uint64_t key = key_of(request.workload, request.seq_len);
    Bucket& bucket = buckets_.try_emplace(key, key).first->second;
    if (bucket.empty()) open_.insert(open_.begin() + open_from(key), &bucket);
    bucket.requests.push_back(request);
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
    for (const Bucket* bucket : open_) {
      if (!mask.allows(workload_of(bucket->key))) continue;
      if (bucket->size() >= policy_.max_batch) return true;
      if (bucket->front().arrival_s + policy_.max_wait_s <= now_s) return true;
    }
    return false;
  }

  [[nodiscard]] double next_deadline_s(const WorkloadMask& mask) const noexcept override {
    double deadline = kNever;
    for (const Bucket* bucket : open_) {
      if (!mask.allows(workload_of(bucket->key))) continue;
      deadline = std::min(deadline, bucket->front().arrival_s + policy_.max_wait_s);
    }
    return deadline;
  }

  void pop(double now_s, const WorkloadMask& mask, std::vector<Request>& out) override {
    out.clear();
    // Among ready allowed buckets, serve the lowest tier; within a tier, the
    // bucket whose oldest request has waited longest (tie: lowest
    // (workload id, seq bucket), the first in `open_`).
    std::size_t best = open_.size();
    for (std::size_t i = 0; i < open_.size(); ++i) {
      const Bucket& bucket = *open_[i];
      if (!mask.allows(workload_of(bucket.key))) continue;
      const bool is_ready = bucket.size() >= policy_.max_batch ||
                            bucket.front().arrival_s + policy_.max_wait_s <= now_s;
      if (!is_ready) continue;
      if (best == open_.size()) {
        best = i;
        continue;
      }
      const Bucket& incumbent = *open_[best];
      const std::uint32_t tier = tier_of(tiers_, workload_of(bucket.key));
      const std::uint32_t best_tier = tier_of(tiers_, workload_of(incumbent.key));
      if (tier < best_tier ||
          (tier == best_tier && bucket.front().arrival_s < incumbent.front().arrival_s)) {
        best = i;
      }
    }
    if (best < open_.size()) {
      take_from(best, std::min(policy_.max_batch, open_[best]->size()), out);
    }
  }

  std::size_t pop_joiners(std::uint32_t workload, std::size_t max_n, double,
                          std::vector<Request>& out) override {
    // One joiner at a time: always the oldest head across the workload's seq
    // buckets (tie: lowest seq bucket, the first in `open_`).  max_n is a
    // lane count — small — so the repeated scan over the workload's buckets
    // stays cheap.
    const auto begin = static_cast<std::size_t>(open_from(key_of(workload, 0)));
    std::size_t taken = 0;
    while (taken < max_n) {
      std::size_t best = open_.size();
      for (std::size_t i = begin; i < open_.size() && workload_of(open_[i]->key) == workload;
           ++i) {
        if (best == open_.size() || open_[i]->front().arrival_s < open_[best]->front().arrival_s) {
          best = i;
        }
      }
      if (best == open_.size()) break;
      take_from(best, 1, out);
      ++taken;
    }
    return taken;
  }

 private:
  // One (workload, seq) bucket: its waiting requests are `requests[head..]`,
  // in arrival order.
  struct Bucket {
    explicit Bucket(std::uint64_t k) : key(k) {}
    [[nodiscard]] std::size_t size() const noexcept { return requests.size() - head; }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] const Request& front() const noexcept { return requests[head]; }

    std::uint64_t key;
    std::vector<Request> requests;
    std::size_t head = 0;
  };

  // A bucket that never drains drops its consumed prefix once the head has
  // passed this many requests and half the vector.
  static constexpr std::size_t kCompactHead = 64;

  // Index in `open_` of the first open bucket whose key is at least `key`.
  [[nodiscard]] std::ptrdiff_t open_from(std::uint64_t key) const {
    return std::lower_bound(open_.begin(), open_.end(), key,
                            [](const Bucket* b, std::uint64_t k) { return b->key < k; }) -
           open_.begin();
  }

  // Moves the `n` oldest requests of `open_[i]` to `out`.  A bucket that
  // this drains clears its vector, keeping the capacity, and leaves `open_`.
  void take_from(std::size_t i, std::size_t n, std::vector<Request>& out) {
    Bucket& bucket = *open_[i];
    const auto first = bucket.requests.begin() + static_cast<std::ptrdiff_t>(bucket.head);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
    bucket.head += n;
    queued_ -= n;
    queued_of_[workload_of(bucket.key)] -= n;
    if (bucket.head == bucket.requests.size()) {
      bucket.requests.clear();
      bucket.head = 0;
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (bucket.head >= kCompactHead && 2 * bucket.head >= bucket.requests.size()) {
      bucket.requests.erase(bucket.requests.begin(),
                            bucket.requests.begin() + static_cast<std::ptrdiff_t>(bucket.head));
      bucket.head = 0;
    }
  }

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
  // Every bucket the run has opened, by key; a node never moves, so `open_`
  // holds pointers into it.
  std::map<std::uint64_t, Bucket> buckets_;
  // The non-empty buckets, ascending key: the order every scan and tie-break
  // reads.
  std::vector<Bucket*> open_;
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
