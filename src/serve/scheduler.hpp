// Pluggable batching schedulers for the serving simulator.
//
// A scheduler owns the waiting requests and decides what dispatches next:
//   * FIFO — strict arrival order, one request per dispatch (the no-batching
//     baseline: lowest unloaded latency, worst throughput under load);
//   * dynamic batching — per-(workload, seq-bucket) buckets (a batch must
//     share one model AND one sampled sequence-length bucket to pipeline
//     through stationary weights); a bucket dispatches when it reaches
//     `max_batch` or when its oldest request has waited `max_wait_s`,
//     whichever comes first.  Fixed-length entries put everything in the
//     seq-0 bucket, reproducing the pre-seqlen per-workload buckets exactly.
// Mixed-kind fleets pass a `WorkloadMask` restricting what can dispatch right
// now (kind-aware routing: a GNN batch only goes to an idle GHOST-family
// accelerator); the default mask allows every workload, and with it the
// schedulers behave exactly as the unmasked originals.
//
// Strict priority tiers: `make_scheduler` optionally takes per-workload tiers
// (lower = more urgent).  Among the mask-allowed work that is ready right
// now, the lowest tier always pops first; within a tier the pre-tier order is
// unchanged (arrival order for FIFO, longest-waiting bucket for dynamic
// batching).  An empty tier vector — or all-zero tiers — reproduces the
// untiered schedulers bit-for-bit.  All tie-breaks are deterministic (tier,
// bucket id, arrival order), so a simulation is replayable bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/trace.hpp"

namespace lumos::serve {

enum class SchedulerKind { kFifo, kDynamicBatch };

struct BatchPolicy {
  std::size_t max_batch = 8;   // largest batch a bucket dispatches
  double max_wait_s = 2e-3;    // oldest-request deadline forcing a dispatch

  // Ceiling on max_batch (metrics size a histogram by it; pipelined batches
  // beyond this are outside any modelled regime anyway).
  static constexpr std::size_t kMaxBatchLimit = 4096;
};

// The workload indices the fleet can dispatch right now.  Default-constructed
// masks allow everything (single-kind fleets); the simulator builds
// restricted masks from the idle accelerators' serveable kinds.  Non-owning:
// `allowed` must outlive the call it is passed to.
class WorkloadMask {
 public:
  WorkloadMask() = default;  // allows every workload
  explicit WorkloadMask(const std::vector<char>* allowed) noexcept : allowed_(allowed) {}

  [[nodiscard]] bool allows(std::uint32_t workload) const noexcept {
    return allowed_ == nullptr ||
           (workload < allowed_->size() && (*allowed_)[workload] != 0);
  }

 private:
  const std::vector<char>* allowed_ = nullptr;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Queues `request`.  Returns whether the push can have changed `ready` or
  // `next_deadline_s` under some mask: a dynamic-batching bucket opens (a new
  // deadline) or reaches `max_batch`; a FIFO workload's sub-queue leaves
  // empty.  A false return lets the event loop skip its dispatch round.
  virtual bool enqueue(const Request& request, double now_s) = 0;
  [[nodiscard]] virtual std::size_t queued() const noexcept = 0;
  // Waiting requests of one workload, in O(1): the autoscaler's per-family
  // backlog, and whether a joiner could board a decoding slot.
  [[nodiscard]] virtual std::size_t queued(std::uint32_t workload) const noexcept = 0;
  // True if `pop` would return a non-empty batch at `now_s` under `mask`.
  [[nodiscard]] virtual bool ready(double now_s,
                                   const WorkloadMask& mask = {}) const noexcept = 0;
  // Earliest future instant at which a mask-allowed held batch becomes ready
  // by deadline (+infinity when nothing allowed is waiting or everything
  // allowed is already ready).
  [[nodiscard]] virtual double next_deadline_s(
      const WorkloadMask& mask = {}) const noexcept = 0;
  // Pops the next mask-allowed batch into `out` (cleared first; arrival
  // order within a batch; single workload per batch for batching
  // schedulers).  `out` stays empty when !ready(now_s).  Taking the buffer
  // from the caller lets the event loop recycle batch storage through its
  // `RequestArena` instead of allocating per dispatch.
  virtual void pop(double now_s, const WorkloadMask& mask, std::vector<Request>& out) = 0;

  // Continuous batching: at a token boundary, pops up to `max_n` waiting
  // requests of `workload` into a running decode batch's free lanes,
  // longest-waiting first (FIFO: the workload's sub-queue in arrival order;
  // dynamic batching: across the workload's seq buckets, oldest head first —
  // a joiner need not share the batch's seq bucket, decode steps cost by the
  // widest lane's context).  Appends to `out` without clearing it and returns
  // the joiner count.
  virtual std::size_t pop_joiners(std::uint32_t workload, std::size_t max_n, double now_s,
                                  std::vector<Request>& out) = 0;

  // Convenience overload returning the batch by value (tests, one-shot
  // callers; the hot loop uses the buffer-filling virtual above).
  [[nodiscard]] std::vector<Request> pop(double now_s, const WorkloadMask& mask = {}) {
    std::vector<Request> out;
    pop(now_s, mask, out);
    return out;
  }
};

// `priorities[w]` is workload w's strict tier (lower pops first); workloads
// beyond the vector — and every workload when it is empty — are tier 0.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerKind kind, const BatchPolicy& policy,
    std::vector<std::uint32_t> priorities = {});

}  // namespace lumos::serve
