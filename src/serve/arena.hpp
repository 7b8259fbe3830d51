// Free-list arena for the event loop's request batches.
//
// The hot loop moves every request through a `std::vector<Request>` batch:
// the scheduler pop fills one, the slot owns it in flight, and the completion
// (or fault-abort) path drains it.  Without reuse that is one heap
// allocation and one free per dispatched batch — per *request* under FIFO —
// and the allocator becomes a measurable slice of the 1M-request headline.
// `RequestArena` breaks the cycle: retired batch buffers park on a free list
// with their capacity intact, and the next dispatch reuses one instead of
// allocating.
//
// Ownership is strict hand-over: `acquire()` moves a buffer out of the arena
// and `release()` moves it back (cleared), so a live batch is never aliased
// by the arena or by a later `acquire()` — the invariant
// tests/test_shard.cpp stresses under requeue/retry churn.  The arena is
// single-threaded by design: each simulation (each cell of a sharded run)
// owns its own.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/trace.hpp"

namespace lumos::serve {

class RequestArena {
 public:
  // An empty batch buffer, reusing pooled capacity when available.
  [[nodiscard]] std::vector<Request> acquire() {
    ++acquires_;
    if (free_.empty()) {
      ++allocations_;
      ++outstanding_;
      return {};
    }
    std::vector<Request> out = std::move(free_.back());
    free_.pop_back();
    ++outstanding_;
    return out;
  }

  // Returns a buffer to the pool.  The buffer is cleared (requests are
  // value types; nothing outlives the batch) but keeps its capacity.
  void release(std::vector<Request>&& batch) {
    LUMOS_EXPECTS_MSG(outstanding_ > 0, "RequestArena.release without a live acquire");
    --outstanding_;
    batch.clear();
    free_.push_back(std::move(batch));
  }

  // Buffers currently handed out (live batches).
  [[nodiscard]] std::size_t outstanding() const noexcept { return outstanding_; }
  // Total acquires vs acquires that had to allocate: reuse effectiveness.
  [[nodiscard]] std::size_t acquires() const noexcept { return acquires_; }
  [[nodiscard]] std::size_t allocations() const noexcept { return allocations_; }

 private:
  std::vector<std::vector<Request>> free_;
  std::size_t outstanding_ = 0;
  std::size_t acquires_ = 0;
  std::size_t allocations_ = 0;
};

}  // namespace lumos::serve
