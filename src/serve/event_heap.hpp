// The pending-event container of the serving event loop.
//
// `EventHeap<T, Less>` is the one binary-heap idiom behind every pending-event
// set in the simulator: the completion heap and retry heap (simulator.cpp)
// and the closed-loop pending-issue heap (traffic.cpp) all push/pop through
// it instead of hand-rolling `std::push_heap`/`std::pop_heap`/`std::
// priority_queue` separately.  `Less` is the usual priority-queue comparator:
// `Less{}(a, b)` is true when `a` is scheduled *later* than `b`, so `top()`
// is always the earliest event under the comparator's (time, seq) total
// order.  Because every comparator used here is a strict total order (unique
// sequence tie-breaks), the pop sequence is a property of the comparator
// alone — any container honouring it replays the identical event sequence.
//
// The container requires `T::time_s` (the event instant, finite — push
// `serve::kNever` nowhere) and a `Less` that totally orders events.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "serve/event.hpp"

namespace lumos::serve {

// Binary min-heap over `Less` (priority-queue comparator: true = later).
template <typename T, typename Less>
class EventHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  // Earliest pending event (call only when non-empty).
  [[nodiscard]] const T& top() const noexcept { return items_.front(); }

  // Event instant of the earliest pending event; kNever when empty — the
  // shape every event source's next-event query takes.
  [[nodiscard]] double next_time_s() const noexcept {
    return items_.empty() ? kNever : items_.front().time_s;
  }

  void push(T item) {
    items_.push_back(std::move(item));
    std::push_heap(items_.begin(), items_.end(), Less{});
  }

  // Removes and returns the earliest pending event (call only when
  // non-empty).
  T pop() {
    std::pop_heap(items_.begin(), items_.end(), Less{});
    T out = std::move(items_.back());
    items_.pop_back();
    return out;
  }

  void reserve(std::size_t capacity) { items_.reserve(capacity); }

 private:
  std::vector<T> items_;
};

}  // namespace lumos::serve
