// The benchmark's own arithmetic: spans and their self times, the ledger that
// checks spans account for a traced wall, order statistics, simulated event
// counts, and the queue-stability verdict.  Every formula takes plain values,
// so fleetbench/tests/test_measure.cpp pins each one on fixed inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/metrics.hpp"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One closed interval of a traced run, in seconds since the recorder's
// origin.  `parent` indexes the enclosing span (-1: top level).
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double duration_s() const noexcept { return end_s - start_s; }
};

// Length of the union of `intervals` ([start, end) pairs, any order, may
// overlap — children of one span can run on several threads at once).
[[nodiscard]] inline double covered_s(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

// Self time of every span: its duration minus the part of that interval its
// child spans cover.
[[nodiscard]] inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_s() - covered_s(std::move(children[i]));
  }
  return self;
}

// Ledger of a wall: the top-level spans are sequential layers, so their
// durations (each one its self time plus what its children cover) must add
// up to the wall of the call they decompose.  Returns 1 - sum / wall: the
// share of the wall no span accounts for (negative when the spans take
// longer, e.g. when tracing costs time).
[[nodiscard]] inline double unattributed_fraction(const std::vector<Span>& spans, double wall_s) {
  double attributed = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) attributed += s.duration_s();
  }
  return wall_s > 0.0 ? 1.0 - attributed / wall_s : 0.0;
}

// Sum of the durations of spans named `name` (for a layer that runs once
// per cell, the busy time summed over cells).
[[nodiscard]] inline double total_s(const std::vector<Span>& spans, const std::string& name) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) sum += s.duration_s();
  }
  return sum;
}

// Longest duration among spans named `name` (0 when there is none).
[[nodiscard]] inline double max_s(const std::vector<Span>& spans, const std::string& name) {
  double longest = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) longest = std::max(longest, s.duration_s());
  }
  return longest;
}

// Records spans from any thread; `open` returns the id `close` takes.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  [[nodiscard]] int open(std::string name, int parent = -1) {
    const double now = since_origin();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), parent, now, now});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    const double now = since_origin();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_s = now;
  }

  [[nodiscard]] double since_origin() const { return seconds_since(origin_); }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int parent = -1)
      : recorder_(recorder), id_(recorder.open(std::move(name), parent)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

// Quantile `q` in [0, 1] with linear interpolation between closest ranks
// (the "inclusive" method; q = 0.5 is the median).  0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Logical requests a run issued: each reaches exactly one terminal state.
[[nodiscard]] inline std::size_t issued_requests(const lumos::serve::FleetMetrics& m) {
  return m.completed + m.shed_requests + m.timed_out_requests;
}

// Events the simulator processed, counted from FleetMetrics: arrivals (fresh
// issues plus retried attempts), batch dispatches, decode token steps, and
// slot failure / recovery transitions.
[[nodiscard]] inline std::size_t simulated_events(const lumos::serve::FleetMetrics& m) {
  return issued_requests(m) + m.retried_attempts + m.dispatches + m.decode_steps +
         m.slot_failures + m.slot_recoveries;
}

// Queue-stability verdict over a windowed queue-depth series: a least-squares
// line through the second half of the windows.  `rise` is the fitted growth
// across that half; the queue counts as flat when the rise stays within
// `rel_band` of the half's mean depth plus an absolute `floor` (a batch or
// so, so a near-empty queue's jitter never reads as divergence).
struct QueueTrend {
  double mean_depth = 0.0;
  double rise = 0.0;
  double limit = 0.0;
  bool flat = true;
};

[[nodiscard]] inline QueueTrend queue_trend(const std::vector<double>& depth, double rel_band,
                                            double floor) {
  QueueTrend t;
  const std::size_t begin = depth.size() / 2;
  const std::size_t n = depth.size() - begin;
  if (n < 2) return t;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = begin; i < depth.size(); ++i) {
    const double x = static_cast<double>(i - begin);
    sx += x;
    sy += depth[i];
    sxx += x * x;
    sxy += x * depth[i];
  }
  const double nn = static_cast<double>(n);
  const double slope = (nn * sxy - sx * sy) / (nn * sxx - sx * sx);
  t.mean_depth = sy / nn;
  t.rise = slope * (nn - 1.0);
  t.limit = rel_band * t.mean_depth + floor;
  t.flat = t.rise <= t.limit;
  return t;
}

}  // namespace fleetbench
