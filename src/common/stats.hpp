// Small numeric helpers: the arithmetic and geometric means used when
// summarising speedup/efficiency factors, and a streaming percentile sketch.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lumos {

// Arithmetic mean of `values`; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

// Geometric mean of strictly positive `values`; 0 for an empty span.
// Used to aggregate speedup factors across workloads, as is conventional.
[[nodiscard]] double geometric_mean(std::span<const double> values);

// Streaming percentile sketch with bounded relative error: values land in
// geometrically spaced buckets (HdrHistogram-style), so `percentile(q)`
// returns a representative within `relative_error` of the true nearest-rank
// sample, in O(1) memory per decade of dynamic range and O(buckets) query
// time — no per-sample storage, no sort.  Deterministic: the estimate is a
// pure function of the multiset of added values (insertion order and thread
// count never matter), so sketched metrics stay bit-reproducible.
//
// Layout: bucket 0 holds values in (0, min_value_hint] (and everything
// non-positive); bucket i >= 1 holds (min_value_hint * b^(i-1),
// min_value_hint * b^i] with b = (1 + relative_error)^2.  A bucket's
// representative is its geometric midpoint, so |representative - v| <=
// relative_error * v for every v in it.  Estimates clamp to the observed
// [min, max], which keeps extreme quantiles exact at the ends.
class HdrHistogram {
 public:
  // `relative_error` in (0, 1); `min_value_hint` (> 0) is the smallest value
  // resolved individually — smaller values collapse into bucket 0 (still
  // counted, bounded only by min_value_hint).  The default hint resolves
  // nanosecond-scale latencies in seconds.
  explicit HdrHistogram(double relative_error = 0.01, double min_value_hint = 1e-9);

  void add(double value) noexcept;
  // Folds `other` (same relative_error and min_value_hint, or throws
  // `InvalidArgument`) into this sketch.
  void merge(const HdrHistogram& other);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept;  // exact (running sum)
  [[nodiscard]] double relative_error() const noexcept { return relative_error_; }
  // Nearest-rank percentile estimate (q in [0, 1]); 0 when empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  [[nodiscard]] std::size_t bucket_of(double value) const noexcept;

  double relative_error_;
  double min_hint_;
  double inv_log_base_;  // 1 / ln(b), cached for bucket_of
  double log_base_;      // ln(b)
  std::vector<std::size_t> buckets_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lumos
