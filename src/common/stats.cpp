#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace lumos {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geometric_mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    LUMOS_EXPECTS_MSG(v > 0.0, "geometric mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

HdrHistogram::HdrHistogram(double relative_error, double min_value_hint)
    : relative_error_(relative_error), min_hint_(min_value_hint) {
  LUMOS_EXPECTS_MSG(relative_error > 0.0 && relative_error < 1.0,
                    "HdrHistogram relative_error must be in (0, 1)");
  LUMOS_EXPECTS_MSG(min_value_hint > 0.0 && std::isfinite(min_value_hint),
                    "HdrHistogram min_value_hint must be positive and finite");
  // Bucket width b = (1+e)^2: a bucket's geometric midpoint is then within a
  // factor (1+e) of both edges, i.e. within relative error e of every value
  // in the bucket.
  log_base_ = 2.0 * std::log1p(relative_error);
  inv_log_base_ = 1.0 / log_base_;
}

std::size_t HdrHistogram::bucket_of(double value) const noexcept {
  if (!(value > min_hint_)) return 0;
  // (min_hint * b^(i-1), min_hint * b^i] -> i; ceil via floor+1 off the open
  // lower edge.
  const double x = std::log(value / min_hint_) * inv_log_base_;
  return static_cast<std::size_t>(std::ceil(x - 1e-12));
}

void HdrHistogram::add(double value) noexcept {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const std::size_t i = bucket_of(value);
  if (buckets_.size() <= i) buckets_.resize(i + 1, 0);
  ++buckets_[i];
}

void HdrHistogram::merge(const HdrHistogram& other) {
  LUMOS_EXPECTS_MSG(relative_error_ == other.relative_error_ && min_hint_ == other.min_hint_,
                    "HdrHistogram::merge requires identical bucket layouts");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (buckets_.size() < other.buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

double HdrHistogram::mean() const noexcept {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double HdrHistogram::percentile(double q) const {
  LUMOS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // Same nearest-rank convention as serve::percentile on the raw samples.
  const double rank_d = std::ceil(q * static_cast<double>(count_));
  const std::size_t rank = rank_d <= 1.0 ? 1 : static_cast<std::size_t>(rank_d);
  std::size_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // Geometric midpoint representative; bucket 0 is bounded by the hint.
      const double rep =
          i == 0 ? min_hint_
                 : min_hint_ * std::exp((static_cast<double>(i) - 0.5) * log_base_);
      return std::clamp(rep, min_, max_);
    }
  }
  return max_;
}

}  // namespace lumos
