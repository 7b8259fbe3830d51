#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace lumos {

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : state_(0), inc_((stream << 1u) | 1u) {
  // Standard PCG32 seeding sequence.
  (void)next_u32();
  state_ += seed;
  (void)next_u32();
}

std::uint32_t Rng::next_u32() noexcept {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Rng::next_u64() noexcept {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

std::uint32_t Rng::next_below(std::uint32_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
  auto lo = static_cast<std::uint32_t>(m);
  if (lo < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (lo < threshold) {
      m = static_cast<std::uint64_t>(next_u32()) * bound;
      lo = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * next_double(); }

double Rng::exponential(double mean) noexcept {
  // next_double() < 1, so the log argument stays in (0, 1].
  return -std::log(1.0 - next_double()) * mean;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller with guard against log(0).
  double u1 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

}  // namespace lumos
