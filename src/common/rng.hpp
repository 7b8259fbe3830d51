// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (synthetic weights, graph
// generators, analog noise draws) is seeded explicitly so that experiments
// are exactly reproducible run-to-run.  We use our own small PCG32
// implementation rather than <random> engines so that sequences are stable
// across standard-library implementations.
#pragma once

#include <cstdint>

namespace lumos {

// PCG32 (O'Neill 2014): 64-bit state, 32-bit output, period 2^64.
class Rng {
 public:
  // Seeds the generator; `stream` selects one of 2^63 independent sequences.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  // Uniform 32-bit integer.
  [[nodiscard]] std::uint32_t next_u32() noexcept;

  // Uniform 64-bit integer.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  // Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  [[nodiscard]] std::uint32_t next_below(std::uint32_t bound) noexcept;

  // Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  // Exponential deviate with the given mean (inter-arrival gaps, think times).
  [[nodiscard]] double exponential(double mean) noexcept;

  // Standard normal deviate (Box–Muller; caches the second deviate).
  [[nodiscard]] double normal() noexcept;

  // Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace lumos
