#pragma once
// Deterministic, seedable random-number generation for every stochastic piece
// of the project (workload inputs, RL exploration, baseline heuristics).
//
// Rationale: std::mt19937 is fine but its seeding is easy to get wrong and its
// state is heavyweight to copy into recorded experiment metadata. We use
// SplitMix64 for seed expansion and xoshiro256** as the workhorse generator —
// both are tiny, fast, and have well-understood statistical quality.

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace axdse::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Passes BigCrush when used directly; here it only seeds xoshiro.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 pseudo-random bits.
  constexpr std::uint64_t Next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: general-purpose 64-bit PRNG (Blackman & Vigna).
/// Satisfies std::uniform_random_bit_generator so it can drive <random>.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state via SplitMix64 expansion of `seed`.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Jump function: advances the state by 2^128 steps; used to derive
  /// non-overlapping parallel streams from one seed.
  void Jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Convenience façade bundling the generator with the distributions the
/// project actually needs. All methods are deterministic given the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform integer in [lo, hi] (inclusive). Throws std::invalid_argument
  /// if lo > hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform value in [0, n). Throws if n == 0.
  std::uint64_t UniformBelow(std::uint64_t n);

  /// Uniform real in [0, 1).
  double UniformReal();

  /// Uniform real in [lo, hi). Throws if !(lo < hi).
  double UniformReal(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double Gaussian();

  /// Normal with the given mean / standard deviation (stddev >= 0).
  double Gaussian(double mean, double stddev);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(UniformBelow(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element index; throws on empty container.
  std::size_t PickIndex(std::size_t size);

  /// Derives an independent child RNG (stable: depends only on parent seed
  /// and call order).
  Rng Fork();

  /// Raw 64 random bits (exposes the generator for <random> interop).
  std::uint64_t NextBits();

 private:
  Xoshiro256StarStar gen_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace axdse::util
