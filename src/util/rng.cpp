#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace axdse::util {

namespace {
constexpr std::uint64_t RotL(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
  // All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Xoshiro256StarStar::result_type Xoshiro256StarStar::operator()() noexcept {
  const std::uint64_t result = RotL(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

void Xoshiro256StarStar::Jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t jump_word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump_word & (1ULL << b)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= s_[i];
      }
      (*this)();
    }
  }
  s_ = acc;
}

Rng::Rng(std::uint64_t seed) : gen_(seed) {}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::UniformInt: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(gen_());
  }
  return lo + static_cast<std::int64_t>(UniformBelow(span));
}

std::uint64_t Rng::UniformBelow(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::UniformBelow: n == 0");
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = gen_();
    if (r >= threshold) return r % n;
  }
}

double Rng::UniformReal() {
  // 53 high-quality bits -> double in [0,1).
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::UniformReal(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("Rng::UniformReal: lo >= hi");
  return lo + (hi - lo) * UniformReal();
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = UniformReal();
  } while (u1 <= 0.0);
  const double u2 = UniformReal();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Gaussian(double mean, double stddev) {
  if (stddev < 0.0) throw std::invalid_argument("Rng::Gaussian: stddev < 0");
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformReal() < p;
}

std::size_t Rng::PickIndex(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::PickIndex: empty range");
  return static_cast<std::size_t>(UniformBelow(size));
}

Rng Rng::Fork() { return Rng(gen_()); }

std::uint64_t Rng::NextBits() { return gen_(); }

}  // namespace axdse::util
