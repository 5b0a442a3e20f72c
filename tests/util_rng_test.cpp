// Tests for util/rng: determinism, range correctness, distribution sanity.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace axdse::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Xoshiro, SameSeedSameSequence) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, JumpChangesSequence) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  b.Jump();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256StarStar>);
  SUCCEED();
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(Rng, UniformIntThrowsOnInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformInt(2, 1), std::invalid_argument);
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformBelow(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformBelowThrowsOnZero) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformBelow(0), std::invalid_argument);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRealMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformReal();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRealRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformReal(-2.5, 4.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 4.5);
  }
}

TEST(Rng, UniformRealThrowsOnBadBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformReal(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.UniformReal(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, GaussianThrowsOnNegativeStdDev) {
  Rng rng(1);
  EXPECT_THROW(rng.Gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyNearP) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(29);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  const std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // probability of identity ~ 1/100!
}

TEST(Rng, PickIndexThrowsOnEmpty) {
  Rng rng(1);
  EXPECT_THROW(rng.PickIndex(0), std::invalid_argument);
}

TEST(Rng, ForkDivergesFromParentButDeterministic) {
  Rng parent1(31);
  Rng parent2(31);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  // Forks of identical parents are identical.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(child1.NextBits(), child2.NextBits());
}

TEST(Rng, SameSeedFullyReproducible) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
    EXPECT_DOUBLE_EQ(a.UniformReal(), b.UniformReal());
    EXPECT_DOUBLE_EQ(a.Gaussian(), b.Gaussian());
  }
}

}  // namespace
}  // namespace axdse::util
