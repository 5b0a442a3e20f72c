// Tests for the extended operator families: ACA and AMA1 adders, Kulkarni
// and ROBA multipliers — closed-form identities, error structure, and
// characterization sanity.

#include <gtest/gtest.h>

#include <cmath>

#include "axc/characterization.hpp"
#include "axc/execution_plan.hpp"
#include "util/rng.hpp"

namespace axdse::axc {
namespace {

// ---------------------------------------------------------------------------
// AlmostCorrectAdder
// ---------------------------------------------------------------------------

TEST(AlmostCorrect, ExactWhenCarryChainsFitWindow) {
  const AddOpDescriptor adder = MakeAlmostCorrectAdder(8, 4);
  // 0x0F + 0x01: the longest carry chain is 4 = window -> exact.
  EXPECT_EQ(DispatchAdd(adder, 0x0F, 0x01), 0x10u);
  // No carries at all.
  EXPECT_EQ(DispatchAdd(adder, 0x50, 0x0A), 0x5Au);
}

TEST(AlmostCorrect, CutsChainsLongerThanWindow) {
  const AddOpDescriptor adder = MakeAlmostCorrectAdder(8, 1);
  // 0b0101 + 0b0011 = 8 needs a 3-long chain; window 1 cuts it.
  EXPECT_NE(DispatchAdd(adder, 0b0101, 0b0011), 8u);
}

TEST(AlmostCorrect, LargeWindowIsExactEverywhere8Bit) {
  const AddOpDescriptor adder = MakeAlmostCorrectAdder(8, 9);
  for (std::uint64_t a = 0; a < 256; ++a)
    for (std::uint64_t b = 0; b < 256; ++b)
      EXPECT_EQ(DispatchAdd(adder, a, b), a + b) << "a=" << a << " b=" << b;
}

TEST(AlmostCorrect, ErrorRateDropsWithWindow) {
  const Characterization w1 =
      CharacterizeAdder(MakeAlmostCorrectAdder(8, 1), 8, 1 << 16);
  const Characterization w2 =
      CharacterizeAdder(MakeAlmostCorrectAdder(8, 2), 8, 1 << 16);
  const Characterization w4 =
      CharacterizeAdder(MakeAlmostCorrectAdder(8, 4), 8, 1 << 16);
  EXPECT_GT(w1.error_rate, w2.error_rate);
  EXPECT_GT(w2.error_rate, w4.error_rate);
  EXPECT_GT(w4.error_rate, 0.0);
}

TEST(AlmostCorrect, Commutative) {
  const AddOpDescriptor adder = MakeAlmostCorrectAdder(8, 2);
  for (std::uint64_t a = 0; a < 256; a += 3)
    for (std::uint64_t b = a; b < 256; b += 5)
      EXPECT_EQ(DispatchAdd(adder, a, b), DispatchAdd(adder, b, a));
}

TEST(AlmostCorrect, WorksBeyondNominalWidth) {
  const AddOpDescriptor adder = MakeAlmostCorrectAdder(8, 8);
  // Chains within 8 bits are resolved even for wide operands.
  EXPECT_EQ(DispatchAdd(adder, 1'000'000, 1'000'000), 2'000'000u);
}

TEST(AlmostCorrect, RejectsInvalidWindow) {
  EXPECT_THROW(MakeAlmostCorrectAdder(8, 0), std::invalid_argument);
  EXPECT_THROW(MakeAlmostCorrectAdder(8, 64), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// AmaAdder
// ---------------------------------------------------------------------------

TEST(Ama, SingleBitCellTruthTable) {
  // One approximate position: sum bit = NOT(majority(a0,b0,0)) = NOT(a0&b0).
  const AddOpDescriptor adder = MakeAmaAdder(8, 1);
  // (0,0): cout 0, sum 1 -> result low bit 1 (exact would be 0). High exact.
  EXPECT_EQ(DispatchAdd(adder, 0, 0), 1u);
  // (1,0): cout 0, sum 1 -> exact.
  EXPECT_EQ(DispatchAdd(adder, 1, 0), 1u);
  EXPECT_EQ(DispatchAdd(adder, 0, 1), 1u);
  // (1,1): cout 1, sum 0 -> 2, exact.
  EXPECT_EQ(DispatchAdd(adder, 1, 1), 2u);
}

TEST(Ama, CarriesStayExactThroughApproxRegion) {
  // AMA1's carry is the exact majority, so the high part never sees a wrong
  // carry: (a+b) and Add(a,b) agree above the approx region.
  const AddOpDescriptor adder = MakeAmaAdder(8, 4);
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      EXPECT_EQ(DispatchAdd(adder, a, b) >> 4, (a + b) >> 4);
    }
  }
}

TEST(Ama, ErrorBoundedByApproxRegion) {
  const AddOpDescriptor adder = MakeAmaAdder(8, 4);
  for (std::uint64_t a = 0; a < 256; a += 3) {
    for (std::uint64_t b = 0; b < 256; b += 5) {
      const std::int64_t err = static_cast<std::int64_t>(DispatchAdd(adder, a, b)) -
                               static_cast<std::int64_t>(a + b);
      EXPECT_LT(std::abs(err), 16);  // wrong bits confined below bit 4
    }
  }
}

TEST(Ama, HasErrorsButModestMred) {
  const Characterization c = CharacterizeAdder(MakeAmaAdder(8, 4), 8, 1 << 16);
  EXPECT_GT(c.error_rate, 0.0);
  EXPECT_LT(c.mred, 0.08);
}

TEST(Ama, RejectsInvalidBits) {
  EXPECT_THROW(MakeAmaAdder(8, 0), std::invalid_argument);
  EXPECT_THROW(MakeAmaAdder(8, 9), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// KulkarniMultiplier
// ---------------------------------------------------------------------------

TEST(Kulkarni, BaseBlockOnlyErrorIsThreeTimesThree) {
  const MulOpDescriptor mul = MakeKulkarniMultiplier(8);
  for (std::uint64_t a = 0; a < 4; ++a) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      if (a == 3 && b == 3)
        EXPECT_EQ(DispatchMul(mul, a, b), 7u);
      else
        EXPECT_EQ(DispatchMul(mul, a, b), a * b);
    }
  }
}

TEST(Kulkarni, NeverOverestimatesAndBounded) {
  const MulOpDescriptor mul = MakeKulkarniMultiplier(8);
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const std::uint64_t approx = DispatchMul(mul, a, b);
      EXPECT_LE(approx, a * b);
      // Each 2x2 block loses at most 2 per occurrence of (3,3); relative
      // error is classically bounded by ~22% (worst at a=b=3 itself).
      if (a != 0 && b != 0) {
        const double rel = static_cast<double>(a * b - approx) /
                           static_cast<double>(a * b);
        EXPECT_LE(rel, 0.2223) << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Kulkarni, KnownComposedValue) {
  // 15 * 15 = 225; Kulkarni 4-bit: al=ah=bl=bh=3 -> ll=lh=hl=hh=7:
  // (7<<4) + (7+7)<<2 + 7 = 112 + 56 + 7 = 175 (documented example).
  const MulOpDescriptor mul = MakeKulkarniMultiplier(8);
  EXPECT_EQ(DispatchMul(mul, 15, 15), 175u);
}

TEST(Kulkarni, MredInClassicRange) {
  const Characterization c =
      CharacterizeMultiplier(MakeKulkarniMultiplier(8), 8, 1 << 16);
  // Literature reports ~3.3% mean error for uniformly distributed inputs.
  EXPECT_GT(c.mred, 0.01);
  EXPECT_LT(c.mred, 0.06);
}

TEST(Kulkarni, Commutative) {
  const MulOpDescriptor mul = MakeKulkarniMultiplier(8);
  for (std::uint64_t a = 0; a < 256; a += 3)
    for (std::uint64_t b = a; b < 256; b += 7)
      EXPECT_EQ(DispatchMul(mul, a, b), DispatchMul(mul, b, a));
}

TEST(Kulkarni, WideOperandsFallBackToExact) {
  const MulOpDescriptor mul = MakeKulkarniMultiplier(32);
  const std::uint64_t a = 1ULL << 40;
  EXPECT_EQ(DispatchMul(mul, a, 3), a * 3);
}

// ---------------------------------------------------------------------------
// RobaMultiplier
// ---------------------------------------------------------------------------

TEST(Roba, RoundToNearestPowerOfTwo) {
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(0), 0u);
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(1), 1u);
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(2), 2u);
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(3), 4u);  // tie -> up
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(5), 4u);
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(6), 8u);  // tie -> up
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(7), 8u);
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(100), 128u);
  EXPECT_EQ(ops::RoundToNearestPowerOfTwo(95), 64u);
}

TEST(Roba, ExactWhenEitherOperandIsPowerOfTwo) {
  const MulOpDescriptor mul = MakeRobaMultiplier(8);
  for (int p = 0; p < 8; ++p) {
    const std::uint64_t pow2 = 1ULL << p;
    for (std::uint64_t b = 0; b < 256; b += 3) {
      EXPECT_EQ(DispatchMul(mul, pow2, b), pow2 * b);
      EXPECT_EQ(DispatchMul(mul, b, pow2), b * pow2);
    }
  }
}

TEST(Roba, RelativeErrorWithinTheoreticalBound) {
  // Dropped term (a-ra)(b-rb): |a-ra| <= a/3 for nearest-pow2 rounding, so
  // the relative error is bounded by 1/9 (+ small slack for ties).
  const MulOpDescriptor mul = MakeRobaMultiplier(8);
  for (std::uint64_t a = 1; a < 256; ++a) {
    for (std::uint64_t b = 1; b < 256; ++b) {
      const double exact = static_cast<double>(a * b);
      const double approx = static_cast<double>(DispatchMul(mul, a, b));
      EXPECT_LE(std::abs(exact - approx) / exact, 1.0 / 9.0 + 1e-9)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Roba, CanOverestimate) {
  // Unlike LeadingOne, the dropped term can be negative: find a case where
  // the approximation exceeds the exact product.
  const MulOpDescriptor mul = MakeRobaMultiplier(8);
  bool overestimates = false;
  for (std::uint64_t a = 1; a < 256 && !overestimates; ++a)
    for (std::uint64_t b = 1; b < 256; ++b)
      if (DispatchMul(mul, a, b) > a * b) {
        overestimates = true;
        break;
      }
  EXPECT_TRUE(overestimates);
}

TEST(Roba, NearlyUnbiasedOnUniformInputs) {
  const Characterization c =
      CharacterizeMultiplier(MakeRobaMultiplier(8), 8, 1 << 16);
  EXPECT_LT(std::abs(c.mean_error), c.mae);
  EXPECT_LT(c.mred, 0.05);  // ROBA is an accurate approximation
  EXPECT_GT(c.mred, 0.001);
}

TEST(Roba, ZeroAnnihilates) {
  const MulOpDescriptor mul = MakeRobaMultiplier(8);
  EXPECT_EQ(DispatchMul(mul, 0, 200), 0u);
  EXPECT_EQ(DispatchMul(mul, 200, 0), 0u);
}

TEST(Roba, LargeOperandsNoOverflow) {
  const MulOpDescriptor mul = MakeRobaMultiplier(32);
  const std::uint64_t a = 0xFFFFFFFFULL;  // rounds up to 2^32
  const std::uint64_t b = 3;
  // ra*b + rb*a - ra*rb computed in 128 bits; result near exact 3a.
  const std::uint64_t approx = DispatchMul(mul, a, b);
  const double rel = std::abs(static_cast<double>(approx) -
                              static_cast<double>(a * b)) /
                     static_cast<double>(a * b);
  EXPECT_LE(rel, 1.0 / 9.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

TEST(ExtendedFactories, ProduceWorkingInstances) {
  EXPECT_EQ(MakeAlmostCorrectAdder(8, 3).bits, 8);
  EXPECT_EQ(MakeAmaAdder(8, 2).bits, 8);
  EXPECT_EQ(DispatchMul(MakeKulkarniMultiplier(8), 2, 2), 4u);
  EXPECT_EQ(DispatchMul(MakeRobaMultiplier(8), 4, 5), 20u);
}

TEST(ExtendedDescribe, Names) {
  EXPECT_EQ(Describe(MakeAlmostCorrectAdder(8, 4)), "ACA(w=4)");
  EXPECT_EQ(Describe(MakeAmaAdder(8, 3)), "AMA1(k=3)");
  EXPECT_EQ(Describe(MakeKulkarniMultiplier(8)), "Kulkarni2x2");
  EXPECT_EQ(Describe(MakeRobaMultiplier(8)), "ROBA");
}

}  // namespace
}  // namespace axdse::axc
