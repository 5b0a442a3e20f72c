// Tests for the adder descriptors: closed-form error identities per family,
// signed semantics, exhaustive property sweeps across the whole family set.

#include <gtest/gtest.h>

#include <vector>

#include "axc/characterization.hpp"
#include "axc/execution_plan.hpp"
#include "util/rng.hpp"

namespace axdse::axc {
namespace {

TEST(ExactAdder, IsExactEverywhere8Bit) {
  const AddOpDescriptor adder = MakeExactAdder(8);
  for (std::uint64_t a = 0; a < 256; a += 7)
    for (std::uint64_t b = 0; b < 256; b += 5)
      EXPECT_EQ(DispatchAdd(adder, a, b), a + b);
}

TEST(ExactAdder, WorksBeyondNominalWidth) {
  const AddOpDescriptor adder = MakeExactAdder(8);
  EXPECT_EQ(DispatchAdd(adder, 1'000'000, 2'000'000), 3'000'000u);
}

TEST(ExactAdder, RejectsInvalidWidth) {
  EXPECT_THROW(MakeExactAdder(0), std::invalid_argument);
  EXPECT_THROW(MakeExactAdder(65), std::invalid_argument);
}

TEST(LowerOrAdder, ErrorIsAndOfLowBits) {
  // exact - approx == (a & b) & mask(k), for every operand pair.
  const AddOpDescriptor adder = MakeLowerOrAdder(8, 3);
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const std::uint64_t approx = DispatchAdd(adder, a, b);
      const std::uint64_t expected_err = (a & b) & 0x7;
      EXPECT_EQ((a + b) - approx, expected_err) << "a=" << a << " b=" << b;
    }
  }
}

TEST(LowerOrAdder, NeverOverestimates) {
  const AddOpDescriptor adder = MakeLowerOrAdder(8, 5);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t a = rng.UniformBelow(256);
    const std::uint64_t b = rng.UniformBelow(256);
    EXPECT_LE(DispatchAdd(adder, a, b), a + b);
  }
}

TEST(LowerOrAdder, ExactWhenOperandsShareNoLowBits) {
  const AddOpDescriptor adder = MakeLowerOrAdder(8, 4);
  EXPECT_EQ(DispatchAdd(adder, 0b1010, 0b0101), 0b1010u + 0b0101u);
}

TEST(LowerOrAdder, RejectsInvalidApproxBits) {
  EXPECT_THROW(MakeLowerOrAdder(8, 0), std::invalid_argument);
  EXPECT_THROW(MakeLowerOrAdder(8, 9), std::invalid_argument);
}

TEST(TruncatedZeroAdder, LowBitsAreZero) {
  const AddOpDescriptor adder = MakeTruncatedZeroAdder(8, 4);
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng.UniformBelow(256);
    const std::uint64_t b = rng.UniformBelow(256);
    EXPECT_EQ(DispatchAdd(adder, a, b) & 0xF, 0u);
  }
}

TEST(TruncatedZeroAdder, ErrorIsSumOfLowParts) {
  const AddOpDescriptor adder = MakeTruncatedZeroAdder(8, 4);
  for (std::uint64_t a = 0; a < 256; a += 3) {
    for (std::uint64_t b = 0; b < 256; b += 7) {
      const std::uint64_t expected_err = (a & 0xF) + (b & 0xF);
      EXPECT_EQ((a + b) - DispatchAdd(adder, a, b), expected_err);
    }
  }
}

TEST(TruncatedPassAAdder, LowBitsComeFromA) {
  const AddOpDescriptor adder = MakeTruncatedPassAAdder(8, 5);
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng.UniformBelow(256);
    const std::uint64_t b = rng.UniformBelow(256);
    EXPECT_EQ(DispatchAdd(adder, a, b) & 0x1F, a & 0x1F);
  }
}

TEST(TruncatedPassAAdder, ErrorIsBLowBits) {
  const AddOpDescriptor adder = MakeTruncatedPassAAdder(8, 5);
  for (std::uint64_t a = 0; a < 256; a += 11) {
    for (std::uint64_t b = 0; b < 256; b += 3) {
      EXPECT_EQ((a + b) - DispatchAdd(adder, a, b), b & 0x1F);
    }
  }
}

TEST(SegmentedCarryAdder, ExactWhenNoCarryCrossesSegments) {
  const AddOpDescriptor adder = MakeSegmentedCarryAdder(8, 4);
  // 0x21 + 0x13: no carries at all -> exact.
  EXPECT_EQ(DispatchAdd(adder, 0x21, 0x13), 0x34u);
}

TEST(SegmentedCarryAdder, PropagatesOneSegmentOfCarry) {
  const AddOpDescriptor adder = MakeSegmentedCarryAdder(8, 4);
  // Low segments 0xF + 0x1 carry into the next segment: predicted correctly
  // because the prediction uses the immediately preceding segment.
  EXPECT_EQ(DispatchAdd(adder, 0x0F, 0x01), 0x10u);
}

TEST(SegmentedCarryAdder, DropsCarryChainsAcrossTwoSegments) {
  const AddOpDescriptor adder = MakeSegmentedCarryAdder(8, 2);
  // 7 + 9 = 16: segment 0 (3+1) generates a carry into segment 1; segment 1
  // (1+2+carry) then saturates and must carry into segment 2 — but the
  // speculative prediction for segment 2 only looks at segment 1's operand
  // bits (1+2 = 3, no carry), so the chain is cut and the result drops the
  // 16s bit entirely.
  EXPECT_EQ(DispatchAdd(adder, 0b0111, 0b1001), 0u);
}

TEST(SegmentedCarryAdder, ErrorIsNonZeroSomewhere) {
  const AddOpDescriptor adder = MakeSegmentedCarryAdder(8, 2);
  const Characterization c = CharacterizeAdder(adder, 8, 1 << 20);
  EXPECT_GT(c.error_rate, 0.0);
  EXPECT_GT(c.mred, 0.0);
  EXPECT_LT(c.mred, 0.25);  // mild approximation, far from truncation levels
}

TEST(AdderSigned, SameSignUsesApproximateMagnitudePath) {
  const AddOpDescriptor adder = MakeTruncatedZeroAdder(8, 4);
  // 25 + 23: high nibbles 1+1 = 2, low nibbles dropped entirely -> 32.
  EXPECT_EQ(DispatchAddSigned(adder, 25, 23), 32);
  EXPECT_EQ(DispatchAddSigned(adder, -25, -23), -32);
  // 9 + 7 = 16 lives entirely in the dropped low nibble -> 0.
  EXPECT_EQ(DispatchAddSigned(adder, 9, 7), 0);
  EXPECT_EQ(DispatchAddSigned(adder, -9, -7), 0);
}

TEST(AdderSigned, MixedSignsFallBackToExact) {
  const AddOpDescriptor adder = MakeTruncatedZeroAdder(8, 6);
  EXPECT_EQ(DispatchAddSigned(adder, 100, -37), 63);
  EXPECT_EQ(DispatchAddSigned(adder, -100, 37), -63);
}

TEST(AdderSigned, ExactAdderMatchesIntegerAddition) {
  const AddOpDescriptor adder = MakeExactAdder(16);
  util::Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t a = rng.UniformInt(-30000, 30000);
    const std::int64_t b = rng.UniformInt(-30000, 30000);
    EXPECT_EQ(DispatchAddSigned(adder, a, b), a + b);
  }
}

TEST(AdderFactories, ProduceWorkingInstances) {
  EXPECT_EQ(DispatchAdd(MakeExactAdder(8), 2, 3), 5u);
  EXPECT_EQ(MakeLowerOrAdder(8, 2).bits, 8);
  EXPECT_EQ(MakeTruncatedZeroAdder(16, 4).bits, 16);
  EXPECT_EQ(MakeTruncatedPassAAdder(8, 3).bits, 8);
  EXPECT_EQ(MakeSegmentedCarryAdder(8, 4).bits, 8);
}

TEST(AdderDescribe, EncodesFamilyAndParameter) {
  EXPECT_EQ(Describe(MakeLowerOrAdder(8, 5)), "LOA(k=5)");
  EXPECT_EQ(Describe(MakeTruncatedZeroAdder(8, 6)), "TruncZero(k=6)");
  EXPECT_EQ(Describe(MakeTruncatedPassAAdder(8, 7)), "TruncPassA(k=7)");
  EXPECT_EQ(Describe(MakeSegmentedCarryAdder(8, 2)), "SegCarry(s=2)");
  EXPECT_EQ(Describe(MakeExactAdder(8)), "Exact");
}

// ---------------------------------------------------------------------------
// Property sweep across all families (parameterized).
// ---------------------------------------------------------------------------

struct AdderCase {
  std::string label;
  AddOpDescriptor adder;
  std::uint64_t worst_case_bound;  // max absolute error on 8-bit operands
  bool commutative = true;         // TruncPassA is inherently asymmetric
};

class AdderPropertyTest : public ::testing::TestWithParam<AdderCase> {};

TEST_P(AdderPropertyTest, CommutativityMatchesFamilyContract) {
  const AddOpDescriptor& adder = GetParam().adder;
  if (GetParam().commutative) {
    for (std::uint64_t a = 0; a < 256; a += 3)
      for (std::uint64_t b = a; b < 256; b += 5)
        EXPECT_EQ(DispatchAdd(adder, a, b), DispatchAdd(adder, b, a));
  } else {
    // Asymmetric family: at least one operand pair must differ under swap.
    bool any_asymmetry = false;
    for (std::uint64_t a = 0; a < 256 && !any_asymmetry; ++a)
      for (std::uint64_t b = 0; b < 256; ++b)
        if (DispatchAdd(adder, a, b) != DispatchAdd(adder, b, a)) {
          any_asymmetry = true;
          break;
        }
    EXPECT_TRUE(any_asymmetry);
  }
}

TEST_P(AdderPropertyTest, ZeroPlusZeroIsZero) {
  EXPECT_EQ(DispatchAdd(GetParam().adder, 0, 0), 0u);
}

TEST_P(AdderPropertyTest, ErrorWithinFamilyBound) {
  const AddOpDescriptor& adder = GetParam().adder;
  const std::uint64_t bound = GetParam().worst_case_bound;
  for (std::uint64_t a = 0; a < 256; a += 2) {
    for (std::uint64_t b = 0; b < 256; b += 3) {
      const std::uint64_t exact = a + b;
      const std::uint64_t approx = DispatchAdd(adder, a, b);
      const std::uint64_t err =
          approx > exact ? approx - exact : exact - approx;
      EXPECT_LE(err, bound) << "a=" << a << " b=" << b;
    }
  }
}

TEST_P(AdderPropertyTest, HighBitsAlwaysExactAboveApproximation) {
  // Adding numbers that only have high bits set must be exact for every
  // family with approximation confined below bit 8.
  const AddOpDescriptor& adder = GetParam().adder;
  for (std::uint64_t a = 0; a < 4; ++a)
    for (std::uint64_t b = 0; b < 4; ++b)
      EXPECT_EQ(DispatchAdd(adder, a << 8, b << 8), (a + b) << 8);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, AdderPropertyTest,
    ::testing::Values(
        AdderCase{"exact", MakeExactAdder(8), 0},
        AdderCase{"loa1", MakeLowerOrAdder(8, 1), 1},
        AdderCase{"loa3", MakeLowerOrAdder(8, 3), 7},
        AdderCase{"loa5", MakeLowerOrAdder(8, 5), 31},
        AdderCase{"loa7", MakeLowerOrAdder(8, 7), 127},
        AdderCase{"trunczero4", MakeTruncatedZeroAdder(8, 4), 30},
        AdderCase{"trunczero6", MakeTruncatedZeroAdder(8, 6), 126},
        AdderCase{"truncpassa5", MakeTruncatedPassAAdder(8, 5), 31, false},
        AdderCase{"truncpassa7", MakeTruncatedPassAAdder(8, 7), 127, false},
        // SegCarry(s): a lost carry at boundary bit b costs 2^b; with 8-bit
        // operands the sum spans 9 bits, so boundaries up to bit 8 count.
        AdderCase{"segcarry2", MakeSegmentedCarryAdder(8, 2),
                  4 + 16 + 64 + 256},
        AdderCase{"segcarry4", MakeSegmentedCarryAdder(8, 4), 16 + 256}),
    [](const ::testing::TestParamInfo<AdderCase>& param_info) {
      return param_info.param.label;
    });

// SegCarry commutes because both carry prediction and segment sums are
// symmetric in (a, b); verified by the sweep above.

}  // namespace
}  // namespace axdse::axc
