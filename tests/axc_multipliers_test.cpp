// Tests for the multiplier descriptors: per-family identities (truncation
// structure, DRUM exactness on small operands, Mitchell's bounded
// underestimate), signed semantics, and property sweeps across all
// families.

#include <gtest/gtest.h>

#include <cmath>

#include "axc/characterization.hpp"
#include "axc/execution_plan.hpp"
#include "util/rng.hpp"

namespace axdse::axc {
namespace {

TEST(ExactMultiplier, MatchesIntegerMultiply) {
  const MulOpDescriptor mul = MakeExactMultiplier(8);
  for (std::uint64_t a = 0; a < 256; a += 5)
    for (std::uint64_t b = 0; b < 256; b += 7)
      EXPECT_EQ(DispatchMul(mul, a, b), a * b);
}

TEST(ExactMultiplier, LargeOperandsNoOverflowWithin64Bits) {
  const MulOpDescriptor mul = MakeExactMultiplier(32);
  const std::uint64_t a = 0xFFFFFFFFULL;
  EXPECT_EQ(DispatchMul(mul, a, a), a * a);
}

TEST(ExactMultiplier, RejectsInvalidWidth) {
  EXPECT_THROW(MakeExactMultiplier(0), std::invalid_argument);
  EXPECT_THROW(MakeExactMultiplier(33), std::invalid_argument);
}

TEST(PpTruncated, NeverOverestimates) {
  const MulOpDescriptor mul = MakePpTruncatedMultiplier(8, 5);
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng.UniformBelow(256);
    const std::uint64_t b = rng.UniformBelow(256);
    EXPECT_LE(DispatchMul(mul, a, b), a * b);
  }
}

TEST(PpTruncated, ExactWhenProductHasNoLowColumns) {
  // Operands that are multiples of 2^3 have no partial products below
  // column 6 > cut 5, so truncation changes nothing.
  const MulOpDescriptor mul = MakePpTruncatedMultiplier(8, 5);
  EXPECT_EQ(DispatchMul(mul, 8, 16), 128u);
  EXPECT_EQ(DispatchMul(mul, 24, 40), 960u);
}

TEST(PpTruncated, ErrorBoundedByDroppedColumns) {
  // Dropped bits: columns 0..c-1, worst total = sum_{s<c} (#terms)*2^s with
  // #terms at column s of an 8x8 array = s+1.
  const int cut = 6;
  const MulOpDescriptor mul = MakePpTruncatedMultiplier(8, cut);
  std::uint64_t bound = 0;
  for (int s = 0; s < cut; ++s)
    bound += static_cast<std::uint64_t>(s + 1) << s;
  for (std::uint64_t a = 0; a < 256; a += 3) {
    for (std::uint64_t b = 0; b < 256; b += 5) {
      const std::uint64_t err = a * b - DispatchMul(mul, a, b);
      EXPECT_LE(err, bound);
    }
  }
}

TEST(PpTruncated, ZeroTimesAnythingIsZero) {
  const MulOpDescriptor mul = MakePpTruncatedMultiplier(8, 4);
  for (std::uint64_t b = 0; b < 256; ++b) EXPECT_EQ(DispatchMul(mul, 0, b), 0u);
}

TEST(PpTruncated, RejectsInvalidCut) {
  EXPECT_THROW(MakePpTruncatedMultiplier(8, 0), std::invalid_argument);
  EXPECT_THROW(MakePpTruncatedMultiplier(8, 16), std::invalid_argument);
}

TEST(OperandTruncated, EqualsTruncatedExactProduct) {
  const MulOpDescriptor mul = MakeOperandTruncatedMultiplier(8, 3);
  for (std::uint64_t a = 0; a < 256; a += 3) {
    for (std::uint64_t b = 0; b < 256; b += 7) {
      EXPECT_EQ(DispatchMul(mul, a, b), (a & ~0x7ULL) * (b & ~0x7ULL));
    }
  }
}

TEST(OperandTruncated, RejectsInvalidTrunc) {
  EXPECT_THROW(MakeOperandTruncatedMultiplier(8, 0), std::invalid_argument);
  EXPECT_THROW(MakeOperandTruncatedMultiplier(8, 8), std::invalid_argument);
}

TEST(Mitchell, ExactOnPowersOfTwo) {
  const MulOpDescriptor mul = MakeMitchellLogMultiplier(8);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      EXPECT_EQ(DispatchMul(mul, 1ULL << i, 1ULL << j), 1ULL << (i + j));
}

TEST(Mitchell, ZeroShortCircuit) {
  const MulOpDescriptor mul = MakeMitchellLogMultiplier(8);
  EXPECT_EQ(DispatchMul(mul, 0, 123), 0u);
  EXPECT_EQ(DispatchMul(mul, 123, 0), 0u);
}

TEST(Mitchell, UnderestimatesWithBoundedRelativeError) {
  // Mitchell's classic bound: the approximation never exceeds the true
  // product and the relative error is at most ~11.12%.
  const MulOpDescriptor mul = MakeMitchellLogMultiplier(8);
  for (std::uint64_t a = 1; a < 256; ++a) {
    for (std::uint64_t b = 1; b < 256; ++b) {
      const std::uint64_t exact = a * b;
      const std::uint64_t approx = DispatchMul(mul, a, b);
      EXPECT_LE(approx, exact);
      const double rel =
          static_cast<double>(exact - approx) / static_cast<double>(exact);
      EXPECT_LE(rel, 0.1125) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Drum, ExactWhenOperandsFitKeptBits) {
  const MulOpDescriptor mul = MakeDrumMultiplier(8, 4);
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b)
      EXPECT_EQ(DispatchMul(mul, a, b), a * b);
}

TEST(Drum, RelativeErrorBoundedByKeptBits) {
  // Truncating to k bits with forced LSB keeps the relative error of each
  // operand within 2^-(k-1); product error < ~2 * 2^-(k-1) + small.
  const int k = 6;
  const MulOpDescriptor mul = MakeDrumMultiplier(8, k);
  const double bound = 2.2 / static_cast<double>(1 << (k - 1));
  for (std::uint64_t a = 1; a < 256; a += 1) {
    for (std::uint64_t b = 1; b < 256; b += 3) {
      const double exact = static_cast<double>(a * b);
      const double approx = static_cast<double>(DispatchMul(mul, a, b));
      EXPECT_LE(std::abs(exact - approx) / exact, bound)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Drum, LowBiasOnUniformInputs) {
  // The forced-LSB compensation makes DRUM nearly unbiased, unlike plain
  // truncation: |mean signed error| must be far below the mean abs error.
  const MulOpDescriptor mul = MakeDrumMultiplier(8, 3);
  const Characterization c = CharacterizeMultiplier(mul, 8, 1 << 16);
  EXPECT_LT(std::abs(c.mean_error), c.mae * 0.35);
}

TEST(Drum, RejectsInvalidKeptBits) {
  EXPECT_THROW(MakeDrumMultiplier(8, 1), std::invalid_argument);
  EXPECT_THROW(MakeDrumMultiplier(8, 9), std::invalid_argument);
}

TEST(LeadingOne, RoundsDownToPowerOfTwoWhenM1) {
  const MulOpDescriptor mul = MakeLeadingOneMultiplier(8, 1);
  EXPECT_EQ(DispatchMul(mul, 5, 9), 4u * 8u);
  EXPECT_EQ(DispatchMul(mul, 255, 255), 128u * 128u);
  EXPECT_EQ(DispatchMul(mul, 1, 1), 1u);
}

TEST(LeadingOne, ExactOnSmallOperands) {
  const MulOpDescriptor mul = MakeLeadingOneMultiplier(8, 2);
  for (std::uint64_t a = 0; a < 4; ++a)
    for (std::uint64_t b = 0; b < 4; ++b)
      EXPECT_EQ(DispatchMul(mul, a, b), a * b);
}

TEST(LeadingOne, NeverOverestimates) {
  const MulOpDescriptor mul = MakeLeadingOneMultiplier(8, 1);
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t a = rng.UniformBelow(256);
    const std::uint64_t b = rng.UniformBelow(256);
    EXPECT_LE(DispatchMul(mul, a, b), a * b);
  }
}

TEST(MultiplySigned, SignMagnitudeSemantics) {
  const MulOpDescriptor mul = MakeExactMultiplier(8);
  EXPECT_EQ(DispatchMulSigned(mul, -3, 5), -15);
  EXPECT_EQ(DispatchMulSigned(mul, 3, -5), -15);
  EXPECT_EQ(DispatchMulSigned(mul, -3, -5), 15);
  EXPECT_EQ(DispatchMulSigned(mul, 3, 5), 15);
}

TEST(MultiplySigned, ApproximationAppliesToMagnitude) {
  const MulOpDescriptor mul = MakeLeadingOneMultiplier(8, 1);
  // |-5| * |9| -> 4*8 = 32, negative product.
  EXPECT_EQ(DispatchMulSigned(mul, -5, 9), -32);
  EXPECT_EQ(DispatchMulSigned(mul, -5, -9), 32);
}

TEST(MultiplierFactories, ProduceWorkingInstances) {
  EXPECT_EQ(DispatchMul(MakeExactMultiplier(8), 6, 7), 42u);
  EXPECT_EQ(MakePpTruncatedMultiplier(8, 2).bits, 8);
  EXPECT_EQ(MakeOperandTruncatedMultiplier(8, 2).bits, 8);
  EXPECT_EQ(MakeMitchellLogMultiplier(32).bits, 32);
  EXPECT_EQ(MakeDrumMultiplier(32, 6).bits, 32);
  EXPECT_EQ(MakeLeadingOneMultiplier(32, 1).bits, 32);
}

TEST(MultiplierDescribe, EncodesFamilyAndParameter) {
  EXPECT_EQ(Describe(MakePpTruncatedMultiplier(8, 5)), "PPTrunc(c=5)");
  EXPECT_EQ(Describe(MakeOperandTruncatedMultiplier(8, 2)), "OpTrunc(k=2)");
  EXPECT_EQ(Describe(MakeMitchellLogMultiplier(8)), "Mitchell");
  EXPECT_EQ(Describe(MakeDrumMultiplier(8, 6)), "DRUM(k=6)");
  EXPECT_EQ(Describe(MakeLeadingOneMultiplier(8, 1)), "LeadOne(m=1)");
  EXPECT_EQ(Describe(MakeExactMultiplier(8)), "Exact");
}

// ---------------------------------------------------------------------------
// Property sweep across all families.
// ---------------------------------------------------------------------------

struct MultiplierCase {
  std::string label;
  MulOpDescriptor multiplier;
};

class MultiplierPropertyTest
    : public ::testing::TestWithParam<MultiplierCase> {};

TEST_P(MultiplierPropertyTest, CommutativeOn8BitDomain) {
  const MulOpDescriptor& mul = GetParam().multiplier;
  for (std::uint64_t a = 0; a < 256; a += 3)
    for (std::uint64_t b = a; b < 256; b += 5)
      EXPECT_EQ(DispatchMul(mul, a, b), DispatchMul(mul, b, a))
          << "a=" << a << " b=" << b;
}

TEST_P(MultiplierPropertyTest, ZeroAnnihilates) {
  const MulOpDescriptor& mul = GetParam().multiplier;
  for (std::uint64_t v = 0; v < 256; v += 17) {
    EXPECT_EQ(DispatchMul(mul, 0, v), 0u);
    EXPECT_EQ(DispatchMul(mul, v, 0), 0u);
  }
}

TEST_P(MultiplierPropertyTest, NeverMoreThanDoubleTheExactProduct) {
  // Generic sanity bound for every family in the library: approximations may
  // under- or (slightly) over-estimate but never run away.
  const MulOpDescriptor& mul = GetParam().multiplier;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t a = 1 + rng.UniformBelow(255);
    const std::uint64_t b = 1 + rng.UniformBelow(255);
    EXPECT_LE(DispatchMul(mul, a, b), 2 * a * b);
  }
}

TEST_P(MultiplierPropertyTest, SignedMagnitudeConsistentWithUnsigned) {
  const MulOpDescriptor& mul = GetParam().multiplier;
  util::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t a = rng.UniformInt(-255, 255);
    const std::int64_t b = rng.UniformInt(-255, 255);
    const std::uint64_t ma = static_cast<std::uint64_t>(a < 0 ? -a : a);
    const std::uint64_t mb = static_cast<std::uint64_t>(b < 0 ? -b : b);
    const std::int64_t expected_mag =
        static_cast<std::int64_t>(DispatchMul(mul, ma, mb));
    const std::int64_t expected =
        (a < 0) != (b < 0) ? -expected_mag : expected_mag;
    EXPECT_EQ(DispatchMulSigned(mul, a, b), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MultiplierPropertyTest,
    ::testing::Values(
        MultiplierCase{"exact", MakeExactMultiplier(8)},
        MultiplierCase{"pptrunc1", MakePpTruncatedMultiplier(8, 1)},
        MultiplierCase{"pptrunc5", MakePpTruncatedMultiplier(8, 5)},
        MultiplierCase{"pptrunc9", MakePpTruncatedMultiplier(8, 9)},
        MultiplierCase{"optrunc2", MakeOperandTruncatedMultiplier(8, 2)},
        MultiplierCase{"mitchell", MakeMitchellLogMultiplier(8)},
        MultiplierCase{"drum3", MakeDrumMultiplier(8, 3)},
        MultiplierCase{"drum6", MakeDrumMultiplier(8, 6)},
        MultiplierCase{"leadone1", MakeLeadingOneMultiplier(8, 1)},
        MultiplierCase{"leadone2", MakeLeadingOneMultiplier(8, 2)}),
    [](const ::testing::TestParamInfo<MultiplierCase>& param_info) {
      return param_info.param.label;
    });

}  // namespace
}  // namespace axdse::axc
