// Descriptor dispatch equivalence: the flat switch (DispatchAdd /
// DispatchMul), the hoisting visitors (WithAddOp / WithMulOp), the signed
// wrappers and the memoized 8-bit product tables must all compute the
// family math of axc/op_primitives.hpp that the descriptor names — for
// every catalog operator, over unsigned and signed operands. Also the
// INT64_MIN sign-magnitude regression: the historical `a < 0 ? -a : a`
// overflowed there; negation now goes through std::uint64_t.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>

#include "axc/catalog.hpp"
#include "axc/execution_plan.hpp"
#include "util/rng.hpp"

namespace axdse::axc {
namespace {

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

using UnsignedOp = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;

/// The family math a descriptor names, looked up independently of the
/// dispatcher's switch so a crossed case there cannot hide.
UnsignedOp FamilyAdd(const AddOpDescriptor& d) {
  const int k = d.param;
  switch (d.code) {
    case AddOpCode::kExact:
      return [](std::uint64_t a, std::uint64_t b) { return a + b; };
    case AddOpCode::kLowerOr:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::LowerOrAdd(a, b, k);
      };
    case AddOpCode::kTruncatedZero:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::TruncatedZeroAdd(a, b, k);
      };
    case AddOpCode::kTruncatedPassA:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::TruncatedPassAAdd(a, b, k);
      };
    case AddOpCode::kSegmentedCarry:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::SegmentedCarryAdd(a, b, k);
      };
    case AddOpCode::kAlmostCorrect:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::AlmostCorrectAdd(a, b, k);
      };
    case AddOpCode::kAma:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::AmaAdd(a, b, k);
      };
  }
  ADD_FAILURE() << "unknown adder opcode";
  return {};
}

UnsignedOp FamilyMul(const MulOpDescriptor& d) {
  const int k = d.param;
  switch (d.code) {
    case MulOpCode::kExact:
      return [](std::uint64_t a, std::uint64_t b) { return a * b; };
    case MulOpCode::kPpTruncated:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::PpTruncatedMul(a, b, k);
      };
    case MulOpCode::kOperandTruncated:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::OperandTruncatedMul(a, b, k);
      };
    case MulOpCode::kMitchell:
      return [](std::uint64_t a, std::uint64_t b) {
        return ops::MitchellLogMul(a, b);
      };
    case MulOpCode::kDrum:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::DrumMul(a, b, k);
      };
    case MulOpCode::kLeadingOne:
      return [k](std::uint64_t a, std::uint64_t b) {
        return ops::LeadingOneMul(a, b, k);
      };
    case MulOpCode::kKulkarni:
      return [](std::uint64_t a, std::uint64_t b) {
        return ops::KulkarniMul(a, b);
      };
    case MulOpCode::kRoba:
      return [](std::uint64_t a, std::uint64_t b) {
        return ops::RobaMul(a, b);
      };
  }
  ADD_FAILURE() << "unknown multiplier opcode";
  return {};
}

/// Operand samples spanning the operator's nominal domain plus wide and
/// boundary values (the family math is total over u64 even if
/// characterized narrower).
std::vector<std::uint64_t> SampleOperands(int bits, util::Rng& rng) {
  std::vector<std::uint64_t> v = {0, 1, 2, 3, (1ULL << (bits - 1)),
                                  (1ULL << bits) - 1};
  for (int i = 0; i < 40; ++i) v.push_back(rng.UniformBelow(1ULL << bits));
  for (int i = 0; i < 10; ++i)
    v.push_back(rng.UniformBelow(1ULL << (bits / 2 + 1)));
  return v;
}

TEST(PlanDispatch, EveryCatalogAdderMatchesItsFamily) {
  const auto& catalog = EvoApproxCatalog::Instance();
  util::Rng rng(11);
  for (const auto* specs : {&catalog.Adders8(), &catalog.Adders16()}) {
    for (const AdderSpec& spec : *specs) {
      const AddOpDescriptor& desc = spec.op;
      EXPECT_EQ(desc.bits, spec.bits) << spec.name;
      const UnsignedOp family = FamilyAdd(desc);
      const auto a = SampleOperands(spec.bits, rng);
      const auto b = SampleOperands(spec.bits, rng);
      for (const std::uint64_t x : a) {
        for (const std::uint64_t y : b) {
          EXPECT_EQ(DispatchAdd(desc, x, y), family(x, y))
              << spec.name << " x=" << x << " y=" << y;
          // Hoisting visitor must agree with the flat switch.
          const std::uint64_t hoisted = WithAddOp(
              desc, [&](auto add) -> std::uint64_t { return add(x, y); });
          EXPECT_EQ(hoisted, family(x, y)) << spec.name;
        }
      }
      // Signed wrapper, mixed and same signs.
      for (const std::int64_t x :
           {std::int64_t{-77}, std::int64_t{42}, std::int64_t{-1}}) {
        for (const std::int64_t y :
             {std::int64_t{15}, std::int64_t{-9}, std::int64_t{0}}) {
          EXPECT_EQ(DispatchAddSigned(desc, x, y), ops::SignedAdd(family, x, y))
              << spec.name;
        }
      }
    }
  }
}

TEST(PlanDispatch, EveryCatalogMultiplierMatchesItsFamily) {
  const auto& catalog = EvoApproxCatalog::Instance();
  util::Rng rng(13);
  for (const auto* specs : {&catalog.Multipliers8(), &catalog.Multipliers32()}) {
    for (const MultiplierSpec& spec : *specs) {
      const MulOpDescriptor& desc = spec.op;
      EXPECT_EQ(desc.bits, spec.bits) << spec.name;
      const UnsignedOp family = FamilyMul(desc);
      const auto a = SampleOperands(spec.bits, rng);
      const auto b = SampleOperands(spec.bits, rng);
      for (const std::uint64_t x : a) {
        for (const std::uint64_t y : b) {
          EXPECT_EQ(DispatchMul(desc, x, y), family(x, y))
              << spec.name << " x=" << x << " y=" << y;
          const std::uint64_t hoisted = WithMulOp(
              desc, [&](auto mul) -> std::uint64_t { return mul(x, y); });
          EXPECT_EQ(hoisted, family(x, y)) << spec.name;
        }
      }
      for (const std::int64_t x : {std::int64_t{-25}, std::int64_t{25}}) {
        for (const std::int64_t y : {std::int64_t{-7}, std::int64_t{7}}) {
          EXPECT_EQ(DispatchMulSigned(desc, x, y),
                    ops::SignedMul(family, x, y))
              << spec.name;
        }
      }
    }
  }
}

TEST(PlanDispatch, EightBitMultipliersMemoizeTheirFullDomain) {
  const auto& catalog = EvoApproxCatalog::Instance();
  util::Rng rng(17);
  for (const MultiplierSpec& spec : catalog.Multipliers8()) {
    const std::uint32_t* table8 = ProductTable8(spec.op);
    if (spec.op.code == MulOpCode::kExact) {
      EXPECT_EQ(table8, nullptr) << spec.name;  // a*b beats a load
      continue;
    }
    ASSERT_NE(table8, nullptr) << spec.name;
    const UnsignedOp family = FamilyMul(spec.op);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t a = rng.UniformBelow(256);
      const std::uint64_t b = rng.UniformBelow(256);
      EXPECT_EQ(table8[(a << 8) | b], family(a, b))
          << spec.name << " a=" << a << " b=" << b;
    }
  }
  // Wide multipliers cannot table an 8-bit domain.
  for (const MultiplierSpec& spec : catalog.Multipliers32())
    EXPECT_EQ(ProductTable8(spec.op), nullptr) << spec.name;
}

TEST(SignedMagnitude, Int64MinNeverOverflows) {
  // Regression: the pre-plan wrappers negated via `a < 0 ? -a : a`, which
  // is UB for INT64_MIN. Magnitudes now pass through std::uint64_t with
  // modular reapplication of the sign — defined for the full domain (the
  // ASan/UBSan CI job runs this test).
  EXPECT_EQ(ops::UnsignedMagnitude(kInt64Min), 1ULL << 63);
  EXPECT_EQ(ops::UnsignedMagnitude(std::int64_t{-1}), 1ULL);
  EXPECT_EQ(ops::ApplySign(true, 1ULL << 63), kInt64Min);

  const AddOpDescriptor adder = MakeExactAdder(64);
  const MulOpDescriptor mul = MakeExactMultiplier(32);
  // Mixed signs fall back to exact subtraction.
  EXPECT_EQ(DispatchAddSigned(adder, kInt64Min, 0), kInt64Min);
  EXPECT_EQ(DispatchAddSigned(adder, kInt64Min, 7), kInt64Min + 7);
  // Same-sign magnitudes wrap modularly (defined, documented behavior).
  EXPECT_EQ(DispatchAddSigned(adder, kInt64Min, -1), kInt64Max);
  // |INT64_MIN| * 1 reapplies the negative sign to 2^63 -> INT64_MIN.
  EXPECT_EQ(DispatchMulSigned(mul, kInt64Min, 1), kInt64Min);
  EXPECT_EQ(DispatchMulSigned(mul, 1, kInt64Min), kInt64Min);
  EXPECT_EQ(DispatchMulSigned(mul, kInt64Min, 0), 0);

  // The dispatcher agrees with the family math at the boundary too.
  EXPECT_EQ(DispatchAddSigned(adder, kInt64Min, -1),
            ops::SignedAdd(FamilyAdd(adder), kInt64Min, -1));
  EXPECT_EQ(DispatchMulSigned(mul, kInt64Min, 1),
            ops::SignedMul(FamilyMul(mul), kInt64Min, 1));

  // Every catalog operator is exercised at the boundary (no UB anywhere).
  const auto& catalog = EvoApproxCatalog::Instance();
  for (const auto* specs : {&catalog.Adders8(), &catalog.Adders16()})
    for (const AdderSpec& spec : *specs)
      EXPECT_EQ(ops::SignedAdd(FamilyAdd(spec.op), kInt64Min, -1),
                DispatchAddSigned(spec.op, kInt64Min, -1))
          << spec.name;
  for (const auto* specs : {&catalog.Multipliers8(), &catalog.Multipliers32()})
    for (const MultiplierSpec& spec : *specs)
      EXPECT_EQ(ops::SignedMul(FamilyMul(spec.op), kInt64Min, 1),
                DispatchMulSigned(spec.op, kInt64Min, 1))
          << spec.name;
}

}  // namespace
}  // namespace axdse::axc
