#pragma once
// Compiled-plan operator dispatch over the operator descriptors of
// axc/operators.hpp. An ApproxSelection is fixed for an entire kernel run,
// so instrument::ApproxContext::Configure compiles the four operators in
// play into an OperatorPlan ONCE per configuration; every scalar op then
// goes through a flat, inlinable switch (Dispatch*), and batched primitives
// hoist even the switch out of inner loops (WithAddOp/WithMulOp).

#include <cstdint>

#include "axc/op_primitives.hpp"
#include "axc/operators.hpp"

namespace axdse::axc {

/// A configuration compiled to operators: [0] = the precise operator the
/// unselected ops use, [1] = the selected approximate operator.
struct OperatorPlan {
  AddOpDescriptor add[2];
  MulOpDescriptor mul[2];
  /// ProductTable8(mul[b]), resolved with the plan: the batched u8 MAC
  /// loops turn family math into one load where it is non-null.
  const std::uint32_t* table8[2] = {nullptr, nullptr};
};

/// Invokes `fn` with an inlinable functor implementing the descriptor's
/// unsigned add — the switch runs once, so loops passed as `fn` carry zero
/// per-element dispatch. `fn`'s return type must not depend on the functor.
template <class Fn>
decltype(auto) WithAddOp(const AddOpDescriptor& d, Fn&& fn) {
  switch (d.code) {
    case AddOpCode::kLowerOr:
      return fn([k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::LowerOrAdd(a, b, k);
      });
    case AddOpCode::kTruncatedZero:
      return fn([k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::TruncatedZeroAdd(a, b, k);
      });
    case AddOpCode::kTruncatedPassA:
      return fn([k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::TruncatedPassAAdd(a, b, k);
      });
    case AddOpCode::kSegmentedCarry:
      return fn([s = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::SegmentedCarryAdd(a, b, s);
      });
    case AddOpCode::kAlmostCorrect:
      return fn([w = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::AlmostCorrectAdd(a, b, w);
      });
    case AddOpCode::kAma:
      return fn([k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::AmaAdd(a, b, k);
      });
    case AddOpCode::kExact:
      break;
  }
  return fn([](std::uint64_t a, std::uint64_t b) noexcept {
    return ops::ExactAdd(a, b);
  });
}

/// Multiplier counterpart of WithAddOp.
template <class Fn>
decltype(auto) WithMulOp(const MulOpDescriptor& d, Fn&& fn) {
  switch (d.code) {
    case MulOpCode::kPpTruncated:
      return fn([c = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::PpTruncatedMul(a, b, c);
      });
    case MulOpCode::kOperandTruncated:
      return fn([k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::OperandTruncatedMul(a, b, k);
      });
    case MulOpCode::kMitchell:
      return fn([](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::MitchellLogMul(a, b);
      });
    case MulOpCode::kDrum:
      return fn([k = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::DrumMul(a, b, k);
      });
    case MulOpCode::kLeadingOne:
      return fn([m = d.param](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::LeadingOneMul(a, b, m);
      });
    case MulOpCode::kKulkarni:
      return fn([](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::KulkarniMul(a, b);
      });
    case MulOpCode::kRoba:
      return fn([](std::uint64_t a, std::uint64_t b) noexcept {
        return ops::RobaMul(a, b);
      });
    case MulOpCode::kExact:
      break;
  }
  return fn([](std::uint64_t a, std::uint64_t b) noexcept {
    return ops::ExactMul(a, b);
  });
}

/// Unsigned add through the descriptor's flat switch.
inline std::uint64_t DispatchAdd(const AddOpDescriptor& d, std::uint64_t a,
                                 std::uint64_t b) noexcept {
  switch (d.code) {
    case AddOpCode::kExact:
      return ops::ExactAdd(a, b);
    case AddOpCode::kLowerOr:
      return ops::LowerOrAdd(a, b, d.param);
    case AddOpCode::kTruncatedZero:
      return ops::TruncatedZeroAdd(a, b, d.param);
    case AddOpCode::kTruncatedPassA:
      return ops::TruncatedPassAAdd(a, b, d.param);
    case AddOpCode::kSegmentedCarry:
      return ops::SegmentedCarryAdd(a, b, d.param);
    case AddOpCode::kAlmostCorrect:
      return ops::AlmostCorrectAdd(a, b, d.param);
    case AddOpCode::kAma:
      return ops::AmaAdd(a, b, d.param);
  }
  return ops::ExactAdd(a, b);  // unreachable; silences -Wreturn-type
}

/// Unsigned multiply through the descriptor's flat switch.
inline std::uint64_t DispatchMul(const MulOpDescriptor& d, std::uint64_t a,
                                 std::uint64_t b) noexcept {
  switch (d.code) {
    case MulOpCode::kExact:
      return ops::ExactMul(a, b);
    case MulOpCode::kPpTruncated:
      return ops::PpTruncatedMul(a, b, d.param);
    case MulOpCode::kOperandTruncated:
      return ops::OperandTruncatedMul(a, b, d.param);
    case MulOpCode::kMitchell:
      return ops::MitchellLogMul(a, b);
    case MulOpCode::kDrum:
      return ops::DrumMul(a, b, d.param);
    case MulOpCode::kLeadingOne:
      return ops::LeadingOneMul(a, b, d.param);
    case MulOpCode::kKulkarni:
      return ops::KulkarniMul(a, b);
    case MulOpCode::kRoba:
      return ops::RobaMul(a, b);
  }
  return ops::ExactMul(a, b);  // unreachable; silences -Wreturn-type
}

/// Signed addition with sign-magnitude semantics: same-sign operands are
/// approximated on their magnitudes, mixed signs subtract exactly.
inline std::int64_t DispatchAddSigned(const AddOpDescriptor& d, std::int64_t a,
                                      std::int64_t b) noexcept {
  return ops::SignedAdd(
      [&d](std::uint64_t x, std::uint64_t y) noexcept {
        return DispatchAdd(d, x, y);
      },
      a, b);
}

/// Signed multiplication: approximates |a|*|b| and reapplies the sign.
inline std::int64_t DispatchMulSigned(const MulOpDescriptor& d, std::int64_t a,
                                      std::int64_t b) noexcept {
  return ops::SignedMul(
      [&d](std::uint64_t x, std::uint64_t y) noexcept {
        return DispatchMul(d, x, y);
      },
      a, b);
}

}  // namespace axdse::axc
