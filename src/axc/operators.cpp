#include "axc/operators.hpp"

#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>

#include "axc/execution_plan.hpp"

namespace axdse::axc {

namespace {

void CheckAdderBits(int operand_bits) {
  if (operand_bits < 1 || operand_bits > 64)
    throw std::invalid_argument("adder: operand_bits must be in [1,64]");
}

AddOpDescriptor LowBitsAdder(AddOpCode code, int operand_bits,
                             int approx_bits) {
  CheckAdderBits(operand_bits);
  if (approx_bits < 1 || approx_bits > 63 || approx_bits > operand_bits)
    throw std::invalid_argument(
        "adder: approx_bits must be in [1,63] and <= operand_bits");
  return {code, approx_bits, operand_bits};
}

void CheckMultiplierBits(int operand_bits) {
  if (operand_bits < 1 || operand_bits > 32)
    throw std::invalid_argument("multiplier: operand_bits must be in [1,32]");
}

std::string WithParam(const char* family, const char* key, int value) {
  return std::string(family) + "(" + key + "=" + std::to_string(value) + ")";
}

/// Every (family, parameter) a <= 8-bit multiplier can take: cut columns
/// reach 2*8-1 = 15, all other parameters stay <= 8.
constexpr int kTableParams = 16;
constexpr int kTableFamilies = static_cast<int>(MulOpCode::kRoba) + 1;

struct TableSlot {
  std::once_flag once;
  std::unique_ptr<std::uint32_t[]> table;
};

}  // namespace

AddOpDescriptor MakeExactAdder(int operand_bits) {
  CheckAdderBits(operand_bits);
  return {AddOpCode::kExact, 0, operand_bits};
}

AddOpDescriptor MakeLowerOrAdder(int operand_bits, int approx_bits) {
  return LowBitsAdder(AddOpCode::kLowerOr, operand_bits, approx_bits);
}

AddOpDescriptor MakeTruncatedZeroAdder(int operand_bits, int approx_bits) {
  return LowBitsAdder(AddOpCode::kTruncatedZero, operand_bits, approx_bits);
}

AddOpDescriptor MakeTruncatedPassAAdder(int operand_bits, int approx_bits) {
  return LowBitsAdder(AddOpCode::kTruncatedPassA, operand_bits, approx_bits);
}

AddOpDescriptor MakeSegmentedCarryAdder(int operand_bits, int segment_bits) {
  CheckAdderBits(operand_bits);
  if (segment_bits < 1 || segment_bits > 32)
    throw std::invalid_argument("adder: segment_bits must be in [1,32]");
  return {AddOpCode::kSegmentedCarry, segment_bits, operand_bits};
}

AddOpDescriptor MakeAlmostCorrectAdder(int operand_bits, int window) {
  CheckAdderBits(operand_bits);
  if (window < 1 || window > 63)
    throw std::invalid_argument("adder: window must be in [1,63]");
  return {AddOpCode::kAlmostCorrect, window, operand_bits};
}

AddOpDescriptor MakeAmaAdder(int operand_bits, int approx_bits) {
  return LowBitsAdder(AddOpCode::kAma, operand_bits, approx_bits);
}

MulOpDescriptor MakeExactMultiplier(int operand_bits) {
  CheckMultiplierBits(operand_bits);
  return {MulOpCode::kExact, 0, operand_bits};
}

MulOpDescriptor MakePpTruncatedMultiplier(int operand_bits, int cut_column) {
  CheckMultiplierBits(operand_bits);
  if (cut_column < 1 || cut_column > 2 * operand_bits - 1)
    throw std::invalid_argument(
        "multiplier: cut_column must be in [1, 2*operand_bits-1]");
  return {MulOpCode::kPpTruncated, cut_column, operand_bits};
}

MulOpDescriptor MakeOperandTruncatedMultiplier(int operand_bits,
                                               int trunc_bits) {
  CheckMultiplierBits(operand_bits);
  if (trunc_bits < 1 || trunc_bits >= operand_bits)
    throw std::invalid_argument(
        "multiplier: trunc_bits must be in [1, operand_bits)");
  return {MulOpCode::kOperandTruncated, trunc_bits, operand_bits};
}

MulOpDescriptor MakeMitchellLogMultiplier(int operand_bits) {
  CheckMultiplierBits(operand_bits);
  return {MulOpCode::kMitchell, 0, operand_bits};
}

MulOpDescriptor MakeDrumMultiplier(int operand_bits, int kept_bits) {
  CheckMultiplierBits(operand_bits);
  if (kept_bits < 2 || kept_bits > operand_bits)
    throw std::invalid_argument(
        "multiplier: kept_bits must be in [2, operand_bits]");
  return {MulOpCode::kDrum, kept_bits, operand_bits};
}

MulOpDescriptor MakeLeadingOneMultiplier(int operand_bits, int msb_bits) {
  CheckMultiplierBits(operand_bits);
  if (msb_bits < 1 || msb_bits > operand_bits)
    throw std::invalid_argument(
        "multiplier: msb_bits must be in [1, operand_bits]");
  return {MulOpCode::kLeadingOne, msb_bits, operand_bits};
}

MulOpDescriptor MakeKulkarniMultiplier(int operand_bits) {
  CheckMultiplierBits(operand_bits);
  return {MulOpCode::kKulkarni, 0, operand_bits};
}

MulOpDescriptor MakeRobaMultiplier(int operand_bits) {
  CheckMultiplierBits(operand_bits);
  return {MulOpCode::kRoba, 0, operand_bits};
}

std::string Describe(const AddOpDescriptor& op) {
  switch (op.code) {
    case AddOpCode::kExact:
      break;
    case AddOpCode::kLowerOr:
      return WithParam("LOA", "k", op.param);
    case AddOpCode::kTruncatedZero:
      return WithParam("TruncZero", "k", op.param);
    case AddOpCode::kTruncatedPassA:
      return WithParam("TruncPassA", "k", op.param);
    case AddOpCode::kSegmentedCarry:
      return WithParam("SegCarry", "s", op.param);
    case AddOpCode::kAlmostCorrect:
      return WithParam("ACA", "w", op.param);
    case AddOpCode::kAma:
      return WithParam("AMA1", "k", op.param);
  }
  return "Exact";
}

std::string Describe(const MulOpDescriptor& op) {
  switch (op.code) {
    case MulOpCode::kExact:
      break;
    case MulOpCode::kPpTruncated:
      return WithParam("PPTrunc", "c", op.param);
    case MulOpCode::kOperandTruncated:
      return WithParam("OpTrunc", "k", op.param);
    case MulOpCode::kMitchell:
      return "Mitchell";
    case MulOpCode::kDrum:
      return WithParam("DRUM", "k", op.param);
    case MulOpCode::kLeadingOne:
      return WithParam("LeadOne", "m", op.param);
    case MulOpCode::kKulkarni:
      return "Kulkarni2x2";
    case MulOpCode::kRoba:
      return "ROBA";
  }
  return "Exact";
}

const std::uint32_t* ProductTable8(const MulOpDescriptor& op) noexcept {
  if (op.code == MulOpCode::kExact || op.bits > 8 || op.param < 0 ||
      op.param >= kTableParams)
    return nullptr;
  static TableSlot slots[kTableFamilies][kTableParams];
  TableSlot& slot = slots[static_cast<int>(op.code)][op.param];
  std::call_once(slot.once, [&slot, op]() noexcept {
    auto table = std::unique_ptr<std::uint32_t[]>(
        new (std::nothrow) std::uint32_t[65536]);
    if (!table) return;  // allocation failure: stay on the compute path
    WithMulOp(op, [&](auto mul) {
      for (std::uint64_t a = 0; a < 256; ++a)
        for (std::uint64_t b = 0; b < 256; ++b)
          table[(a << 8) | b] = static_cast<std::uint32_t>(mul(a, b));
    });
    slot.table = std::move(table);
  });
  return slot.table.get();
}

}  // namespace axdse::axc
