#pragma once
// Approximate operators as data. Each operator is a POD descriptor: a
// family opcode, the family parameter and the nominal operand width. The
// family math lives in axc/op_primitives.hpp and is dispatched through
// axc/execution_plan.hpp; this header holds the descriptors, the validating
// factories, the family names and the memoized 8-bit product tables.
//
// EvoApproxLib ships gate-level C netlists that are not redistributable
// here, so each catalog entry is a *behavioral family* whose parameter is
// calibrated to the published error characteristics (README "Operators").
//
// Adder families (defined over arbitrary 64-bit unsigned operands: the
// approximation affects the low bits as parameterized and higher bits are
// added exactly, as a fixed-width approximate slice under exact carry
// completion would; each call still counts as one hardware operator):
//
//  * Exact                 — golden reference.
//  * LOA(k)                — lower-part OR adder (Mahdiani et al.): the low k
//                            result bits are a|b, no carry from the low part.
//                            Error == (a & b) & mask(k).
//  * TruncZero(k)          — low k result bits forced to 0, no low carry.
//                            Error == (a + b) & parts below k.
//  * TruncPassA(k)         — low k result bits pass operand A through.
//                            Error == b & mask(k).
//  * SegCarry(s)           — ETAII-style: the carry into each s-bit segment
//                            is generated by the previous segment alone.
//  * ACA(w)                — almost-correct adder (Verma et al.): result bit
//                            i sees a carry chain of at most w positions.
//  * AMA1(k)               — approximate mirror adder 1 (Gupta et al.): the
//                            low k cells keep an exact carry but output
//                            Sum = NOT(Cout).
//
// Multiplier families (any 64-bit unsigned operands whose exact product
// fits in 64 bits, true for every catalog width up to 32x32):
//
//  * Exact                 — golden reference.
//  * PPTrunc(c)            — drops every partial-product bit in columns
//                            below c (fixed-width truncated array).
//  * OpTrunc(k)            — clears the low k bits of both operands before
//                            an exact multiply (broken-array-like).
//  * Mitchell              — Mitchell's 1962 logarithmic multiplier; always
//                            underestimates, max relative error ~11.1%.
//  * DRUM(k)               — dynamic-range unbiased multiplier: keeps the k
//                            leading bits of each operand with the kept
//                            slice's LSB forced to 1, multiplies, shifts
//                            back.
//  * LeadOne(m)            — rounds each operand down to its m most
//                            significant bits.
//  * Kulkarni2x2           — 2x2 block with 3x3 = 7, composed recursively.
//  * ROBA                  — rounds each operand to the nearest power of two
//                            and drops only the (a-ra)*(b-rb) term.
//
// Signed use goes through DispatchAddSigned / DispatchMulSigned
// (execution_plan.hpp) with sign-magnitude semantics.

#include <cstdint>
#include <string>

namespace axdse::axc {

enum class AddOpCode : std::uint8_t {
  kExact,
  kLowerOr,
  kTruncatedZero,
  kTruncatedPassA,
  kSegmentedCarry,
  kAlmostCorrect,
  kAma,
};

enum class MulOpCode : std::uint8_t {
  kExact,
  kPpTruncated,
  kOperandTruncated,
  kMitchell,
  kDrum,
  kLeadingOne,
  kKulkarni,
  kRoba,
};

/// One adder: family, family parameter, nominal operand width. Content
/// equality means "dispatches identically for every operand pair" — the
/// lane-parallel context merges lanes whose descriptors compare equal (e.g.
/// a lane whose selected "approximate" adder is the exact one shares the
/// precise lanes' dedup group).
struct AddOpDescriptor {
  AddOpCode code = AddOpCode::kExact;
  std::int32_t param = 0;  ///< approx/segment bits or window
  std::int32_t bits = 0;   ///< nominal operand width (characterization domain)

  friend bool operator==(const AddOpDescriptor&,
                         const AddOpDescriptor&) noexcept = default;
};

/// One multiplier; equality as for AddOpDescriptor.
struct MulOpDescriptor {
  MulOpCode code = MulOpCode::kExact;
  std::int32_t param = 0;  ///< cut column / truncated / kept / msb bits
  std::int32_t bits = 0;   ///< nominal operand width (characterization domain)

  friend bool operator==(const MulOpDescriptor&,
                         const MulOpDescriptor&) noexcept = default;
};

// Factories validate like hardware would constrain the parameters and throw
// std::invalid_argument otherwise. Adders take operand_bits in [1, 64].
AddOpDescriptor MakeExactAdder(int operand_bits);
/// approx_bits in [1, 63] and <= operand_bits.
AddOpDescriptor MakeLowerOrAdder(int operand_bits, int approx_bits);
AddOpDescriptor MakeTruncatedZeroAdder(int operand_bits, int approx_bits);
AddOpDescriptor MakeTruncatedPassAAdder(int operand_bits, int approx_bits);
/// segment_bits in [1, 32].
AddOpDescriptor MakeSegmentedCarryAdder(int operand_bits, int segment_bits);
/// window in [1, 63].
AddOpDescriptor MakeAlmostCorrectAdder(int operand_bits, int window);
AddOpDescriptor MakeAmaAdder(int operand_bits, int approx_bits);

// Multipliers take operand_bits in [1, 32].
MulOpDescriptor MakeExactMultiplier(int operand_bits);
/// cut_column in [1, 2*operand_bits-1].
MulOpDescriptor MakePpTruncatedMultiplier(int operand_bits, int cut_column);
/// trunc_bits in [1, operand_bits).
MulOpDescriptor MakeOperandTruncatedMultiplier(int operand_bits,
                                               int trunc_bits);
MulOpDescriptor MakeMitchellLogMultiplier(int operand_bits);
/// kept_bits in [2, operand_bits].
MulOpDescriptor MakeDrumMultiplier(int operand_bits, int kept_bits);
/// msb_bits in [1, operand_bits].
MulOpDescriptor MakeLeadingOneMultiplier(int operand_bits, int msb_bits);
MulOpDescriptor MakeKulkarniMultiplier(int operand_bits);
MulOpDescriptor MakeRobaMultiplier(int operand_bits);

/// Family identifier, e.g. "LOA(k=5)" or "DRUM(k=6)".
std::string Describe(const AddOpDescriptor& op);
std::string Describe(const MulOpDescriptor& op);

/// Full product table over the 8-bit operand domain
/// (table[a << 8 | b] == DispatchMul(op, a, b)), owned by one process-wide
/// store and built on first request, once per (family, parameter), safe to
/// request from many threads at once. Null for the exact multiplier (a*b is
/// cheaper than a load), for operand widths above 8 (the table would not
/// cover the domain), and when allocation fails.
const std::uint32_t* ProductTable8(const MulOpDescriptor& op) noexcept;

}  // namespace axdse::axc
