#pragma once
// Closed-form arithmetic of every behavioral operator family, as inlinable
// free functions. This is the single source of truth for the family math:
// the descriptor dispatcher (execution_plan.hpp) calls these, and so does
// everything built on it (the evaluate hot path, characterization, the
// memoized product tables).
//
// Also home of the sign-magnitude helpers behind DispatchAddSigned /
// DispatchMulSigned. Negation goes through std::uint64_t so INT64_MIN
// magnitudes are well-defined (signed `-a` overflows there); for every
// other input the results are bit-identical to the historical signed
// negation.

#include <bit>
#include <cstdint>

namespace axdse::axc::ops {

constexpr std::uint64_t LowMask(int bits) noexcept {
  return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

/// Index of the most significant set bit; precondition v != 0.
constexpr int MsbIndex(std::uint64_t v) noexcept {
  return 63 - std::countl_zero(v);
}

/// |v| as an unsigned value; defined for INT64_MIN (yields 2^63).
constexpr std::uint64_t UnsignedMagnitude(std::int64_t v) noexcept {
  const std::uint64_t u = static_cast<std::uint64_t>(v);
  return v < 0 ? 0 - u : u;
}

/// Reapplies a sign to an unsigned magnitude (modular, never UB).
constexpr std::int64_t ApplySign(bool negative,
                                 std::uint64_t magnitude) noexcept {
  return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

// --- adder families ---------------------------------------------------------

constexpr std::uint64_t ExactAdd(std::uint64_t a, std::uint64_t b) noexcept {
  return a + b;
}

constexpr std::uint64_t LowerOrAdd(std::uint64_t a, std::uint64_t b,
                                   int approx_bits) noexcept {
  const std::uint64_t mask = LowMask(approx_bits);
  const std::uint64_t high = (a >> approx_bits) + (b >> approx_bits);
  const std::uint64_t low = (a | b) & mask;
  return (high << approx_bits) | low;
}

constexpr std::uint64_t TruncatedZeroAdd(std::uint64_t a, std::uint64_t b,
                                         int approx_bits) noexcept {
  const std::uint64_t high = (a >> approx_bits) + (b >> approx_bits);
  return high << approx_bits;
}

constexpr std::uint64_t TruncatedPassAAdd(std::uint64_t a, std::uint64_t b,
                                          int approx_bits) noexcept {
  const std::uint64_t mask = LowMask(approx_bits);
  const std::uint64_t high = (a >> approx_bits) + (b >> approx_bits);
  return (high << approx_bits) | (a & mask);
}

inline std::uint64_t SegmentedCarryAdd(std::uint64_t a, std::uint64_t b,
                                       int segment_bits) noexcept {
  const std::uint64_t seg_mask = LowMask(segment_bits);
  std::uint64_t result = 0;
  std::uint64_t carry_in = 0;
  for (int shift = 0; shift < 64; shift += segment_bits) {
    const std::uint64_t sa = (a >> shift) & seg_mask;
    const std::uint64_t sb = (b >> shift) & seg_mask;
    const std::uint64_t sum = sa + sb + carry_in;
    result |= (sum & seg_mask) << shift;
    // Speculative carry (ETAII): the carry entering the next segment is
    // predicted from this segment's operand bits alone — the incoming carry
    // is deliberately NOT folded in, so a carry chain never crosses more
    // than one segment boundary. This is where the approximation error
    // comes from.
    carry_in = (sa + sb) >> segment_bits;
    if (shift + segment_bits >= 64) break;
  }
  return result;
}

inline std::uint64_t AlmostCorrectAdd(std::uint64_t a, std::uint64_t b,
                                      int window) noexcept {
  // Result bit i uses the exact sum of bits [max(0, i-window), i] with zero
  // carry-in: any carry chain longer than `window` is cut.
  std::uint64_t result = 0;
  for (int i = 0; i < 64; ++i) {
    const int lo = i - window < 0 ? 0 : i - window;
    const int span = i - lo + 1;
    const std::uint64_t mask = LowMask(span);
    const std::uint64_t sa = (a >> lo) & mask;
    const std::uint64_t sb = (b >> lo) & mask;
    const std::uint64_t local = sa + sb;
    result |= ((local >> (i - lo)) & 1ULL) << i;
    // Bits above both operands' ranges cannot be set; stop once both
    // operands are exhausted and no local sum can reach bit i.
    if ((a >> i) == 0 && (b >> i) == 0 && ((local >> (i - lo)) & 1ULL) == 0 &&
        i > 0)
      break;
  }
  return result;
}

inline std::uint64_t AmaAdd(std::uint64_t a, std::uint64_t b,
                            int approx_bits) noexcept {
  // Low positions use the AMA1 approximate full adder: Cout is the exact
  // majority, Sum is the complement of Cout — wrong only for input triples
  // (0,0,0) and (1,1,1).
  std::uint64_t result = 0;
  std::uint64_t carry = 0;
  for (int i = 0; i < approx_bits; ++i) {
    const std::uint64_t ai = (a >> i) & 1ULL;
    const std::uint64_t bi = (b >> i) & 1ULL;
    const std::uint64_t cout = (ai & bi) | (ai & carry) | (bi & carry);
    result |= (1ULL - cout) << i;  // Sum = NOT(Cout)
    carry = cout;
  }
  const std::uint64_t high = (a >> approx_bits) + (b >> approx_bits) + carry;
  return result | (high << approx_bits);
}

// --- multiplier families -----------------------------------------------------

constexpr std::uint64_t ExactMul(std::uint64_t a, std::uint64_t b) noexcept {
  return a * b;
}

inline std::uint64_t PpTruncatedMul(std::uint64_t a, std::uint64_t b,
                                    int cut_column) noexcept {
  // Sum partial products a_i * (b_j << (i+j)) keeping only columns >= cut.
  // Computed as the exact product minus the dropped low-column bits: a
  // partial product lands below the cut iff i + j < cut, so only rows
  // i < cut drop anything and each drops (b << i) restricted to columns
  // < cut. The row loop is a fixed `cut_column` trips with an AND-mask
  // instead of a bit-scan branch — a data-dependent branch per set bit
  // mispredicts its way to ~3x this cost on random operands. Identical
  // (modular) arithmetic to summing the kept partial products directly.
  const std::uint64_t low_mask = LowMask(cut_column);
  std::uint64_t dropped = 0;
  for (int i = 0; i < cut_column; ++i) {
    const std::uint64_t row = 0 - ((a >> i) & 1ULL);  // all-ones iff a_i set
    dropped += row & ((b << i) & low_mask);
  }
  return a * b - dropped;
}

constexpr std::uint64_t OperandTruncatedMul(std::uint64_t a, std::uint64_t b,
                                            int trunc_bits) noexcept {
  const std::uint64_t mask = ~LowMask(trunc_bits);
  return (a & mask) * (b & mask);
}

inline std::uint64_t MitchellLogMul(std::uint64_t a,
                                    std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  // log2(x) ~= msb(x) + frac(x), frac in [0,1) with F fractional bits.
  constexpr int kFracBits = 30;
  const int ka = MsbIndex(a);
  const int kb = MsbIndex(b);
  // frac = (x - 2^k) / 2^k in fixed point. Shift x so the mantissa occupies
  // kFracBits bits: for k <= kFracBits shift left, otherwise right.
  const auto mantissa = [](std::uint64_t x, int k) -> std::uint64_t {
    const std::uint64_t frac_part = x - (1ULL << k);  // k < 64 guaranteed
    if (k <= kFracBits) return frac_part << (kFracBits - k);
    return frac_part >> (k - kFracBits);
  };
  const std::uint64_t fa = mantissa(a, ka);
  const std::uint64_t fb = mantissa(b, kb);
  const std::uint64_t fsum = fa + fb;  // in [0, 2) fixed point
  const int ksum = ka + kb;
  // Antilog per Mitchell: 2^(ksum) * (1 + fsum) if fsum < 1,
  // else 2^(ksum+1) * (fsum)  [fsum has an implicit integer bit].
  // Branchless: fsum's bit kFracBits is the carry that selects the case —
  // a data-dependent 50/50 branch here mispredicts its way to the top of
  // the evaluate profile.
  const std::uint64_t carry = fsum >> kFracBits;  // 0 or 1 (fa, fb < 2^F)
  const std::uint64_t mant = fsum + ((1ULL - carry) << kFracBits);
  const int exponent = ksum + static_cast<int>(carry);
  if (exponent >= kFracBits) return mant << (exponent - kFracBits);
  return mant >> (kFracBits - exponent);
}

inline std::uint64_t DrumMul(std::uint64_t a, std::uint64_t b,
                             int kept_bits) noexcept {
  const auto reduce = [kept_bits](std::uint64_t v, int& shift) -> std::uint64_t {
    shift = 0;
    if (v < (1ULL << kept_bits)) return v;  // already fits: exact
    const int msb = MsbIndex(v);
    shift = msb - kept_bits + 1;
    std::uint64_t kept = v >> shift;
    kept |= 1;  // force LSB to 1: expected-value compensation (unbiasing)
    return kept;
  };
  int sa = 0;
  int sb = 0;
  const std::uint64_t ra = reduce(a, sa);
  const std::uint64_t rb = reduce(b, sb);
  return (ra * rb) << (sa + sb);
}

inline std::uint64_t LeadingOneMul(std::uint64_t a, std::uint64_t b,
                                   int msb_bits) noexcept {
  const auto round_down = [msb_bits](std::uint64_t v) -> std::uint64_t {
    if (v < (1ULL << msb_bits)) return v;
    const int msb = MsbIndex(v);
    const int drop = msb - msb_bits + 1;
    return (v >> drop) << drop;
  };
  return round_down(a) * round_down(b);
}

/// Kulkarni base block: exact 2x2 product except 3*3 -> 7.
constexpr std::uint64_t Kulkarni2x2(std::uint64_t a, std::uint64_t b) noexcept {
  return (a == 3 && b == 3) ? 7 : a * b;
}

/// Recursive composition: split each operand in half, multiply the four
/// cross terms approximately, and combine with exact shifted additions.
inline std::uint64_t KulkarniRecursive(std::uint64_t a, std::uint64_t b,
                                       int width) noexcept {
  if (width <= 2) return Kulkarni2x2(a & 0x3, b & 0x3);
  const int half = width / 2;
  const std::uint64_t mask = (1ULL << half) - 1;
  const std::uint64_t al = a & mask;
  const std::uint64_t ah = a >> half;
  const std::uint64_t bl = b & mask;
  const std::uint64_t bh = b >> half;
  const std::uint64_t ll = KulkarniRecursive(al, bl, half);
  const std::uint64_t lh = KulkarniRecursive(al, bh, half);
  const std::uint64_t hl = KulkarniRecursive(ah, bl, half);
  const std::uint64_t hh = KulkarniRecursive(ah, bh, half);
  return (hh << width) + ((lh + hl) << half) + ll;
}

/// Smallest power-of-two width that covers the operand.
inline int CoveringPow2Width(std::uint64_t v) noexcept {
  int width = 2;
  while (width < 64 && (v >> width) != 0) width *= 2;
  return width;
}

inline std::uint64_t KulkarniMul(std::uint64_t a, std::uint64_t b) noexcept {
  // The block decomposition targets <=32-bit datapaths; wider operands
  // (legal as long as the product fits 64 bits) fall back to exact.
  if ((a >> 32) != 0 || (b >> 32) != 0) return a * b;
  const int wa = CoveringPow2Width(a);
  const int wb = CoveringPow2Width(b);
  return KulkarniRecursive(a, b, wa > wb ? wa : wb);
}

/// Nearest power of two (ties round up); 0 maps to 0.
constexpr std::uint64_t RoundToNearestPowerOfTwo(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const int p = MsbIndex(v);
  const std::uint64_t down = 1ULL << p;
  if (v == down || p >= 62) return down;
  const std::uint64_t up = down << 1;
  return (v - down < up - v) ? down : up;  // ties round up
}

inline std::uint64_t RobaMul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  // ROBA computes ra*b + rb*a - ra*rb, which equals a*b - (a-ra)*(b-rb):
  // the exact product minus the dropped rounding-residue term. The residues
  // are bounded by a third of each operand, so their product fits in a
  // signed 64-bit value for all 32-bit datapaths.
  const std::int64_t da =
      static_cast<std::int64_t>(a) -
      static_cast<std::int64_t>(RoundToNearestPowerOfTwo(a));
  const std::int64_t db =
      static_cast<std::int64_t>(b) -
      static_cast<std::int64_t>(RoundToNearestPowerOfTwo(b));
  return a * b - static_cast<std::uint64_t>(da * db);
}

// --- sign-magnitude wrappers --------------------------------------------------

/// Signed addition over any unsigned add functor: same-sign operands are
/// approximated on their magnitudes; mixed signs fall back to exact
/// subtraction, because the approximate adders model the ADD datapath of a
/// sign-magnitude unit and a subtraction runs on its exact SUB path.
template <class AddFn>
constexpr std::int64_t SignedAdd(const AddFn& add, std::int64_t a,
                                 std::int64_t b) noexcept {
  if ((a >= 0) == (b >= 0)) {
    const std::uint64_t mag = add(UnsignedMagnitude(a), UnsignedMagnitude(b));
    return ApplySign(a < 0, mag);
  }
  return a + b;  // mixed signs: subtraction handled exactly
}

/// Signed multiplication over any unsigned multiply functor
/// (sign-magnitude semantics).
template <class MulFn>
constexpr std::int64_t SignedMul(const MulFn& mul, std::int64_t a,
                                 std::int64_t b) noexcept {
  const bool negative = (a < 0) != (b < 0);
  const std::uint64_t mag = mul(UnsignedMagnitude(a), UnsignedMagnitude(b));
  return ApplySign(negative, mag);
}

}  // namespace axdse::axc::ops
