#pragma once
// Shared MAC-chain inner loops: the one implementation of the batched
// dot/axpy arithmetic, parameterized on resolved operator descriptors.
// Both the scalar ApproxContext (one configuration) and the lane-parallel
// MultiApproxContext (one representative lane per dedup group) dispatch
// through these, so "batched == scalar" holds by construction for the loop
// bodies and a SIMD change lands in both paths at once.
//
// SIMD policy (gated by the AXDSE_NO_SIMD build option):
//  - Exact accumulation is uint64 modular addition — associative and
//    commutative — so a vectorized reduction reorders bit-identically.
//    The u8 table path and the exact*exact path carry `omp simd` pragmas.
//  - Approximate adds are NOT associative (carry truncation etc.): those
//    chains keep the strict element order and never get a reduction pragma.
//  - Element-independent loops (AXPY) may vectorize freely: no iteration
//    reads another's output, so lane order cannot change results.
// Compiled with -fopenmp-simd the pragmas vectorize without any OpenMP
// runtime dependency; with AXDSE_NO_SIMD they are compiled out entirely and
// the loops run scalar (the forced-fallback CI flavor).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "axc/execution_plan.hpp"

#if defined(AXDSE_NO_SIMD)
#define AXDSE_SIMD_LOOP
#define AXDSE_SIMD_REDUCTION(var)
#else
#define AXDSE_PRAGMA_(text) _Pragma(#text)
#define AXDSE_SIMD_LOOP AXDSE_PRAGMA_(omp simd)
#define AXDSE_SIMD_REDUCTION(var) AXDSE_PRAGMA_(omp simd reduction(+ : var))
#endif

namespace axdse::instrument::detail {

/// Chained MAC: returns acc after n steps of
///   acc = add(acc, mul(a[i*stride_a], b[i*stride_b]))
/// with the plan's multiplier mul[mul_b] and adder add[add_b]. Bit-identical
/// to the equivalent loop of scalar DispatchMulSigned/DispatchAddSigned
/// calls (operand order preserved: element product first operand is `a`,
/// accumulation first operand is the running `acc`).
template <class A, class B>
inline std::int64_t DotChain(const axc::OperatorPlan& plan, bool mul_b,
                             bool add_b, std::int64_t acc, const A* a,
                             std::size_t stride_a, const B* b,
                             std::size_t stride_b, std::size_t n) noexcept {
  static_assert(std::is_integral_v<A> && std::is_integral_v<B>,
                "DotChain operates on integral element types");
  if (n == 0) return acc;
  const axc::MulOpDescriptor& mul_d = plan.mul[mul_b];
  const axc::AddOpDescriptor& add_d = plan.add[add_b];
  if constexpr (std::is_unsigned_v<A> && std::is_unsigned_v<B> &&
                sizeof(A) == 1 && sizeof(B) == 1) {
    // 8-bit operands: approximate multipliers memoize their full 256x256
    // domain (OperatorPlan::table8), turning the family math into one load
    // per MAC. Bit-identical by construction.
    if (const std::uint32_t* table8 = plan.table8[mul_b]) {
      assert(acc >= 0);
      if (add_d.code == axc::AddOpCode::kExact) {
        // Exact accumulation of table products: modular uint64 addition is
        // associative, so the vectorized reduction is bit-identical.
        std::uint64_t uacc = static_cast<std::uint64_t>(acc);
        AXDSE_SIMD_REDUCTION(uacc)
        for (std::size_t i = 0; i < n; ++i) {
          uacc += table8[(static_cast<std::uint64_t>(a[i * stride_a]) << 8) |
                         static_cast<std::uint64_t>(b[i * stride_b])];
        }
        return static_cast<std::int64_t>(uacc);
      }
      return axc::WithAddOp(add_d, [&](auto add) {
        std::uint64_t uacc = static_cast<std::uint64_t>(acc);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t product =
              table8[(static_cast<std::uint64_t>(a[i * stride_a]) << 8) |
                     static_cast<std::uint64_t>(b[i * stride_b])];
          uacc = add(uacc, product);
        }
        return static_cast<std::int64_t>(uacc);
      });
    }
  }
  if constexpr (std::is_unsigned_v<A> && std::is_unsigned_v<B>) {
    // Fully exact unit-stride chain: plain multiply-accumulate, again safe
    // to reorder as a vector reduction.
    if (mul_d.code == axc::MulOpCode::kExact &&
        add_d.code == axc::AddOpCode::kExact && stride_a == 1 &&
        stride_b == 1) {
      assert(acc >= 0);
      std::uint64_t uacc = static_cast<std::uint64_t>(acc);
      AXDSE_SIMD_REDUCTION(uacc)
      for (std::size_t i = 0; i < n; ++i) {
        uacc += static_cast<std::uint64_t>(a[i]) *
                static_cast<std::uint64_t>(b[i]);
      }
      return static_cast<std::int64_t>(uacc);
    }
  }
  return axc::WithMulOp(mul_d, [&](auto mul) {
    return axc::WithAddOp(add_d, [&](auto add) {
      if constexpr (std::is_unsigned_v<A> && std::is_unsigned_v<B>) {
        // Both element types unsigned: the whole chain is provably
        // non-negative (catalog data widths keep magnitudes far below
        // 2^63), so the sign-magnitude wrappers reduce to the identity.
        assert(acc >= 0);
        std::uint64_t uacc = static_cast<std::uint64_t>(acc);
        if (stride_a == 1 && stride_b == 1) {
          // Contiguous operands on a separate loop: with the strides
          // pinned the optimizer can unroll/vectorize (the strided loop
          // below defeats that).
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t product =
                mul(static_cast<std::uint64_t>(a[i]),
                    static_cast<std::uint64_t>(b[i]));
            uacc = add(uacc, product);
          }
          return static_cast<std::int64_t>(uacc);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t product =
              mul(static_cast<std::uint64_t>(a[i * stride_a]),
                  static_cast<std::uint64_t>(b[i * stride_b]));
          uacc = add(uacc, product);
        }
        return static_cast<std::int64_t>(uacc);
      } else {
        std::int64_t signed_acc = acc;
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t product = axc::ops::SignedMul(
              mul, static_cast<std::int64_t>(a[i * stride_a]),
              static_cast<std::int64_t>(b[i * stride_b]));
          signed_acc = axc::ops::SignedAdd(add, signed_acc, product);
        }
        return signed_acc;
      }
    });
  });
}

/// AXPY chain: y[i] = add(y[i], mul(alpha, x[i])) for i in [0, n) — `alpha`
/// is the product's FIRST operand (asymmetric families care). Elements are
/// independent, so the loop may vectorize without reordering hazards.
template <class X>
inline void AxpyChain(const axc::MulOpDescriptor& mul_d,
                      const axc::AddOpDescriptor& add_d, std::int64_t* y,
                      const X* x, std::size_t n, std::int64_t alpha) noexcept {
  static_assert(std::is_integral_v<X>,
                "AxpyChain operates on integral element types");
  if (n == 0) return;
  const bool alpha_neg = alpha < 0;
  const std::uint64_t alpha_mag = axc::ops::UnsignedMagnitude(alpha);
  axc::WithMulOp(mul_d, [&](auto mul) {
    axc::WithAddOp(add_d, [&](auto add) {
      AXDSE_SIMD_LOOP
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t xv = static_cast<std::int64_t>(x[i]);
        const std::uint64_t mag =
            mul(alpha_mag, axc::ops::UnsignedMagnitude(xv));
        const std::int64_t product =
            axc::ops::ApplySign(alpha_neg != (xv < 0), mag);
        y[i] = axc::ops::SignedAdd(add, y[i], product);
      }
    });
  });
}

}  // namespace axdse::instrument::detail
