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
//  - Exact operators on signed operands skip the sign-magnitude wrappers:
//    their signed forms are wrapping two's-complement arithmetic.
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

/// Wrapping two's-complement arithmetic: the exact operators' signed
/// forms. SignedMul/SignedAdd over ExactMul/ExactAdd are modular (|a|*|b|
/// and |a|+|b| with the sign reapplied are a*b and a+b modulo 2^64), so
/// these are bit-identical to them without the sign tests.
struct WrappingMul {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const noexcept {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
  }
};
struct WrappingAdd {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const noexcept {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
  }
};

/// Invokes `fn(add)` with a signed (sign-magnitude) add functor for the
/// descriptor; the exact adder gets its wrapping form, with no sign tests.
template <class Fn>
void WithSignedAdd(const axc::AddOpDescriptor& add_d, Fn&& fn) {
  if (add_d.code == axc::AddOpCode::kExact) {
    fn(WrappingAdd{});
    return;
  }
  axc::WithAddOp(add_d, [&](auto add) {
    fn([add](std::int64_t a, std::int64_t b) noexcept {
      return axc::ops::SignedAdd(add, a, b);
    });
  });
}

/// Invokes `fn(mul, add)` with signed functors for both descriptors. Exact
/// operators get their wrapping forms instead of the family functor under
/// SignedMul/SignedAdd: the fast path of golden runs and precise ops.
template <class Fn>
void WithSignedOps(const axc::MulOpDescriptor& mul_d,
                   const axc::AddOpDescriptor& add_d, Fn&& fn) {
  const auto with_mul = [&](auto mul) {
    WithSignedAdd(add_d, [&](auto add) { fn(mul, add); });
  };
  if (mul_d.code == axc::MulOpCode::kExact) {
    with_mul(WrappingMul{});
    return;
  }
  axc::WithMulOp(mul_d, [&](auto mul) {
    with_mul([mul](std::int64_t a, std::int64_t b) noexcept {
      return axc::ops::SignedMul(mul, a, b);
    });
  });
}

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
  if constexpr (std::is_unsigned_v<A> && std::is_unsigned_v<B>) {
    // Both element types unsigned: the whole chain is provably
    // non-negative (catalog data widths keep magnitudes far below 2^63),
    // so the sign-magnitude wrappers reduce to the identity.
    assert(acc >= 0);
    return axc::WithMulOp(mul_d, [&](auto mul) {
      return axc::WithAddOp(add_d, [&](auto add) {
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
      });
    });
  } else {
    std::int64_t signed_acc = acc;
    WithSignedOps(mul_d, add_d, [&](auto mul, auto add) {
      for (std::size_t i = 0; i < n; ++i)
        signed_acc =
            add(signed_acc, mul(static_cast<std::int64_t>(a[i * stride_a]),
                                static_cast<std::int64_t>(b[i * stride_b])));
    });
    return signed_acc;
  }
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
  WithSignedOps(mul_d, add_d, [&](auto mul, auto add) {
    AXDSE_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i)
      y[i] = add(y[i], mul(alpha, static_cast<std::int64_t>(x[i])));
  });
}

}  // namespace axdse::instrument::detail
