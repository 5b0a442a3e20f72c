#pragma once
// Execution context standing in for the paper's "automatic code
// instrumentation": kernels route every addition/multiplication through the
// context, which (a) dispatches to the precise or the selected approximate
// operator depending on whether any variable involved in the operation is
// selected, and (b) accounts operation counts for the energy model.
//
// Dispatch is compiled: an ApproxSelection is fixed for an entire kernel
// run, so Configure() compiles the four operators in play (precise and
// approximate adder and multiplier, each a catalog descriptor) into an
// axc::OperatorPlan ONCE per configuration. Every scalar op then goes
// through a flat, inlinable switch; the batched primitives (DotAccumulate /
// AxpyAccumulate / AccumulateProducts / SumProducts) additionally hoist
// selection resolution, opcode dispatch, and op-count accounting out of
// their inner loops.

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "axc/catalog.hpp"
#include "axc/execution_plan.hpp"
#include "energy/energy_model.hpp"
#include "instrument/approx_selection.hpp"
#include "instrument/mac_chains.hpp"

namespace axdse::instrument {

/// Variables involved in one arithmetic operation (operands and/or result, as
/// declared by the kernel author). The operation is approximated when any of
/// them is selected in the active ApproxSelection.
using VarList = std::initializer_list<std::size_t>;

/// Per-run instrumentation context. Not thread-safe (one context per running
/// evaluation); cheap to reset between runs.
///
/// Variable ids in VarList arguments must be < NumVariables(): the bound is
/// validated once per configuration in Configure() (and asserted in debug
/// builds on every op), not branch-checked per scalar operation. The checked
/// accessor for external callers is IsApproximated() /
/// ApproxSelection::VariableSelected().
class ApproxContext {
 public:
  /// Binds the context to an operator set (copied) and the kernel's variable
  /// count.
  ApproxContext(axc::OperatorSet operators, std::size_t num_variables);

  /// Installs the configuration for subsequent operations, compiles the
  /// operator plan, and clears counts. Throws std::invalid_argument if
  /// indices/variable count don't match the bound operator set / variable
  /// count.
  void Configure(const ApproxSelection& selection);

  /// Active configuration.
  const ApproxSelection& Selection() const noexcept { return selection_; }

  /// Operation counts accumulated since the last Configure()/ResetCounts().
  const energy::OpCounts& Counts() const noexcept { return counts_; }

  /// Clears operation counts only.
  void ResetCounts() noexcept { counts_ = {}; }

  /// True if variable `var` is approximated under the active selection.
  /// Bounds-checked: throws std::out_of_range for var >= NumVariables().
  bool IsApproximated(std::size_t var) const {
    return selection_.VariableSelected(var);
  }

  /// True when any listed variable is selected — the per-op approximation
  /// decision. Public so kernels can resolve a variable group once and then
  /// run a loop of *Resolved ops (see DESIGN notes in the header comment).
  bool AnyApproximated(VarList vars) const noexcept {
    const std::uint64_t* mask = selection_.MaskWords().data();
    for (const std::size_t v : vars) {
      assert(v < num_variables_ && "ApproxContext: variable id out of range");
      if ((mask[v >> 6] >> (v & 63)) & 1ULL) return true;
    }
    return false;
  }

  /// Signed addition on the given variables. Counted as one add.
  std::int64_t Add(std::int64_t a, std::int64_t b, VarList vars) noexcept {
    return AddResolved(AnyApproximated(vars), a, b);
  }

  /// Signed multiplication on the given variables. Counted as one mul.
  std::int64_t Mul(std::int64_t a, std::int64_t b, VarList vars) noexcept {
    return MulResolved(AnyApproximated(vars), a, b);
  }

  /// Signed addition with a pre-resolved approximation decision (from
  /// AnyApproximated, hoisted out of the caller's loop). Counted as one add.
  std::int64_t AddResolved(bool approx, std::int64_t a,
                           std::int64_t b) noexcept {
    counts_.AccumulateAdds(approx, 1);
    return axc::DispatchAddSigned(plan_.add[approx], a, b);
  }

  /// Signed multiplication with a pre-resolved decision. Counted as one mul.
  std::int64_t MulResolved(bool approx, std::int64_t a,
                           std::int64_t b) noexcept {
    counts_.AccumulateMuls(approx, 1);
    return axc::DispatchMulSigned(plan_.mul[approx], a, b);
  }

  /// Batched MAC: returns the chained accumulation
  ///   acc = Add(acc, Mul(a[i*stride_a], b[i*stride_b]))  for i in [0, n)
  /// with the multiply approximated when any of `mul_vars` is selected and
  /// the accumulation when any of `add_vars` is — both decisions and the
  /// operator dispatch are resolved once, and counts are credited `+= n`.
  /// Bit-identical to the equivalent loop of Mul()/Add() calls (operand
  /// order preserved: element product first operand is `a`, accumulation
  /// first operand is the running `acc`).
  ///
  /// When both element types are unsigned the whole chain is provably
  /// non-negative (all catalog data widths keep magnitudes far below 2^63),
  /// so the sign-magnitude wrappers reduce to the identity and the inner
  /// loop runs on raw magnitudes.
  template <class A, class B>
  std::int64_t DotAccumulate(std::int64_t acc, const A* a,
                             std::size_t stride_a, const B* b,
                             std::size_t stride_b, std::size_t n,
                             VarList mul_vars, VarList add_vars) noexcept {
    static_assert(std::is_integral_v<A> && std::is_integral_v<B>,
                  "DotAccumulate operates on integral element types");
    if (n == 0) return acc;
    const bool mul_approx = AnyApproximated(mul_vars);
    const bool add_approx = AnyApproximated(add_vars);
    counts_.AccumulateMuls(mul_approx, n);
    counts_.AccumulateAdds(add_approx, n);
    return detail::DotChain(plan_, mul_approx, add_approx, acc, a, stride_a,
                            b, stride_b, n);
  }

  /// Batched AXPY: y[i] = Add(y[i], Mul(alpha, x[i])) for i in [0, n) —
  /// `alpha` is the product's FIRST operand (asymmetric families care).
  /// Selection resolution, dispatch, and counting are hoisted exactly like
  /// DotAccumulate; bit-identical to the equivalent scalar loop.
  template <class X>
  void AxpyAccumulate(std::int64_t* y, const X* x, std::size_t n,
                      std::int64_t alpha, VarList mul_vars,
                      VarList add_vars) noexcept {
    static_assert(std::is_integral_v<X>,
                  "AxpyAccumulate operates on integral element types");
    if (n == 0) return;
    const bool mul_approx = AnyApproximated(mul_vars);
    const bool add_approx = AnyApproximated(add_vars);
    counts_.AccumulateMuls(mul_approx, n);
    counts_.AccumulateAdds(add_approx, n);
    detail::AxpyChain(plan_.mul[mul_approx], plan_.add[add_approx], y, x, n,
                      alpha);
  }

  /// Batched accumulation of memoized products: y[i] = Add(y[i], p[i]) for
  /// i in [0, n). The caller guarantees p[i] equals the product
  /// Mul(alpha, x[i]) that AxpyAccumulate with the same `mul_vars` would
  /// compute under this context's plan. Resolution and counting (`n` muls,
  /// `n` adds) match AxpyAccumulate, so outputs and Counts() are
  /// bit-identical to it; only the multiplies themselves are skipped.
  void AccumulateProducts(std::int64_t* y, const std::int64_t* p,
                          std::size_t n, VarList mul_vars,
                          VarList add_vars) noexcept {
    if (n == 0) return;
    const bool mul_approx = AnyApproximated(mul_vars);
    const bool add_approx = AnyApproximated(add_vars);
    counts_.AccumulateMuls(mul_approx, n);
    counts_.AccumulateAdds(add_approx, n);
    detail::WithSignedAdd(plan_.add[add_approx], [&](auto add) {
      AXDSE_SIMD_LOOP
      for (std::size_t i = 0; i < n; ++i) y[i] = add(y[i], p[i]);
    });
  }

  /// Dot-form sibling of AccumulateProducts: returns the chained
  ///   acc = Add(acc, p[i])  for i in [0, n)
  /// where the caller guarantees p[i] equals the product Mul(a[i], b[i])
  /// that DotAccumulate with the same `mul_vars` would compute under this
  /// context's plan. Resolution and counting (`n` muls, `n` adds) match
  /// DotAccumulate, so the result and Counts() are bit-identical to it.
  std::int64_t SumProducts(std::int64_t acc, const std::int64_t* p,
                           std::size_t n, VarList mul_vars,
                           VarList add_vars) noexcept {
    if (n == 0) return acc;
    const bool mul_approx = AnyApproximated(mul_vars);
    const bool add_approx = AnyApproximated(add_vars);
    counts_.AccumulateMuls(mul_approx, n);
    counts_.AccumulateAdds(add_approx, n);
    if (plan_.add[add_approx].code == axc::AddOpCode::kExact) {
      // Modular uint64 addition: the vectorized reduction reorders
      // bit-identically.
      std::uint64_t uacc = static_cast<std::uint64_t>(acc);
      AXDSE_SIMD_REDUCTION(uacc)
      for (std::size_t i = 0; i < n; ++i)
        uacc += static_cast<std::uint64_t>(p[i]);
      return static_cast<std::int64_t>(uacc);
    }
    // Approximate adds are not associative: strict element order.
    return axc::WithAddOp(plan_.add[add_approx], [&](auto add) {
      std::int64_t sum = acc;
      for (std::size_t i = 0; i < n; ++i)
        sum = axc::ops::SignedAdd(add, sum, p[i]);
      return sum;
    });
  }

  /// Number of kernel variables this context was built for.
  std::size_t NumVariables() const noexcept { return num_variables_; }

  /// The bound operator set.
  const axc::OperatorSet& Operators() const noexcept { return operators_; }

  /// The operator plan compiled by the last Configure() ([0] precise,
  /// [1] approximate) — exposed for dispatch-equivalence tests and benches.
  const axc::OperatorPlan& Plan() const noexcept { return plan_; }

 private:
  axc::OperatorSet operators_;
  std::size_t num_variables_;
  ApproxSelection selection_;
  energy::OpCounts counts_;
  // Compiled once per Configure(): POD descriptors for the precise and the
  // selected approximate operator pair.
  axc::OperatorPlan plan_;
};

}  // namespace axdse::instrument
