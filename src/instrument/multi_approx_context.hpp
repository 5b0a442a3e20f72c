#pragma once
// Lane-parallel instrumentation context: scores up to kMaxLanes candidate
// ApproxSelections of ONE kernel in a single pass over the kernel's inputs.
// Values flow through the kernel in structure-of-arrays form (`Lanes`: one
// accumulator per candidate), so the input traversal, index math, and
// control flow are paid once for the whole batch.
//
// Dedup is dataflow-level: every Lanes value carries an equality partition
// `rep` over the active lanes — rep[l] is the smallest lane whose value
// history is provably identical to lane l's. Each primitive refines the
// incoming partition(s) with the per-lane operator descriptors it actually
// dispatches — by CONTENT identity, not the approx decision bit, so a lane
// whose selected "approximate" operator resolves to the same descriptor as
// the precise one merges with the precise lanes — and then computes each
// group once through its representative lane (via the shared MAC chains in
// instrument/mac_chains.hpp, so group arithmetic is bit-identical to the
// scalar ApproxContext by construction). Sibling configurations produced by
// an RL random walk typically resolve to 2–4 distinct descriptor pairs, so
// most lanes ride along for a broadcast copy.
//
// Per-lane OpCounts are accumulated with each lane's OWN decision and the
// full element count, independent of grouping: Counts(l) is exactly what a
// scalar ApproxContext configured with Selection(l) would report.
//
// Not thread-safe (one context per running evaluation), same as the scalar
// context.

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "axc/catalog.hpp"
#include "axc/execution_plan.hpp"
#include "energy/energy_model.hpp"
#include "instrument/approx_selection.hpp"
#include "instrument/approx_context.hpp"
#include "instrument/mac_chains.hpp"

namespace axdse::instrument {

class MultiApproxContext {
 public:
  /// Maximum candidate configurations per pass. Eight keeps `Lanes` at one
  /// cache line of values plus a word of partition, and matches the widest
  /// profitable batch observed on the Table-3 grids.
  static constexpr std::size_t kMaxLanes = 8;

  /// Canonical lane partition: rep[l] = smallest active lane whose value
  /// history is identical to lane l's (rep[l] <= l, rep[rep[l]] == rep[l]).
  /// Entries for inactive lanes are 0 so partitions compare as one uint64.
  using Partition = std::array<std::uint8_t, kMaxLanes>;

  /// A lane-parallel signed value: per-lane payloads plus the equality
  /// partition they carry. Kernels may transform `v` lane-wise with any
  /// deterministic pure function (negate, shift, abs, scale...) — that
  /// preserves the partition invariant, so keep `rep` untouched.
  struct Lanes {
    std::array<std::int64_t, kMaxLanes> v{};
    Partition rep{};
  };

  /// Binds the context to an operator set (copied) and the kernel's variable
  /// count; starts configured with one all-precise lane.
  MultiApproxContext(axc::OperatorSet operators, std::size_t num_variables);

  /// Installs `num_lanes` (1..kMaxLanes) candidate selections, compiles one
  /// operator plan per lane, canonicalizes descriptor identities across
  /// lanes for the dedup partitions, and clears all per-lane counts. Throws
  /// std::invalid_argument exactly where the scalar Configure would (lane
  /// count, variable count, operator indices).
  void Configure(const ApproxSelection* selections, std::size_t num_lanes);
  void Configure(const std::vector<ApproxSelection>& selections) {
    Configure(selections.data(), selections.size());
  }

  std::size_t NumLanes() const noexcept { return num_lanes_; }
  std::size_t NumVariables() const noexcept { return num_variables_; }
  const axc::OperatorSet& Operators() const noexcept { return operators_; }

  /// Lane `lane`'s active selection / accumulated counts.
  const ApproxSelection& Selection(std::size_t lane) const {
    assert(lane < num_lanes_);
    return selections_[lane];
  }
  const energy::OpCounts& Counts(std::size_t lane) const {
    assert(lane < num_lanes_);
    FlushDotCharges();
    return counts_[lane];
  }

  /// Per-lane approximation decision for one variable group: bit l is set
  /// when lane l approximates an op touching these variables. The lane
  /// counterpart of ApproxContext::AnyApproximated — kernels hoist it out
  /// of loops the same way.
  std::uint64_t ApproxLaneMask(VarList vars) const noexcept {
    std::uint64_t mask = 0;
    for (const std::size_t v : vars) {
      assert(v < num_variables_ &&
             "MultiApproxContext: variable id out of range");
      mask |= var_lane_mask_[v];
    }
    return mask;
  }

  /// All lanes carrying the same value: one dedup group.
  Lanes Broadcast(std::int64_t value) const noexcept {
    Lanes out;
    for (std::size_t l = 0; l < num_lanes_; ++l) out.v[l] = value;
    return out;
  }

  /// Lane-parallel signed addition with a pre-resolved per-lane decision
  /// mask (from ApproxLaneMask). Counted as one add per lane.
  Lanes AddResolved(std::uint64_t approx_mask, const Lanes& a,
                    const Lanes& b) noexcept {
    std::uint16_t keys[kMaxLanes];
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      const bool ap = (approx_mask >> l) & 1;
      keys[l] = add_id_[l][ap];
      counts_[l].AccumulateAdds(ap, 1);
    }
    Lanes out;
    MeetPair(a.rep, b.rep, keys, out.rep);
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      AssertGrouped(a, l);
      AssertGrouped(b, l);
      if (out.rep[l] == l) {
        out.v[l] = axc::DispatchAddSigned(plans_[l].add[(approx_mask >> l) & 1],
                                          a.v[l], b.v[l]);
      } else {
        out.v[l] = out.v[out.rep[l]];
      }
    }
    return out;
  }

  /// Lane-parallel signed multiplication, pre-resolved decision mask.
  Lanes MulResolved(std::uint64_t approx_mask, const Lanes& a,
                    const Lanes& b) noexcept {
    std::uint16_t keys[kMaxLanes];
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      const bool ap = (approx_mask >> l) & 1;
      keys[l] = mul_id_[l][ap];
      counts_[l].AccumulateMuls(ap, 1);
    }
    Lanes out;
    MeetPair(a.rep, b.rep, keys, out.rep);
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      AssertGrouped(a, l);
      AssertGrouped(b, l);
      if (out.rep[l] == l) {
        out.v[l] = axc::DispatchMulSigned(plans_[l].mul[(approx_mask >> l) & 1],
                                          a.v[l], b.v[l]);
      } else {
        out.v[l] = out.v[out.rep[l]];
      }
    }
    return out;
  }

  /// Convenience forms resolving the variable group per call.
  Lanes Add(const Lanes& a, const Lanes& b, VarList vars) noexcept {
    return AddResolved(ApproxLaneMask(vars), a, b);
  }
  Lanes Mul(const Lanes& a, const Lanes& b, VarList vars) noexcept {
    return MulResolved(ApproxLaneMask(vars), a, b);
  }

  /// Lane-parallel batched MAC over SHARED operands and a shared scalar
  /// start value: per lane,
  ///   acc_l = Add_l(acc_l, Mul_l(a[i*stride_a], b[i*stride_b]))
  /// for i in [0, n). The partition is rebuilt per call purely from the
  /// resolved descriptor pairs (the inputs and the start value are shared,
  /// so value history cannot split lanes further) — this is the primitive
  /// where dedup pays: one DotChain per distinct descriptor pair.
  template <class A, class B>
  Lanes DotAccumulate(std::int64_t acc, const A* a, std::size_t stride_a,
                      const B* b, std::size_t stride_b, std::size_t n,
                      VarList mul_vars, VarList add_vars) noexcept {
    if (n == 0) return Broadcast(acc);
    const std::uint64_t mm = ApproxLaneMask(mul_vars);
    const std::uint64_t am = ApproxLaneMask(add_vars);
    const DotPlan& plan = PlanFor(mm, am, n);
    Lanes out;
    out.rep = plan.rep;
    for (std::size_t g = 0; g < plan.num_groups; ++g) {
      const std::size_t l = plan.groups[g];
      out.v[l] = detail::DotChain(plans_[l], (mm >> l) & 1, (am >> l) & 1,
                                  acc, a, stride_a, b, stride_b, n);
    }
    AXDSE_SIMD_LOOP
    for (std::size_t l = 0; l < num_lanes_; ++l) out.v[l] = out.v[out.rep[l]];
    return out;
  }

  /// Chained variant: the start value is itself lane-parallel (conv2d's
  /// row-by-row accumulation). The partition is the meet of the incoming
  /// accumulator's partition with the per-call descriptor keys.
  template <class A, class B>
  Lanes DotAccumulate(const Lanes& acc, const A* a, std::size_t stride_a,
                      const B* b, std::size_t stride_b, std::size_t n,
                      VarList mul_vars, VarList add_vars) noexcept {
    if (n == 0) return acc;
    const std::uint64_t mm = ApproxLaneMask(mul_vars);
    const std::uint64_t am = ApproxLaneMask(add_vars);
    const DotPlan& plan = PlanFor(mm, am, n);
    Lanes out;
    MeetWithKeys(acc.rep, plan.keys, out.rep);
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      AssertGrouped(acc, l);
      if (out.rep[l] == l) {
        out.v[l] = detail::DotChain(plans_[l], (mm >> l) & 1, (am >> l) & 1,
                                    acc.v[l], a, stride_a, b, stride_b, n);
      } else {
        out.v[l] = out.v[out.rep[l]];
      }
    }
    return out;
  }

  /// Dot whose A operand is lane-parallel per element (dct's second pass
  /// reads the first pass's intermediates): groups lanes that agree on the
  /// descriptors AND on every element's partition, then gathers the
  /// representative's element values into a contiguous scratch so the
  /// shared DotChain runs unchanged.
  template <class B>
  Lanes DotAccumulate(std::int64_t acc, const Lanes* a, const B* b,
                      std::size_t stride_b, std::size_t n, VarList mul_vars,
                      VarList add_vars) noexcept {
    if (n == 0) return Broadcast(acc);
    const std::uint64_t mm = ApproxLaneMask(mul_vars);
    const std::uint64_t am = ApproxLaneMask(add_vars);
    const DotPlan& plan = PlanFor(mm, am, n);
    const std::uint16_t* keys = plan.keys;
    Lanes out;
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      std::uint8_t r = static_cast<std::uint8_t>(l);
      for (std::size_t m = 0; m < l; ++m) {
        if (keys[m] != keys[l]) continue;
        bool same = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (a[i].rep[m] != a[i].rep[l]) {
            same = false;
            break;
          }
        }
        if (same) {
          r = static_cast<std::uint8_t>(m);
          break;
        }
      }
      out.rep[l] = r;
    }
    gather_buf_.resize(n);
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      if (out.rep[l] != l) {
        out.v[l] = out.v[out.rep[l]];
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) gather_buf_[i] = a[i].v[l];
      out.v[l] = detail::DotChain(plans_[l], (mm >> l) & 1, (am >> l) & 1,
                                  acc, gather_buf_.data(), std::size_t{1}, b,
                                  stride_b, n);
    }
    return out;
  }

  /// Dot over per-lane operand arrays of per-lane lengths, sharing a
  /// caller-tracked operand partition (kmeans' inertia pass: each lane's
  /// scratch is its cluster's member diffs, and lanes grouped by
  /// `operand_rep` point at the SAME buffer). Counts are charged with each
  /// lane's own length.
  Lanes DotAccumulate(std::int64_t acc,
                      const std::array<const std::int64_t*, kMaxLanes>& a,
                      const std::array<const std::int64_t*, kMaxLanes>& b,
                      const std::array<std::size_t, kMaxLanes>& n,
                      const Partition& operand_rep, VarList mul_vars,
                      VarList add_vars) noexcept {
    const std::uint64_t mm = ApproxLaneMask(mul_vars);
    const std::uint64_t am = ApproxLaneMask(add_vars);
    std::uint16_t keys[kMaxLanes];
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      const bool mb = (mm >> l) & 1;
      const bool ab = (am >> l) & 1;
      keys[l] = key_[l][ab][mb];
      counts_[l].AccumulateMuls(mb, n[l]);
      counts_[l].AccumulateAdds(ab, n[l]);
    }
    Lanes out;
    MeetWithKeys(operand_rep, keys, out.rep);
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      if (out.rep[l] == l) {
        out.v[l] = detail::DotChain(plans_[l], (mm >> l) & 1, (am >> l) & 1,
                                    acc, a[l], std::size_t{1}, b[l],
                                    std::size_t{1}, n[l]);
      } else {
        assert(n[l] == n[out.rep[l]] && a[l] == a[out.rep[l]] &&
               b[l] == b[out.rep[l]] &&
               "per-lane dot: grouped lanes must share operands");
        out.v[l] = out.v[out.rep[l]];
      }
    }
    return out;
  }

  /// Lane-parallel batched AXPY over an array of lane values:
  ///   y[i] = Add_l(y[i], Mul_l(alpha, x[i]))  for i in [0, n).
  /// Entry partitions generally differ along the array (fir's tap-major
  /// accumulation touches a growing prefix), so entries are processed in
  /// runs of identical incoming partitions with the operator switch hoisted
  /// per run and group.
  template <class X>
  void AxpyAccumulate(Lanes* y, const X* x, std::size_t n, std::int64_t alpha,
                      VarList mul_vars, VarList add_vars) noexcept {
    if (n == 0) return;
    const std::uint64_t mm = ApproxLaneMask(mul_vars);
    const std::uint64_t am = ApproxLaneMask(add_vars);
    const DotPlan& plan = PlanFor(mm, am, n);
    const std::uint16_t* keys = plan.keys;
    const bool alpha_neg = alpha < 0;
    const std::uint64_t alpha_mag = axc::ops::UnsignedMagnitude(alpha);
    std::size_t i = 0;
    while (i < n) {
      std::size_t end = i + 1;
      while (end < n && RepBits(y[end].rep) == RepBits(y[i].rep)) ++end;
      // Check the incoming invariant before the compute below overwrites
      // the representatives' values (a lane the meet splits off then no
      // longer equals its old representative).
      for (std::size_t j = i; j < end; ++j) AssertGroupedBy(y[j], y[j].rep);
      Partition pi{};
      MeetWithKeys(y[i].rep, keys, pi);
      for (std::size_t l = 0; l < num_lanes_; ++l) {
        if (pi[l] != l) continue;
        axc::WithMulOp(plans_[l].mul[(mm >> l) & 1], [&](auto mul) {
          axc::WithAddOp(plans_[l].add[(am >> l) & 1], [&](auto add) {
            for (std::size_t j = i; j < end; ++j) {
              const std::int64_t xv = static_cast<std::int64_t>(x[j]);
              const std::uint64_t mag =
                  mul(alpha_mag, axc::ops::UnsignedMagnitude(xv));
              const std::int64_t product =
                  axc::ops::ApplySign(alpha_neg != (xv < 0), mag);
              y[j].v[l] = axc::ops::SignedAdd(add, y[j].v[l], product);
            }
          });
        });
      }
      for (std::size_t j = i; j < end; ++j) {
        y[j].rep = pi;
        for (std::size_t l = 0; l < num_lanes_; ++l) y[j].v[l] = y[j].v[pi[l]];
      }
      i = end;
    }
  }

 private:
  /// Partitions compare as one machine word.
  static std::uint64_t RepBits(const Partition& p) noexcept {
    return std::bit_cast<std::uint64_t>(p);
  }

  /// rep[l] = first lane with the same per-call key.
  void PartitionFromKeys(const std::uint16_t* keys,
                         Partition& out) const noexcept {
    out = {};
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      std::uint8_t r = static_cast<std::uint8_t>(l);
      for (std::size_t m = 0; m < l; ++m) {
        if (keys[m] == keys[l]) {
          r = static_cast<std::uint8_t>(m);
          break;
        }
      }
      out[l] = r;
    }
  }

  /// Meet of an incoming partition with per-call keys: lanes group iff they
  /// were grouped before AND dispatch the same descriptors now.
  void MeetWithKeys(const Partition& p, const std::uint16_t* keys,
                    Partition& out) const noexcept {
    out = {};
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      std::uint8_t r = static_cast<std::uint8_t>(l);
      for (std::size_t m = 0; m < l; ++m) {
        if (p[m] == p[l] && keys[m] == keys[l]) {
          r = static_cast<std::uint8_t>(m);
          break;
        }
      }
      out[l] = r;
    }
  }

  /// Meet of two operand partitions with per-call keys.
  void MeetPair(const Partition& pa, const Partition& pb,
                const std::uint16_t* keys, Partition& out) const noexcept {
    out = {};
    for (std::size_t l = 0; l < num_lanes_; ++l) {
      std::uint8_t r = static_cast<std::uint8_t>(l);
      for (std::size_t m = 0; m < l; ++m) {
        if (pa[m] == pa[l] && pb[m] == pb[l] && keys[m] == keys[l]) {
          r = static_cast<std::uint8_t>(m);
          break;
        }
      }
      out[l] = r;
    }
  }

  /// Memoized per-(mul_mask, add_mask) dispatch plan for the dot/axpy
  /// primitives: the per-lane descriptor keys, the shared-operand partition
  /// they induce, its group representatives, and the lazily-charged element
  /// count. Rebuilding these per call costs as much as a short dot chain
  /// itself; one evaluation only ever sees a handful of distinct mask pairs,
  /// so they are built once per Configure and O(1)-indexed after that.
  struct DotPlan {
    std::uint16_t keys[kMaxLanes] = {};
    Partition rep{};
    std::uint8_t groups[kMaxLanes] = {};
    std::uint8_t num_groups = 0;
    std::uint64_t mm = 0;
    std::uint64_t am = 0;
    /// Elements charged through this plan since the last FlushDotCharges():
    /// each lane owes `pending_n` muls and adds under its own decision bit,
    /// exactly what eager per-call charging would have accumulated.
    mutable std::uint64_t pending_n = 0;
  };

  /// The plan for one (mul mask, add mask) pair, with `n` elements charged.
  /// Masks fit 8 bits (kMaxLanes == 8), so (mm, am) indexes a flat 64K slot
  /// table; generation stamps make Configure-time invalidation O(1).
  const DotPlan& PlanFor(std::uint64_t mm, std::uint64_t am,
                         std::size_t n) noexcept {
    static_assert(kMaxLanes <= 8, "mask pair must fit the 64K slot table");
    const std::size_t slot = (mm << 8) | am;
    if (plan_gen_[slot] == gen_) {
      const DotPlan& plan = dot_plans_[plan_slot_[slot]];
      plan.pending_n += n;
      return plan;
    }
    return BuildDotPlan(slot, mm, am, n);
  }

  const DotPlan& BuildDotPlan(std::size_t slot, std::uint64_t mm,
                              std::uint64_t am, std::size_t n) noexcept;

  /// Materializes every plan's pending element count into per-lane OpCounts
  /// (linear in the handful of live plans, so Counts() stays cheap).
  void FlushDotCharges() const noexcept {
    for (const DotPlan& plan : dot_plans_) {
      if (plan.pending_n == 0) continue;
      for (std::size_t l = 0; l < num_lanes_; ++l) {
        counts_[l].AccumulateMuls((plan.mm >> l) & 1, plan.pending_n);
        counts_[l].AccumulateAdds((plan.am >> l) & 1, plan.pending_n);
      }
      plan.pending_n = 0;
    }
  }

  /// Debug check of the dedup invariant: a lane's payload equals its
  /// representative's.
  void AssertGrouped([[maybe_unused]] const Lanes& x,
                     [[maybe_unused]] std::size_t l) const noexcept {
    assert(x.v[l] == x.v[x.rep[l]] &&
           "MultiApproxContext: partition invariant violated");
  }
  void AssertGroupedBy([[maybe_unused]] const Lanes& x,
                       [[maybe_unused]] const Partition& p) const noexcept {
#ifndef NDEBUG
    for (std::size_t l = 0; l < num_lanes_; ++l)
      assert(x.v[l] == x.v[p[l]] &&
             "MultiApproxContext: partition invariant violated");
#endif
  }

  axc::OperatorSet operators_;
  std::size_t num_variables_;
  std::size_t num_lanes_ = 1;
  std::vector<ApproxSelection> selections_;
  std::array<axc::OperatorPlan, kMaxLanes> plans_{};
  // Mutable for the lazy dot-charge flush in the const Counts() accessor.
  mutable std::array<energy::OpCounts, kMaxLanes> counts_{};
  // Live dispatch plans plus the (mm, am) -> plan index slot table.
  // plan_gen_[slot] == gen_ marks plan_slot_[slot] valid; bumping gen_
  // invalidates every slot at once (the stamp array is re-zeroed only when
  // the 16-bit generation wraps).
  mutable std::vector<DotPlan> dot_plans_;
  std::vector<std::uint16_t> plan_slot_ =
      std::vector<std::uint16_t>(std::size_t{1} << 16);
  std::vector<std::uint16_t> plan_gen_ =
      std::vector<std::uint16_t>(std::size_t{1} << 16, 0);
  std::uint16_t gen_ = 0;
  // Canonical descriptor identities, assigned by content comparison across
  // all lanes' compiled plans at Configure time: equal ids dispatch
  // identically. Index [lane][approx decision bit].
  std::array<std::array<std::uint8_t, 2>, kMaxLanes> add_id_{};
  std::array<std::array<std::uint8_t, 2>, kMaxLanes> mul_id_{};
  // Packed (add_id << 8) | mul_id per lane and per (add bit, mul bit).
  std::array<std::array<std::array<std::uint16_t, 2>, 2>, kMaxLanes> key_{};
  // Per-variable lane masks: bit l of var_lane_mask_[v] set when lane l's
  // selection includes variable v (SNIPPETS-style bit-mask hoisting).
  std::vector<std::uint64_t> var_lane_mask_;
  // Scratch for the lane-operand gather dot.
  std::vector<std::int64_t> gather_buf_;
};

}  // namespace axdse::instrument
