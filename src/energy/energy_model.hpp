#pragma once
// Power / computation-time model.
//
// The paper evaluates each approximate version from *pre-characterized*
// per-operator power (mW) and latency (ns): the cost of a run is the sum of
// the per-operation costs of every addition and multiplication it executes
// (Table III's deltas are consistent with this additive model; README
// "Inferred parameters").
// Δpower = power(precise run) - power(approximate run), likewise Δtime.

#include <cstdint>

#include "axc/catalog.hpp"

namespace axdse::energy {

/// Counts of arithmetic operations executed during one kernel run, split by
/// whether the operation went through the approximate operator or the
/// precise one (an op is approximate when any of its variables is selected).
struct OpCounts {
  std::uint64_t precise_adds = 0;
  std::uint64_t approx_adds = 0;
  std::uint64_t precise_muls = 0;
  std::uint64_t approx_muls = 0;

  std::uint64_t TotalAdds() const noexcept { return precise_adds + approx_adds; }
  std::uint64_t TotalMuls() const noexcept { return precise_muls + approx_muls; }

  /// Batched accounting: credits `n` additions to the approximate or the
  /// precise bucket in one step (the instrumented batch primitives hoist
  /// counting out of their inner loops — `+= n`, not `++` per op).
  void AccumulateAdds(bool approx, std::uint64_t n) noexcept {
    (approx ? approx_adds : precise_adds) += n;
  }
  /// Batched accounting for multiplications.
  void AccumulateMuls(bool approx, std::uint64_t n) noexcept {
    (approx ? approx_muls : precise_muls) += n;
  }

  OpCounts& operator+=(const OpCounts& other) noexcept {
    precise_adds += other.precise_adds;
    approx_adds += other.approx_adds;
    precise_muls += other.precise_muls;
    approx_muls += other.approx_muls;
    return *this;
  }
  friend bool operator==(const OpCounts&, const OpCounts&) = default;
};

/// Estimated cost of one run under the additive per-op model.
struct CostEstimate {
  double power_mw = 0.0;
  double time_ns = 0.0;
};

/// Δ between the precise run and an approximate run (positive = the
/// approximation saves power/time).
struct CostDeltas {
  double delta_power_mw = 0.0;
  double delta_time_ns = 0.0;
};

/// Maps operation counts to power/time using a catalog operator set.
/// Precise-bucket ops are billed at the exact operator (index 0); approximate
/// ops at the selected operator's published characterization.
class EnergyModel {
 public:
  /// The operator set is copied (specs hold shared immutable models, so the
  /// copy is cheap) — the model owns everything it needs.
  explicit EnergyModel(axc::OperatorSet operators);

  /// Cost of a run whose approximate ops used adder/multiplier at the given
  /// catalog indices. Throws std::out_of_range on invalid indices.
  CostEstimate Cost(const OpCounts& counts, std::size_t adder_index,
                    std::size_t multiplier_index) const;

  /// Cost of the fully precise run executing the same operation counts.
  CostEstimate PreciseCost(const OpCounts& counts) const;

  /// PreciseCost(counts) - Cost(counts, ...), component-wise.
  CostDeltas Deltas(const OpCounts& counts, std::size_t adder_index,
                    std::size_t multiplier_index) const;

  const axc::OperatorSet& Operators() const noexcept { return operators_; }

 private:
  axc::OperatorSet operators_;
};

}  // namespace axdse::energy
