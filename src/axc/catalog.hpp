#pragma once
// The EvoApprox-named operator catalog: every operator the paper selected
// (Tables I and II) as a record of its *published* characterization (MRED %,
// power mW, computation time ns) and the descriptor of the calibrated
// behavioral family standing in for the original netlist. README
// "Operators" gives the substitution argument; bench/table1_adders and
// bench/table2_multipliers print published next to measured MRED.
//
// Both per-width lists are ordered by increasing published MRED — exactly the
// ordering the paper's environment assumes ("Both sets are sorted by
// increasing accuracy degradation"), so index 0 is the exact operator and the
// last index is the most aggressive one.

#include <string>
#include <vector>

#include "axc/execution_plan.hpp"

namespace axdse::axc {

/// One named adder: published characterization + behavioral operator.
struct AdderSpec {
  std::string name;        ///< catalog name, e.g. "8-bit adder 6PT"
  std::string type_code;   ///< the paper's "Type" column, e.g. "6PT"
  int bits = 0;            ///< nominal operand width
  double published_mred_pct = 0.0;  ///< Table I MRED column (percent)
  double power_mw = 0.0;            ///< Table I power column (mW)
  double time_ns = 0.0;             ///< Table I computation-time column (ns)
  AddOpDescriptor op;               ///< calibrated behavioral substitute
};

/// One named multiplier: published characterization + behavioral operator.
struct MultiplierSpec {
  std::string name;
  std::string type_code;
  int bits = 0;
  double published_mred_pct = 0.0;  ///< Table II MRED column (percent)
  double power_mw = 0.0;
  double time_ns = 0.0;
  MulOpDescriptor op;               ///< calibrated behavioral substitute
};

/// The adder/multiplier sets one benchmark explores over. The paper pairs
/// 8-bit adders with 8-bit multipliers for Matrix Multiplication and 16-bit
/// adders with 32-bit multipliers for FIR.
struct OperatorSet {
  std::string name;                       ///< e.g. "add8/mul8"
  std::vector<AdderSpec> adders;          ///< ordered, index 0 exact
  std::vector<MultiplierSpec> multipliers;///< ordered, index 0 exact

  /// Number of adder choices (paper's N_add).
  std::size_t AdderCount() const noexcept { return adders.size(); }
  /// Number of multiplier choices (paper's N_mul).
  std::size_t MultiplierCount() const noexcept { return multipliers.size(); }

  /// Compiles one configuration: [0] the precise (index 0) operators, [1]
  /// the selected ones, with their 8-bit product tables resolved (built on
  /// first use). Indices must be in range.
  OperatorPlan Compile(std::size_t adder_index,
                       std::size_t multiplier_index) const;
};

/// Immutable catalog of all operators from the paper's Tables I and II.
class EvoApproxCatalog {
 public:
  /// The process-wide immutable instance.
  static const EvoApproxCatalog& Instance();

  /// Table I, 8-bit rows: 1HG, 6PT, 6R6, 0TP, 00M, 02Y.
  const std::vector<AdderSpec>& Adders8() const noexcept { return adders8_; }
  /// Table I, 16-bit rows: 1A5, 0GN, 0BC, 0HE, 0SL, 067.
  const std::vector<AdderSpec>& Adders16() const noexcept { return adders16_; }
  /// Table II, 8-bit rows: 1JJQ, 4X5, GTR, L93, 18UH, 17MJ.
  const std::vector<MultiplierSpec>& Multipliers8() const noexcept {
    return multipliers8_;
  }
  /// Table II, 32-bit rows: precise, 000, 018, 043, 053, 067.
  const std::vector<MultiplierSpec>& Multipliers32() const noexcept {
    return multipliers32_;
  }

  /// Operator set used by the Matrix Multiplication benchmarks (8-bit data).
  OperatorSet MatMulSet() const;
  /// Operator set used by the FIR benchmarks (Q15 data, 32-bit products).
  OperatorSet FirSet() const;

  EvoApproxCatalog(const EvoApproxCatalog&) = delete;
  EvoApproxCatalog& operator=(const EvoApproxCatalog&) = delete;

 private:
  EvoApproxCatalog();

  std::vector<AdderSpec> adders8_;
  std::vector<AdderSpec> adders16_;
  std::vector<MultiplierSpec> multipliers8_;
  std::vector<MultiplierSpec> multipliers32_;
};

}  // namespace axdse::axc
