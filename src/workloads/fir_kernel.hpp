#pragma once
// FIR low-pass benchmark (paper: 100 and 200 white-noise samples, paired with
// the 16-bit adder and 32-bit multiplier sets).
//
// Fixed-point structure (not stated in the paper; inferred, see README
// "Inferred parameters"):
//   * input samples and coefficients are Q15 (16-bit signed),
//   * each tap product goes through the 32-bit multiplier (Q30 result),
//   * products are accumulated in Q30 by the 16-bit adder model (which
//     approximates the low bits of the accumulation — exactly the slice an
//     approximate 16-bit ALU would corrupt).
// Outputs are the per-sample accumulator values in raw Q30 ticks.
//
// Memoized tap products: every product h[k]*x[i] multiplies two fixed
// pieces of kernel data, so under a given multiplier its value never
// changes between runs. The kernel's instrument::ProductMemo keeps one
// plane per multiplier of its operator set, the exact one included,
//   plane_m[k * samples + i] == DispatchMulSigned(desc_m, h[k], x[i]),
// and Run() adds every tap's row through ApproxContext::AccumulateProducts
// instead of multiplying again, precise taps included. Outputs and op
// counts are bit-identical to the AxpyAccumulate path, which the taps keep
// when the memo answers null: above its cap of
// min(taps, samples) * samples products, for a context bound to another
// operator set, and for a selection that selects no variable — so the
// all-precise golden run builds nothing, and construction does no extra
// work (see instrument/product_memo.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/product_memo.hpp"
#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// Variable granularity for the FIR kernel.
enum class FirGranularity {
  /// Three variables: the input signal x, the coefficient array h, the
  /// accumulator.
  kPerArray,
  /// taps+2 variables: each coefficient tap h[k] separately, plus x and the
  /// accumulator.
  kPerTap,
};

/// y[i] = sum_k h[k] * x[i-k] over `num_samples` outputs (zero-padded
/// history), with h a windowed-sinc low-pass.
class FirKernel final : public Kernel {
 public:
  /// Builds the kernel: white-noise input (uniform in [-1,1), Q15) and a
  /// `taps`-tap low-pass with the given cutoff (cycles/sample).
  /// Throws std::invalid_argument on invalid sizes (see DesignLowPass).
  FirKernel(std::size_t num_samples, std::size_t taps, double cutoff,
            FirGranularity granularity, std::uint64_t seed);

  /// Paper-default configuration: 17 taps, 0.2 cutoff, per-tap granularity.
  FirKernel(std::size_t num_samples, std::uint64_t seed);

  const std::string& Name() const noexcept override;
  const axc::OperatorSet& Operators() const noexcept override {
    return operators_;
  }
  const std::vector<VariableInfo>& Variables() const noexcept override {
    return variables_;
  }
  std::vector<double> Run(instrument::ApproxContext& ctx) const override;
  bool SupportsLanes() const noexcept override { return true; }
  std::vector<double> RunLanes(
      instrument::MultiApproxContext& ctx) const override;

  std::size_t NumSamples() const noexcept { return x_.size(); }
  std::size_t Taps() const noexcept { return h_.size(); }
  FirGranularity Granularity() const noexcept { return granularity_; }

  /// Variable indices.
  std::size_t VarOfInput() const noexcept;
  std::size_t VarOfTap(std::size_t k) const noexcept;
  std::size_t VarOfAccumulator() const noexcept;

  /// Q15 data accessors (for tests).
  const std::vector<std::int32_t>& SamplesQ15() const noexcept { return x_; }
  const std::vector<std::int32_t>& CoefficientsQ15() const noexcept {
    return h_;
  }

 private:
  FirGranularity granularity_;
  std::string name_;
  std::vector<std::int32_t> x_;  ///< Q15 input samples
  std::vector<std::int32_t> h_;  ///< Q15 coefficients
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
  instrument::ProductMemo products_;  ///< [k * NumSamples() + i]
};

}  // namespace axdse::workloads
