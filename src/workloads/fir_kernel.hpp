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
// changes between runs. The kernel keeps one table per approximate
// multiplier of its operator set,
//   products[m][k * samples + i] == DispatchMulSigned(desc_m, h[k], x[i]),
// built on first use under std::call_once (the engine runs one instance
// from several workers at once), and Run() feeds an approximate tap's row
// to ApproxContext::AccumulateProducts instead of multiplying again.
// Outputs and op counts are bit-identical to the AxpyAccumulate path. A tap
// keeps AxpyAccumulate when
//   * its multiply is precise, or the selected multiplier is the exact one
//     (a*b is cheaper than a load, so the exact multiplier gets no table);
//   * taps * samples > kMaxTableProducts, the memory cap (512 KiB of
//     int64 products per table);
//   * the context's plan descriptor for the selected multiplier differs
//     from the kernel's, e.g. a context bound to another operator set.
// The all-precise golden run therefore builds nothing, and construction
// does no extra work.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

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

  /// Largest taps * samples that gets product tables (see file comment).
  static constexpr std::size_t kMaxTableProducts = 65536;

 private:
  /// Memoized products of one multiplier; written once under `built`.
  struct ProductTable {
    std::once_flag built;
    std::vector<std::int64_t> products;  ///< [k * NumSamples() + i]
  };

  /// The context's selected-multiplier product table, built on first use,
  /// or null when the fallback rules send approximate taps through
  /// AxpyAccumulate.
  const std::int64_t* ApproxProducts(
      const instrument::ApproxContext& ctx) const;

  FirGranularity granularity_;
  std::string name_;
  std::vector<std::int32_t> x_;  ///< Q15 input samples
  std::vector<std::int32_t> h_;  ///< Q15 coefficients
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
  /// One per operator-set multiplier; empty above kMaxTableProducts.
  mutable std::vector<ProductTable> tables_;
};

}  // namespace axdse::workloads
