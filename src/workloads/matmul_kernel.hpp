#pragma once
// Matrix Multiplication benchmark (paper: 10x10 and 50x50, 8-bit data paired
// with the 8-bit adder/multiplier sets).

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/product_memo.hpp"
#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// Granularity at which the DSE can select variables for approximation.
enum class MatMulGranularity {
  /// Three variables: the whole of A, the whole of B, the accumulator.
  kPerMatrix,
  /// 2n+1 variables: each row of A, each column of B, plus the accumulator —
  /// the granularity that reproduces the paper's partially-approximated
  /// 50x50 exploration. The paper does not state its granularity; this one
  /// is inferred (README "Inferred parameters").
  kRowCol,
};

/// C = A * B on n-by-n matrices of uniformly random 8-bit unsigned entries.
///
/// A multiplication a[i][k]*b[k][j] is approximated when the variable that
/// covers a's row i or b's column j is selected; the accumulation add is
/// approximated when the accumulator variable is selected. Outputs are the
/// n*n entries of C in row-major order.
///
/// Every product a[i][k]*b[k][j] multiplies fixed kernel data, so runs add
/// them from an instrument::ProductMemo plane laid out [(i*n + j)*n + k]
/// (up to n = 40; larger kernels and the all-precise golden run keep the
/// MAC chains, see instrument/product_memo.hpp).
class MatMulKernel final : public Kernel {
 public:
  /// Builds the kernel with deterministic inputs drawn from `seed`.
  /// Throws std::invalid_argument if n == 0.
  MatMulKernel(std::size_t n, MatMulGranularity granularity,
               std::uint64_t seed);

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

  std::size_t Size() const noexcept { return n_; }
  MatMulGranularity Granularity() const noexcept { return granularity_; }

  /// Variable index covering row i of A / column j of B / the accumulator.
  std::size_t VarOfARow(std::size_t i) const noexcept;
  std::size_t VarOfBCol(std::size_t j) const noexcept;
  std::size_t VarOfAccumulator() const noexcept;

  /// Element accessors (for tests).
  std::uint8_t A(std::size_t i, std::size_t k) const {
    return a_[i * n_ + k];
  }
  std::uint8_t B(std::size_t k, std::size_t j) const {
    return b_[k * n_ + j];
  }

 private:
  std::size_t n_;
  MatMulGranularity granularity_;
  std::string name_;
  std::vector<std::uint8_t> a_;
  std::vector<std::uint8_t> b_;
  std::vector<std::uint8_t> bt_;  ///< B transposed (unit-stride MAC chains)
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
  instrument::ProductMemo products_;  ///< [(i * n + j) * n + k]
};

}  // namespace axdse::workloads
