#pragma once
// Dot-product kernel (extension workload): the smallest interesting
// MAC-structured benchmark; also the fast kernel used by unit tests.

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/product_memo.hpp"
#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// out[g] = sum over one block of a[i]*b[i]; the vectors are split into
/// `blocks` equal blocks so the kernel has more than one output (making MAE
/// meaningful). 8-bit data, 8-bit operator set. Variables: "a", "b", "acc".
/// Runs add the products a[i]*b[i] from an instrument::ProductMemo plane
/// (above its cap and in the all-precise golden run the MAC chains stay).
class DotProductKernel final : public Kernel {
 public:
  /// Throws std::invalid_argument if n == 0, blocks == 0, or blocks > n.
  DotProductKernel(std::size_t n, std::size_t blocks, std::uint64_t seed);

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

  std::size_t VarOfA() const noexcept { return 0; }
  std::size_t VarOfB() const noexcept { return 1; }
  std::size_t VarOfAccumulator() const noexcept { return 2; }

  /// Element accessors (for tests).
  std::uint8_t A(std::size_t i) const { return a_[i]; }
  std::uint8_t B(std::size_t i) const { return b_[i]; }
  std::size_t Length() const noexcept { return a_.size(); }
  std::size_t Blocks() const noexcept { return blocks_; }

 private:
  std::size_t blocks_;
  std::string name_;
  std::vector<std::uint8_t> a_;
  std::vector<std::uint8_t> b_;
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
  instrument::ProductMemo products_;  ///< [i]
};

}  // namespace axdse::workloads
