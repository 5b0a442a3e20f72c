#pragma once
// Sobel 3x3 edge-detection kernel (campaign workload): gradient magnitude of
// a synthetic 8-bit image — the second image-processing benchmark next to
// conv2d, structured so its MACs hit the batched u8 table path while the
// gradient differences exercise signed adds.

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/product_memo.hpp"
#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// out(y,x) = |Gx| + |Gy| over the valid interior, where Gx/Gy are the Sobel
/// gradients. Each gradient is computed as the difference of two smoothed
/// 3-MAC sums with the separable weight vector (1 2 1):
///   Gx = smooth(column x+2) - smooth(column x)
///   Gy = smooth(row y+2)    - smooth(row y)
/// 8-bit data and weights (batched u8 MACs, strided for Gx, contiguous for
/// Gy), signed adds for the differences and the magnitude.
/// Variables: one per image row band, "kx", "ky", "acc".
///
/// Pixels and weights are fixed kernel data, so runs add each output's four
/// 3-product sums (Gx+, Gx-, Gy+, Gy-) from an instrument::ProductMemo
/// plane (above its cap and in the all-precise golden run the MAC chains
/// stay).
class SobelKernel final : public Kernel {
 public:
  /// A `height` x `width` random 8-bit image. `row_bands` >= 1 splits the
  /// output rows into bands with one selection variable each.
  /// Throws std::invalid_argument if the image is smaller than 3x3 or
  /// row_bands is 0 or exceeds the output height.
  SobelKernel(std::size_t height, std::size_t width, std::size_t row_bands,
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

  std::size_t VarOfKx() const noexcept { return row_bands_; }
  std::size_t VarOfKy() const noexcept { return row_bands_ + 1; }
  std::size_t VarOfAccumulator() const noexcept { return row_bands_ + 2; }
  /// Variable covering output row `y`.
  std::size_t VarOfRow(std::size_t y) const noexcept;

  std::size_t Height() const noexcept { return height_; }
  std::size_t Width() const noexcept { return width_; }

  /// Data accessors (for tests): image pixel and smoothing weight (1 2 1).
  std::uint8_t Pixel(std::size_t y, std::size_t x) const {
    return image_[y * width_ + x];
  }
  std::uint8_t SmoothWeight(std::size_t i) const { return smooth_[i]; }

 private:
  std::size_t height_;
  std::size_t width_;
  std::size_t row_bands_;
  std::string name_;
  std::vector<std::uint8_t> image_;
  /// Separable Sobel smoothing weights {1, 2, 1}; stored narrow so the
  /// batched MACs take the u8 table path.
  std::vector<std::uint8_t> smooth_;
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
  instrument::ProductMemo products_;  ///< [((y * out_cols + x) * 4 + g) * 3]
};

}  // namespace axdse::workloads
