#pragma once
// 2D convolution kernel (extension workload): a 3x3 integer stencil over a
// synthetic 8-bit image — the kind of image-processing workload the AxC
// literature motivates (blur/sharpen under approximation).

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/product_memo.hpp"
#include "workloads/kernel.hpp"

namespace axdse::workloads {

/// out(y,x) = sum_{dy,dx} image(y+dy, x+dx) * stencil(dy,dx) over the valid
/// interior (no padding). 8-bit data, 8-bit operator set.
/// Variables: "image", "stencil", "acc", plus one variable per image row
/// band when `row_bands > 1`.
///
/// Pixels and weights are fixed kernel data, so runs add each output's nine
/// products, dy-major, from an instrument::ProductMemo plane (above its cap
/// and in the all-precise golden run the MAC chains stay).
class Conv2DKernel final : public Kernel {
 public:
  /// A `height` x `width` random image convolved with a fixed 3x3 smoothing
  /// stencil (1 2 1 / 2 4 2 / 1 2 1). `row_bands` >= 1 splits the image rows
  /// into bands with one selection variable each.
  /// Throws std::invalid_argument if the image is smaller than 3x3 or
  /// row_bands is 0 or exceeds the output height.
  Conv2DKernel(std::size_t height, std::size_t width, std::size_t row_bands,
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

  std::size_t VarOfStencil() const noexcept { return row_bands_; }
  std::size_t VarOfAccumulator() const noexcept { return row_bands_ + 1; }
  /// Variable covering output row `y`.
  std::size_t VarOfRow(std::size_t y) const noexcept;

  std::size_t Height() const noexcept { return height_; }
  std::size_t Width() const noexcept { return width_; }

  /// Data accessors (for tests): image pixel and 3x3 stencil weight.
  std::uint8_t Pixel(std::size_t y, std::size_t x) const {
    return image_[y * width_ + x];
  }
  std::uint8_t StencilWeight(std::size_t dy, std::size_t dx) const {
    return stencil_[dy * 3 + dx];
  }

 private:
  std::size_t height_;
  std::size_t width_;
  std::size_t row_bands_;
  std::string name_;
  std::vector<std::uint8_t> image_;
  /// 3x3 smoothing weights {1,2,4}; stored narrow so the batched MAC takes
  /// the unsigned fast path (pixel and weight are both provably
  /// non-negative).
  std::vector<std::uint8_t> stencil_;
  std::vector<VariableInfo> variables_;
  axc::OperatorSet operators_;
  instrument::ProductMemo products_;  ///< [(y * out_cols + x) * 9 + dy*3+dx]
};

}  // namespace axdse::workloads
