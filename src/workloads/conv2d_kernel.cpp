#include "workloads/conv2d_kernel.hpp"

#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"

namespace axdse::workloads {

Conv2DKernel::Conv2DKernel(std::size_t height, std::size_t width,
                           std::size_t row_bands, std::uint64_t seed)
    : height_(height),
      width_(width),
      row_bands_(row_bands),
      name_("conv2d-" + std::to_string(height) + "x" + std::to_string(width)),
      stencil_({1, 2, 1, 2, 4, 2, 1, 2, 1}),
      operators_(axc::EvoApproxCatalog::Instance().MatMulSet()),
      products_(operators_, {height - 2, width - 2, 9}) {
  if (height < 3 || width < 3)
    throw std::invalid_argument("Conv2DKernel: image must be at least 3x3");
  const std::size_t out_rows = height - 2;
  if (row_bands == 0 || row_bands > out_rows)
    throw std::invalid_argument("Conv2DKernel: invalid row_bands");
  util::Rng rng(seed);
  image_.resize(height * width);
  for (auto& v : image_) v = static_cast<std::uint8_t>(rng.UniformBelow(256));

  variables_.reserve(row_bands + 2);
  for (std::size_t b = 0; b < row_bands; ++b)
    variables_.push_back({"image.band" + std::to_string(b)});
  variables_.push_back({"stencil"});
  variables_.push_back({"acc"});
}

const std::string& Conv2DKernel::Name() const noexcept { return name_; }

std::size_t Conv2DKernel::VarOfRow(std::size_t y) const noexcept {
  const std::size_t out_rows = height_ - 2;
  const std::size_t band = y * row_bands_ / out_rows;
  return band >= row_bands_ ? row_bands_ - 1 : band;
}

std::vector<double> Conv2DKernel::Run(instrument::ApproxContext& ctx) const {
  const std::size_t out_rows = height_ - 2;
  const std::size_t out_cols = width_ - 2;
  std::vector<double> out(out_rows * out_cols);
  const std::size_t stencil_var = VarOfStencil();
  const std::size_t acc_var = VarOfAccumulator();
  const auto planes =
      products_.Planes(ctx, [&](const axc::MulOpDescriptor& desc,
                                std::int64_t* plane) {
        for (std::size_t y = 0; y < out_rows; ++y)
          for (std::size_t x = 0; x < out_cols; ++x)
            for (std::size_t dy = 0; dy < 3; ++dy)
              for (std::size_t dx = 0; dx < 3; ++dx)
                *plane++ = axc::DispatchMulSigned(
                    desc, image_[(y + dy) * width_ + x + dx],
                    stencil_[dy * 3 + dx]);
      });
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = VarOfRow(y);
    const std::int64_t* plane =
        planes[ctx.AnyApproximated({row_var, stencil_var})];
    for (std::size_t x = 0; x < out_cols; ++x) {
      // One 9-product sum, or three batched 3-MACs (one per stencil row)
      // chained through `acc` — both in the dy-major/dx-minor operation
      // order of the scalar loops.
      std::int64_t acc = 0;
      if (plane != nullptr) {
        acc = ctx.SumProducts(0, plane + (y * out_cols + x) * 9, 9,
                              {row_var, stencil_var}, {acc_var});
      } else {
        for (std::size_t dy = 0; dy < 3; ++dy)
          acc = ctx.DotAccumulate(acc, &image_[(y + dy) * width_ + x], 1,
                                  &stencil_[dy * 3], 1, 3,
                                  {row_var, stencil_var}, {acc_var});
      }
      out[y * out_cols + x] = static_cast<double>(acc);
    }
  }
  return out;
}

std::vector<double> Conv2DKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  const std::size_t lanes = ctx.NumLanes();
  const std::size_t out_rows = height_ - 2;
  const std::size_t out_cols = width_ - 2;
  const std::size_t out_size = out_rows * out_cols;
  std::vector<double> out(lanes * out_size);
  const std::size_t stencil_var = VarOfStencil();
  const std::size_t acc_var = VarOfAccumulator();
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = VarOfRow(y);
    for (std::size_t x = 0; x < out_cols; ++x) {
      // The three stencil-row dots chain through a lane-parallel
      // accumulator; the partition is constant per output (same variable
      // groups all three calls), so each distinct descriptor pair computes
      // the 9-MAC chain once.
      auto acc = ctx.Broadcast(0);
      for (std::size_t dy = 0; dy < 3; ++dy) {
        acc = ctx.DotAccumulate(acc, &image_[(y + dy) * width_ + x], 1,
                                &stencil_[dy * 3], 1, 3,
                                {row_var, stencil_var}, {acc_var});
      }
      for (std::size_t l = 0; l < lanes; ++l)
        out[l * out_size + y * out_cols + x] = static_cast<double>(acc.v[l]);
    }
  }
  return out;
}

}  // namespace axdse::workloads
