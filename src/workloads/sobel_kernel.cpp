#include "workloads/sobel_kernel.hpp"

#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"

namespace axdse::workloads {

SobelKernel::SobelKernel(std::size_t height, std::size_t width,
                         std::size_t row_bands, std::uint64_t seed)
    : height_(height),
      width_(width),
      row_bands_(row_bands),
      name_("sobel3x3-" + std::to_string(height) + "x" + std::to_string(width)),
      smooth_({1, 2, 1}),
      operators_(axc::EvoApproxCatalog::Instance().MatMulSet()),
      products_(operators_, {height - 2, width - 2, 4, 3}) {
  if (height < 3 || width < 3)
    throw std::invalid_argument("SobelKernel: image must be at least 3x3");
  const std::size_t out_rows = height - 2;
  if (row_bands == 0 || row_bands > out_rows)
    throw std::invalid_argument("SobelKernel: invalid row_bands");
  util::Rng rng(seed);
  image_.resize(height * width);
  for (auto& v : image_) v = static_cast<std::uint8_t>(rng.UniformBelow(256));

  variables_.reserve(row_bands + 3);
  for (std::size_t b = 0; b < row_bands; ++b)
    variables_.push_back({"image.band" + std::to_string(b)});
  variables_.push_back({"kx"});
  variables_.push_back({"ky"});
  variables_.push_back({"acc"});
}

const std::string& SobelKernel::Name() const noexcept { return name_; }

std::size_t SobelKernel::VarOfRow(std::size_t y) const noexcept {
  const std::size_t out_rows = height_ - 2;
  const std::size_t band = y * row_bands_ / out_rows;
  return band >= row_bands_ ? row_bands_ - 1 : band;
}

std::vector<double> SobelKernel::Run(instrument::ApproxContext& ctx) const {
  const std::size_t out_rows = height_ - 2;
  const std::size_t out_cols = width_ - 2;
  std::vector<double> out(out_rows * out_cols);
  const std::size_t kx_var = VarOfKx();
  const std::size_t ky_var = VarOfKy();
  const std::size_t acc_var = VarOfAccumulator();
  // The four smoothed 3-MACs of output (y, x): g = 0, 1 are the right and
  // left columns of Gx (stride = image width), g = 2, 3 the bottom and top
  // rows of Gy (contiguous).
  const auto pixels = [&](std::size_t y, std::size_t x, std::size_t g) {
    return &image_[g == 0   ? y * width_ + x + 2
                   : g == 2 ? (y + 2) * width_ + x
                            : y * width_ + x];
  };
  const auto stride = [&](std::size_t g) { return g < 2 ? width_ : 1; };
  const auto planes =
      products_.Planes(ctx, [&](const axc::MulOpDescriptor& desc,
                                std::int64_t* plane) {
        for (std::size_t y = 0; y < out_rows; ++y)
          for (std::size_t x = 0; x < out_cols; ++x)
            for (std::size_t g = 0; g < 4; ++g)
              for (std::size_t t = 0; t < 3; ++t)
                *plane++ = axc::DispatchMulSigned(
                    desc, pixels(y, x, g)[t * stride(g)], smooth_[t]);
      });
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = VarOfRow(y);
    const std::int64_t* kx_plane =
        planes[ctx.AnyApproximated({row_var, kx_var})];
    const std::int64_t* ky_plane =
        planes[ctx.AnyApproximated({row_var, ky_var})];
    for (std::size_t x = 0; x < out_cols; ++x) {
      // Smoothed 3-MAC g: memoized products, or the u8 MAC chain.
      const auto smooth3 = [&](std::size_t g, const std::int64_t* plane,
                               std::size_t kernel_var) {
        if (plane == nullptr)
          return ctx.DotAccumulate(0, pixels(y, x, g), stride(g),
                                   smooth_.data(), 1, 3,
                                   {row_var, kernel_var}, {acc_var});
        return ctx.SumProducts(0, plane + ((y * out_cols + x) * 4 + g) * 3, 3,
                               {row_var, kernel_var}, {acc_var});
      };
      // Gx: smoothed right column minus smoothed left column.
      const std::int64_t gx_pos = smooth3(0, kx_plane, kx_var);
      const std::int64_t gx_neg = smooth3(1, kx_plane, kx_var);
      const std::int64_t gx = ctx.Add(gx_pos, -gx_neg, {acc_var});
      // Gy: smoothed bottom row minus smoothed top row.
      const std::int64_t gy_pos = smooth3(2, ky_plane, ky_var);
      const std::int64_t gy_neg = smooth3(3, ky_plane, ky_var);
      const std::int64_t gy = ctx.Add(gy_pos, -gy_neg, {acc_var});
      // |Gx| + |Gy| magnitude; the absolute values are comparisons, not
      // counted arithmetic.
      const std::int64_t mag =
          ctx.Add(gx < 0 ? -gx : gx, gy < 0 ? -gy : gy, {acc_var});
      out[y * out_cols + x] = static_cast<double>(mag);
    }
  }
  return out;
}

std::vector<double> SobelKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  using Lanes = instrument::MultiApproxContext::Lanes;
  const std::size_t lanes = ctx.NumLanes();
  const std::size_t out_rows = height_ - 2;
  const std::size_t out_cols = width_ - 2;
  const std::size_t out_size = out_rows * out_cols;
  std::vector<double> out(lanes * out_size);
  const std::size_t kx_var = VarOfKx();
  const std::size_t ky_var = VarOfKy();
  const std::size_t acc_var = VarOfAccumulator();
  // Negation and absolute value are wiring (comparisons/sign flips, not
  // counted arithmetic): lane-wise they preserve the dedup partition.
  const auto lanewise = [&lanes](Lanes x, auto fn) {
    for (std::size_t l = 0; l < lanes; ++l) x.v[l] = fn(x.v[l]);
    return x;
  };
  const auto neg = [](std::int64_t v) { return -v; };
  const auto abs64 = [](std::int64_t v) { return v < 0 ? -v : v; };
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = VarOfRow(y);
    for (std::size_t x = 0; x < out_cols; ++x) {
      const Lanes gx_pos =
          ctx.DotAccumulate(0, &image_[y * width_ + x + 2], width_,
                            smooth_.data(), 1, 3, {row_var, kx_var}, {acc_var});
      const Lanes gx_neg =
          ctx.DotAccumulate(0, &image_[y * width_ + x], width_, smooth_.data(),
                            1, 3, {row_var, kx_var}, {acc_var});
      const Lanes gx = ctx.Add(gx_pos, lanewise(gx_neg, neg), {acc_var});
      const Lanes gy_pos =
          ctx.DotAccumulate(0, &image_[(y + 2) * width_ + x], 1,
                            smooth_.data(), 1, 3, {row_var, ky_var}, {acc_var});
      const Lanes gy_neg =
          ctx.DotAccumulate(0, &image_[y * width_ + x], 1, smooth_.data(), 1,
                            3, {row_var, ky_var}, {acc_var});
      const Lanes gy = ctx.Add(gy_pos, lanewise(gy_neg, neg), {acc_var});
      const Lanes mag =
          ctx.Add(lanewise(gx, abs64), lanewise(gy, abs64), {acc_var});
      for (std::size_t l = 0; l < lanes; ++l)
        out[l * out_size + y * out_cols + x] = static_cast<double>(mag.v[l]);
    }
  }
  return out;
}

}  // namespace axdse::workloads
