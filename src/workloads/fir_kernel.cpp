#include "workloads/fir_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "signal/fir_design.hpp"
#include "signal/noise.hpp"
#include "signal/quantize.hpp"

namespace axdse::workloads {

namespace {
constexpr std::size_t kDefaultTaps = 17;
constexpr double kDefaultCutoff = 0.2;
}  // namespace

FirKernel::FirKernel(std::size_t num_samples, std::size_t taps, double cutoff,
                     FirGranularity granularity, std::uint64_t seed)
    : granularity_(granularity),
      operators_(axc::EvoApproxCatalog::Instance().FirSet()),
      products_(operators_, {std::min(taps, num_samples), num_samples}) {
  if (num_samples == 0) throw std::invalid_argument("FirKernel: no samples");
  const std::vector<double> noise =
      signal::UniformWhiteNoise(num_samples, 0.95, seed);
  x_ = signal::ToFixedVector(noise, 15);
  name_ = "fir-" + std::to_string(x_.size());
  const std::vector<double> coeffs = signal::DesignLowPass(taps, cutoff);
  h_ = signal::ToFixedVector(coeffs, 15);

  if (granularity_ == FirGranularity::kPerArray) {
    variables_ = {{"x"}, {"h"}, {"acc"}};
  } else {
    variables_.reserve(taps + 2);
    variables_.push_back({"x"});
    for (std::size_t k = 0; k < taps; ++k)
      variables_.push_back({"h.tap" + std::to_string(k)});
    variables_.push_back({"acc"});
  }
}

FirKernel::FirKernel(std::size_t num_samples, std::uint64_t seed)
    : FirKernel(num_samples, kDefaultTaps, kDefaultCutoff,
                FirGranularity::kPerTap, seed) {}

const std::string& FirKernel::Name() const noexcept { return name_; }

std::size_t FirKernel::VarOfInput() const noexcept { return 0; }

std::size_t FirKernel::VarOfTap(std::size_t k) const noexcept {
  return granularity_ == FirGranularity::kPerArray ? 1 : 1 + k;
}

std::size_t FirKernel::VarOfAccumulator() const noexcept {
  return granularity_ == FirGranularity::kPerArray ? 2 : 1 + h_.size();
}

std::vector<double> FirKernel::Run(instrument::ApproxContext& ctx) const {
  // Tap-major formulation: output i accumulates the tap products
  // h[0]*x[i], h[1]*x[i-1], ... in ascending k — exactly the operand
  // sequence of the historical sample-major loop — but iterating tap-major
  // turns each tap into one batched AXPY over the accumulator array
  // (selection resolution and op accounting hoisted out of the inner loop;
  // per-tap variables make the per-output dot non-uniform, AXPY is the
  // batchable axis). Taps add memoized products where the memo has them
  // (see the header comment).
  const std::size_t n = x_.size();
  std::vector<std::int64_t> acc(n, 0);  // Q30 accumulators
  const std::size_t x_var = VarOfInput();
  const std::size_t acc_var = VarOfAccumulator();
  const auto planes =
      products_.Planes(ctx, [&](const axc::MulOpDescriptor& desc,
                                std::int64_t* plane) {
        // Row k holds only the n - k products Run() reads.
        for (std::size_t k = 0; k < h_.size() && k < n; ++k)
          for (std::size_t i = 0; i < n - k; ++i)
            plane[k * n + i] = axc::DispatchMulSigned(desc, h_[k], x_[i]);
      });
  for (std::size_t k = 0; k < h_.size() && k < n; ++k) {
    // acc[i] += h[k] * x[i-k] for all outputs i >= k (zero-padded history
    // contributes nothing below that).
    const std::size_t tap_var = VarOfTap(k);
    if (const std::int64_t* plane =
            planes[ctx.AnyApproximated({tap_var, x_var})]) {
      ctx.AccumulateProducts(acc.data() + k, plane + k * n, n - k,
                             {tap_var, x_var}, {acc_var});
    } else {
      ctx.AxpyAccumulate(acc.data() + k, x_.data(), n - k,
                         static_cast<std::int64_t>(h_[k]), {tap_var, x_var},
                         {acc_var});
    }
  }
  std::vector<double> out(x_.size());
  for (std::size_t i = 0; i < x_.size(); ++i)
    out[i] = static_cast<double>(acc[i]);
  return out;
}

std::vector<double> FirKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  const std::size_t lanes = ctx.NumLanes();
  // Zero-initialized Lanes are Broadcast(0): all lanes one dedup group.
  std::vector<instrument::MultiApproxContext::Lanes> acc(x_.size());
  const std::size_t x_var = VarOfInput();
  const std::size_t acc_var = VarOfAccumulator();
  for (std::size_t k = 0; k < h_.size() && k < x_.size(); ++k) {
    ctx.AxpyAccumulate(acc.data() + k, x_.data(), x_.size() - k,
                       static_cast<std::int64_t>(h_[k]), {VarOfTap(k), x_var},
                       {acc_var});
  }
  std::vector<double> out(lanes * x_.size());
  for (std::size_t l = 0; l < lanes; ++l)
    for (std::size_t i = 0; i < x_.size(); ++i)
      out[l * x_.size() + i] = static_cast<double>(acc[i].v[l]);
  return out;
}

}  // namespace axdse::workloads
