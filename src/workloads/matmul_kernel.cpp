#include "workloads/matmul_kernel.hpp"

#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"

namespace axdse::workloads {

MatMulKernel::MatMulKernel(std::size_t n, MatMulGranularity granularity,
                           std::uint64_t seed)
    : n_(n),
      granularity_(granularity),
      name_("matmul-" + std::to_string(n) + "x" + std::to_string(n)),
      operators_(axc::EvoApproxCatalog::Instance().MatMulSet()),
      products_(operators_, {n, n, n}) {
  if (n == 0) throw std::invalid_argument("MatMulKernel: n == 0");
  util::Rng rng(seed);
  a_.resize(n * n);
  b_.resize(n * n);
  for (auto& v : a_) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  for (auto& v : b_) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  // Column-major copy of B so each output's MAC chain reads both operands
  // at unit stride (same values, vectorizable hot loop).
  bt_.resize(n * n);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j) bt_[j * n + k] = b_[k * n + j];

  if (granularity_ == MatMulGranularity::kPerMatrix) {
    variables_ = {{"A"}, {"B"}, {"acc"}};
  } else {
    variables_.reserve(2 * n + 1);
    for (std::size_t i = 0; i < n; ++i)
      variables_.push_back({"A.row" + std::to_string(i)});
    for (std::size_t j = 0; j < n; ++j)
      variables_.push_back({"B.col" + std::to_string(j)});
    variables_.push_back({"acc"});
  }
}

const std::string& MatMulKernel::Name() const noexcept { return name_; }

std::size_t MatMulKernel::VarOfARow(std::size_t i) const noexcept {
  return granularity_ == MatMulGranularity::kPerMatrix ? 0 : i;
}

std::size_t MatMulKernel::VarOfBCol(std::size_t j) const noexcept {
  return granularity_ == MatMulGranularity::kPerMatrix ? 1 : n_ + j;
}

std::size_t MatMulKernel::VarOfAccumulator() const noexcept {
  return granularity_ == MatMulGranularity::kPerMatrix ? 2 : 2 * n_;
}

std::vector<double> MatMulKernel::Run(instrument::ApproxContext& ctx) const {
  std::vector<double> out(n_ * n_);
  const std::size_t acc_var = VarOfAccumulator();
  const auto planes =
      products_.Planes(ctx, [&](const axc::MulOpDescriptor& desc,
                                std::int64_t* plane) {
        for (std::size_t i = 0; i < n_; ++i)
          for (std::size_t j = 0; j < n_; ++j)
            for (std::size_t k = 0; k < n_; ++k)
              *plane++ = axc::DispatchMulSigned(desc, a_[i * n_ + k],
                                                bt_[j * n_ + k]);
      });
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t row_var = VarOfARow(i);
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t col_var = VarOfBCol(j);
      // One batched sum per output entry: the memoized products of row i
      // of A and column j of B, or the MAC chain over both (read from the
      // transposed copy, so both operands are unit-stride); selection and
      // dispatch resolved once.
      const std::int64_t* plane =
          planes[ctx.AnyApproximated({row_var, col_var})];
      const std::int64_t acc =
          plane != nullptr
              ? ctx.SumProducts(0, plane + (i * n_ + j) * n_, n_,
                                {row_var, col_var}, {acc_var})
              : ctx.DotAccumulate(0, &a_[i * n_], 1, &bt_[j * n_], 1, n_,
                                  {row_var, col_var}, {acc_var});
      out[i * n_ + j] = static_cast<double>(acc);
    }
  }
  return out;
}

std::vector<double> MatMulKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  const std::size_t lanes = ctx.NumLanes();
  const std::size_t out_size = n_ * n_;
  std::vector<double> out(lanes * out_size);
  const std::size_t acc_var = VarOfAccumulator();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t row_var = VarOfARow(i);
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t col_var = VarOfBCol(j);
      // Shared operands + shared zero start: one traversal, one chain per
      // distinct descriptor pair across the configured lanes.
      const auto acc = ctx.DotAccumulate(0, &a_[i * n_], 1, &bt_[j * n_], 1,
                                         n_, {row_var, col_var}, {acc_var});
      for (std::size_t l = 0; l < lanes; ++l)
        out[l * out_size + i * n_ + j] = static_cast<double>(acc.v[l]);
    }
  }
  return out;
}

}  // namespace axdse::workloads
