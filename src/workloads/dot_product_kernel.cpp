#include "workloads/dot_product_kernel.hpp"

#include <stdexcept>

#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"

namespace axdse::workloads {

DotProductKernel::DotProductKernel(std::size_t n, std::size_t blocks,
                                   std::uint64_t seed)
    : blocks_(blocks),
      name_("dot-" + std::to_string(n) + "x" + std::to_string(blocks)),
      variables_({{"a"}, {"b"}, {"acc"}}),
      operators_(axc::EvoApproxCatalog::Instance().MatMulSet()),
      products_(operators_, {n}) {
  if (n == 0) throw std::invalid_argument("DotProductKernel: n == 0");
  if (blocks == 0 || blocks > n)
    throw std::invalid_argument("DotProductKernel: invalid block count");
  util::Rng rng(seed);
  a_.resize(n);
  b_.resize(n);
  for (auto& v : a_) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  for (auto& v : b_) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
}

const std::string& DotProductKernel::Name() const noexcept { return name_; }

std::vector<double> DotProductKernel::Run(
    instrument::ApproxContext& ctx) const {
  std::vector<double> out(blocks_);
  const std::size_t block_len = a_.size() / blocks_;
  const auto planes =
      products_.Planes(ctx, [&](const axc::MulOpDescriptor& desc,
                                std::int64_t* plane) {
        for (std::size_t i = 0; i < a_.size(); ++i)
          plane[i] = axc::DispatchMulSigned(desc, a_[i], b_[i]);
      });
  const std::int64_t* plane =
      planes[ctx.AnyApproximated({VarOfA(), VarOfB()})];
  for (std::size_t g = 0; g < blocks_; ++g) {
    const std::size_t begin = g * block_len;
    const std::size_t end = g + 1 == blocks_ ? a_.size() : begin + block_len;
    // One batched sum of memoized products, or MAC chain, per output block.
    const std::int64_t acc =
        plane != nullptr
            ? ctx.SumProducts(0, plane + begin, end - begin,
                              {VarOfA(), VarOfB()}, {VarOfAccumulator()})
            : ctx.DotAccumulate(0, &a_[begin], 1, &b_[begin], 1, end - begin,
                                {VarOfA(), VarOfB()}, {VarOfAccumulator()});
    out[g] = static_cast<double>(acc);
  }
  return out;
}

std::vector<double> DotProductKernel::RunLanes(
    instrument::MultiApproxContext& ctx) const {
  const std::size_t lanes = ctx.NumLanes();
  std::vector<double> out(lanes * blocks_);
  const std::size_t block_len = a_.size() / blocks_;
  for (std::size_t g = 0; g < blocks_; ++g) {
    const std::size_t begin = g * block_len;
    const std::size_t end = g + 1 == blocks_ ? a_.size() : begin + block_len;
    const auto acc =
        ctx.DotAccumulate(0, &a_[begin], 1, &b_[begin], 1, end - begin,
                          {VarOfA(), VarOfB()}, {VarOfAccumulator()});
    for (std::size_t l = 0; l < lanes; ++l)
      out[l * blocks_ + g] = static_cast<double>(acc.v[l]);
  }
  return out;
}

}  // namespace axdse::workloads
