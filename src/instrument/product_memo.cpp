#include "instrument/product_memo.hpp"

namespace axdse::instrument {

ProductMemo::ProductMemo(const axc::OperatorSet& operators,
                         std::initializer_list<std::size_t> extents) {
  std::size_t size = 1;
  for (const std::size_t extent : extents) {
    // size * extent > kMaxProducts, asked without forming the product.
    if (extent != 0 && size > kMaxProducts / extent) return;
    size *= extent;
  }
  if (size == 0) return;
  size_ = size;
  slots_ = std::vector<Slot>(operators.multipliers.size());
  for (std::size_t m = 0; m < slots_.size(); ++m)
    slots_[m].desc = operators.multipliers[m].op;
}

ProductMemo::Slot* ProductMemo::SlotFor(const ApproxContext& ctx,
                                        bool approx) const noexcept {
  const std::size_t m = approx ? ctx.Selection().MultiplierIndex() : 0;
  if (m >= slots_.size() || !(slots_[m].desc == ctx.Plan().mul[approx]))
    return nullptr;
  return &slots_[m];
}

}  // namespace axdse::instrument
