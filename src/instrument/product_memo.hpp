#pragma once
// Memoized products of fixed operands, one plane per multiplier.
//
// In matmul, FIR, conv2d, sobel3x3 and dot both operands of every multiply
// are kernel data fixed at construction; a selection only decides which
// multiplier's product an operation uses. Such a kernel owns one
// ProductMemo with a slot per multiplier of its operator set — index 0,
// the exact multiplier, included — and a run adds products read from a
// plane instead of multiplying again:
//   plane_m[p] == DispatchMulSigned(multipliers[m].op, first_p, second_p)
// for the p-th product in the kernel's own order (its fill callback
// writes them). A plane is built on first use under std::call_once, since
// the engine runs one kernel instance from several workers, and is only
// read afterwards.
//
// Planes() answers null for a plane, and the kernel keeps its MAC chains,
// when
//   * the kernel has more than kMaxProducts products per plane (512 KiB of
//     int64; the count is checked without overflow);
//   * the context's plan descriptor for that multiplier differs from the
//     set's, i.e. the context is bound to another operator set;
//   * the selection selects no variable: the all-precise golden run builds
//     nothing, so kernel set-up does no new work.
// Adding memoized products through ApproxContext::AccumulateProducts or
// SumProducts resolves and counts exactly like the chains, so outputs and
// OpCounts are bit-identical either way.

#include <array>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <vector>

#include "axc/catalog.hpp"
#include "instrument/approx_context.hpp"

namespace axdse::instrument {

class ProductMemo {
 public:
  /// Largest number of products per plane.
  static constexpr std::size_t kMaxProducts = 65536;

  /// A memo over `operators`' multipliers whose planes hold the product of
  /// `extents` products (e.g. {n, n, n} for an n x n matmul). Above
  /// kMaxProducts the memo has no slots and Planes() answers null.
  ProductMemo(const axc::OperatorSet& operators,
              std::initializer_list<std::size_t> extents);

  /// Products per plane; 0 above the cap.
  std::size_t Size() const noexcept { return size_; }

  /// The planes a run under `ctx` reads: [0] under the plan's precise
  /// multiplier, [1] under its selected one, each null where the rules in
  /// the file comment send the kernel to its chains. A plane not built yet
  /// is zero-filled and handed to `fill(descriptor, plane)` once, which
  /// writes its Size() products under that multiplier.
  template <class Fill>
  std::array<const std::int64_t*, 2> Planes(const ApproxContext& ctx,
                                            const Fill& fill) const {
    std::array<const std::int64_t*, 2> planes = {nullptr, nullptr};
    if (size_ == 0 || ctx.Selection().SelectedCount() == 0) return planes;
    for (const bool approx : {false, true}) {
      Slot* slot = SlotFor(ctx, approx);
      if (slot == nullptr) continue;
      std::call_once(slot->built, [&] {
        slot->plane.assign(size_, 0);
        fill(slot->desc, slot->plane.data());
      });
      planes[approx] = slot->plane.data();
    }
    return planes;
  }

 private:
  struct Slot {
    axc::MulOpDescriptor desc;
    std::once_flag built;
    std::vector<std::int64_t> plane;  ///< written once under `built`
  };

  /// The slot of the plan's precise (`approx` false) or selected multiplier
  /// when its descriptor matches the set's, else null.
  Slot* SlotFor(const ApproxContext& ctx, bool approx) const noexcept;

  std::size_t size_ = 0;
  mutable std::vector<Slot> slots_;  ///< one per multiplier; empty above cap
};

}  // namespace axdse::instrument
