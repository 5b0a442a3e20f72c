#include "instrument/multi_approx_context.hpp"

#include <algorithm>
#include <stdexcept>

namespace axdse::instrument {

MultiApproxContext::MultiApproxContext(axc::OperatorSet operators,
                                       std::size_t num_variables)
    : operators_(std::move(operators)), num_variables_(num_variables) {
  if (operators_.adders.empty() || operators_.multipliers.empty())
    throw std::invalid_argument(
        "MultiApproxContext: operator set must be non-empty");
  const ApproxSelection precise(num_variables);
  Configure(&precise, 1);
}

void MultiApproxContext::Configure(const ApproxSelection* selections,
                                   std::size_t num_lanes) {
  if (num_lanes == 0 || num_lanes > kMaxLanes)
    throw std::invalid_argument("MultiApproxContext::Configure: lane count");
  for (std::size_t l = 0; l < num_lanes; ++l) {
    const ApproxSelection& s = selections[l];
    if (s.NumVariables() != num_variables_)
      throw std::invalid_argument(
          "MultiApproxContext::Configure: variable count");
    if (s.AdderIndex() >= operators_.adders.size())
      throw std::invalid_argument("MultiApproxContext::Configure: adder index");
    if (s.MultiplierIndex() >= operators_.multipliers.size())
      throw std::invalid_argument(
          "MultiApproxContext::Configure: multiplier index");
  }
  num_lanes_ = num_lanes;
  selections_.assign(selections, selections + num_lanes);
  // Compile one plan per lane (same resolution as the scalar Configure) and
  // canonicalize descriptor identities across lanes by content, so the
  // partition logic sees "same operator" wherever dispatch is provably
  // identical — including a lane whose selected approximate operator IS the
  // exact one.
  std::vector<axc::AddOpDescriptor> distinct_adds;
  std::vector<axc::MulOpDescriptor> distinct_muls;
  const auto add_key = [&](const axc::AddOpDescriptor& d) {
    for (std::size_t i = 0; i < distinct_adds.size(); ++i)
      if (distinct_adds[i] == d) return static_cast<std::uint8_t>(i);
    distinct_adds.push_back(d);
    return static_cast<std::uint8_t>(distinct_adds.size() - 1);
  };
  const auto mul_key = [&](const axc::MulOpDescriptor& d) {
    for (std::size_t i = 0; i < distinct_muls.size(); ++i)
      if (distinct_muls[i] == d) return static_cast<std::uint8_t>(i);
    distinct_muls.push_back(d);
    return static_cast<std::uint8_t>(distinct_muls.size() - 1);
  };
  for (std::size_t l = 0; l < num_lanes_; ++l) {
    const ApproxSelection& s = selections_[l];
    plans_[l] = operators_.Compile(s.AdderIndex(), s.MultiplierIndex());
    const axc::OperatorPlan& plan = plans_[l];
    for (int b = 0; b < 2; ++b) {
      add_id_[l][b] = add_key(plan.add[b]);
      mul_id_[l][b] = mul_key(plan.mul[b]);
    }
    for (int ab = 0; ab < 2; ++ab)
      for (int mb = 0; mb < 2; ++mb)
        key_[l][ab][mb] = static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(add_id_[l][ab]) << 8) |
            mul_id_[l][mb]);
    counts_[l] = {};
  }
  // Per-variable lane masks: one OR per variable group resolves all lanes'
  // decisions at once.
  var_lane_mask_.assign(num_variables_, 0);
  for (std::size_t l = 0; l < num_lanes_; ++l) {
    const std::uint64_t* words = selections_[l].MaskWords().data();
    for (std::size_t v = 0; v < num_variables_; ++v)
      if ((words[v >> 6] >> (v & 63)) & 1ULL)
        var_lane_mask_[v] |= 1ULL << l;
  }
  // Invalidate the memoized dispatch plans: bump the generation (re-zeroing
  // the stamp table only on 16-bit wrap-around, so Configure stays O(lanes)).
  dot_plans_.clear();
  dot_plans_.reserve(16);
  if (++gen_ == 0) {
    std::fill(plan_gen_.begin(), plan_gen_.end(), std::uint16_t{0});
    gen_ = 1;
  }
}

const MultiApproxContext::DotPlan& MultiApproxContext::BuildDotPlan(
    std::size_t slot, std::uint64_t mm, std::uint64_t am,
    std::size_t n) noexcept {
  DotPlan plan;
  plan.mm = mm;
  plan.am = am;
  plan.pending_n = n;
  for (std::size_t l = 0; l < num_lanes_; ++l)
    plan.keys[l] = key_[l][(am >> l) & 1][(mm >> l) & 1];
  PartitionFromKeys(plan.keys, plan.rep);
  for (std::size_t l = 0; l < num_lanes_; ++l)
    if (plan.rep[l] == l)
      plan.groups[plan.num_groups++] = static_cast<std::uint8_t>(l);
  dot_plans_.push_back(plan);
  plan_slot_[slot] = static_cast<std::uint16_t>(dot_plans_.size() - 1);
  plan_gen_[slot] = gen_;
  return dot_plans_.back();
}

}  // namespace axdse::instrument
