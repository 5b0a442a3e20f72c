#include "instrument/approx_context.hpp"

#include <stdexcept>

namespace axdse::instrument {

// ---------------------------------------------------------------------------
// ApproxSelection
// ---------------------------------------------------------------------------

ApproxSelection::ApproxSelection(std::size_t num_variables)
    : num_variables_(num_variables), mask_((num_variables + 63) / 64, 0) {}

bool ApproxSelection::VariableSelected(std::size_t i) const {
  if (i >= num_variables_)
    throw std::out_of_range("ApproxSelection::VariableSelected");
  return (mask_[i / 64] >> (i % 64)) & 1ULL;
}

void ApproxSelection::SetVariable(std::size_t i, bool selected) {
  if (i >= num_variables_)
    throw std::out_of_range("ApproxSelection::SetVariable");
  if (selected)
    mask_[i / 64] |= 1ULL << (i % 64);
  else
    mask_[i / 64] &= ~(1ULL << (i % 64));
}

void ApproxSelection::ToggleVariable(std::size_t i) {
  if (i >= num_variables_)
    throw std::out_of_range("ApproxSelection::ToggleVariable");
  mask_[i / 64] ^= 1ULL << (i % 64);
}

std::size_t ApproxSelection::SelectedCount() const noexcept {
  std::size_t count = 0;
  for (const std::uint64_t word : mask_)
    count += static_cast<std::size_t>(__builtin_popcountll(word));
  return count;
}

bool ApproxSelection::AllVariablesSelected() const noexcept {
  return num_variables_ != 0 && SelectedCount() == num_variables_;
}

std::string ApproxSelection::ToString() const {
  std::string vars;
  vars.reserve(num_variables_);
  for (std::size_t i = 0; i < num_variables_; ++i)
    vars += (mask_[i / 64] >> (i % 64)) & 1ULL ? '1' : '0';
  return "add=" + std::to_string(adder_index_) +
         " mul=" + std::to_string(multiplier_index_) + " vars=" + vars;
}

namespace {

// Full 64x64->128 multiply folded hi^lo: one mulx-class instruction mixes
// every input bit into every output bit, so a single round per word replaces
// FNV-1a's byte-at-a-time avalanche. Constants are from splitmix64.
inline std::uint64_t Mulx64(std::uint64_t x, std::uint64_t y) noexcept {
#if defined(__SIZEOF_INT128__)
  const unsigned __int128 r =
      static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(y);
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
#else
  // Portable 32-bit-limb fallback; weaker hi bits but still a fine hash.
  const std::uint64_t lo = x * y;
  const std::uint64_t hi = (x >> 32) * (y >> 32) + (((x & 0xffffffffULL) *
                                                    (y >> 32)) >>
                                                   32);
  return lo ^ hi;
#endif
}

}  // namespace

std::size_t ApproxSelection::Hash::operator()(
    const ApproxSelection& s) const noexcept {
  // Mulx mixing over the packed fields; stable within a process run.
  std::uint64_t h = (static_cast<std::uint64_t>(s.adder_index_) << 32) |
                    s.multiplier_index_;
  h = Mulx64(h ^ s.num_variables_, 0x9e3779b97f4a7c15ULL);
  for (const std::uint64_t word : s.mask_)
    h = Mulx64(h ^ word, 0xbf58476d1ce4e5b9ULL);
  return static_cast<std::size_t>(h);
}

// ---------------------------------------------------------------------------
// ApproxContext
// ---------------------------------------------------------------------------

ApproxContext::ApproxContext(axc::OperatorSet operators,
                             std::size_t num_variables)
    : operators_(std::move(operators)), num_variables_(num_variables) {
  if (operators_.adders.empty() || operators_.multipliers.empty())
    throw std::invalid_argument("ApproxContext: operator set must be non-empty");
  Configure(ApproxSelection(num_variables));
}

void ApproxContext::Configure(const ApproxSelection& selection) {
  if (selection.NumVariables() != num_variables_)
    throw std::invalid_argument("ApproxContext::Configure: variable count");
  if (selection.AdderIndex() >= operators_.adders.size())
    throw std::invalid_argument("ApproxContext::Configure: adder index");
  if (selection.MultiplierIndex() >= operators_.multipliers.size())
    throw std::invalid_argument("ApproxContext::Configure: multiplier index");
  selection_ = selection;
  plan_ = operators_.Compile(selection.AdderIndex(),
                             selection.MultiplierIndex());
  counts_ = {};
}

}  // namespace axdse::instrument
