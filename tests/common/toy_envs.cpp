#include "common/toy_envs.hpp"

#include <stdexcept>

namespace axdse::rl {

ChainEnv::ChainEnv(std::size_t length) : length_(length) {
  if (length < 2) throw std::invalid_argument("ChainEnv: length < 2");
}

StateId ChainEnv::Reset(std::uint64_t /*seed*/) {
  position_ = 0;
  return 0;
}

StepResult ChainEnv::Step(std::size_t action) {
  if (action >= NumActions()) throw std::out_of_range("ChainEnv::Step");
  if (action == 0) {
    if (position_ > 0) --position_;
  } else {
    ++position_;
  }
  StepResult r;
  r.next_state = position_;
  if (position_ == length_ - 1) {
    r.reward = 10.0;
    r.terminated = true;
  } else {
    r.reward = -1.0;
  }
  return r;
}

SlipperyChainEnv::SlipperyChainEnv(std::size_t length, double slip)
    : length_(length), slip_(slip), rng_(0) {
  if (length < 2) throw std::invalid_argument("SlipperyChainEnv: length < 2");
  if (slip < 0.0 || slip >= 1.0)
    throw std::invalid_argument("SlipperyChainEnv: slip must be in [0,1)");
}

StateId SlipperyChainEnv::Reset(std::uint64_t seed) {
  position_ = 0;
  rng_ = util::Rng(seed);
  return 0;
}

StepResult SlipperyChainEnv::Step(std::size_t action) {
  if (action >= NumActions())
    throw std::out_of_range("SlipperyChainEnv::Step");
  std::size_t effective = action;
  if (rng_.Bernoulli(slip_)) effective = 1 - action;
  if (effective == 0) {
    if (position_ > 0) --position_;
  } else {
    ++position_;
  }
  StepResult r;
  r.next_state = position_;
  if (position_ == length_ - 1) {
    r.reward = 10.0;
    r.terminated = true;
  } else {
    r.reward = -1.0;
  }
  return r;
}

CliffWalkEnv::CliffWalkEnv() = default;

StateId CliffWalkEnv::Reset(std::uint64_t /*seed*/) {
  row_ = kRows - 1;
  col_ = 0;
  return row_ * kCols + col_;
}

StepResult CliffWalkEnv::Step(std::size_t action) {
  if (action >= NumActions()) throw std::out_of_range("CliffWalkEnv::Step");
  std::size_t row = row_;
  std::size_t col = col_;
  switch (action) {
    case 0:
      if (row > 0) --row;
      break;
    case 1:
      if (col + 1 < kCols) ++col;
      break;
    case 2:
      if (row + 1 < kRows) ++row;
      break;
    case 3:
      if (col > 0) --col;
      break;
    default:
      break;
  }
  StepResult r;
  const bool bottom = row == kRows - 1;
  const bool on_cliff = bottom && col > 0 && col < kCols - 1;
  const bool at_goal = bottom && col == kCols - 1;
  if (on_cliff) {
    r.reward = -100.0;
    row_ = kRows - 1;
    col_ = 0;
  } else {
    r.reward = -1.0;
    row_ = row;
    col_ = col;
    r.terminated = at_goal;
  }
  r.next_state = row_ * kCols + col_;
  return r;
}

}  // namespace axdse::rl
