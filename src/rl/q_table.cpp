#include "rl/q_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace axdse::rl {

QTable::QTable(std::size_t num_actions, double initial_value)
    : num_actions_(num_actions), initial_value_(initial_value) {
  if (num_actions == 0)
    throw std::invalid_argument("QTable: num_actions == 0");
}

const double* QTable::FindRow(StateId state) const noexcept {
  const StateId block = state / kBlockRows;
  if (block >= blocks_.size()) return nullptr;
  const Block& b = blocks_[static_cast<std::size_t>(block)];
  const std::size_t slot = static_cast<std::size_t>(state % kBlockRows);
  return b.materialized[slot] ? b.values.get() + slot * num_actions_ : nullptr;
}

double* QTable::Row(StateId state) {
  const std::size_t block = static_cast<std::size_t>(state / kBlockRows);
  if (block >= blocks_.size()) blocks_.resize(block + 1);
  Block& b = blocks_[block];
  if (!b.values)
    b.values = std::make_unique_for_overwrite<double[]>(kBlockRows *
                                                        num_actions_);
  const std::size_t slot = static_cast<std::size_t>(state % kBlockRows);
  double* row = b.values.get() + slot * num_actions_;
  if (!b.materialized[slot]) {
    std::fill(row, row + num_actions_, initial_value_);
    b.materialized[slot] = 1;
    ++num_rows_;
  }
  return row;
}

double QTable::Get(StateId state, std::size_t action) const {
  if (action >= num_actions_) throw std::out_of_range("QTable::Get: action");
  const double* row = FindRow(state);
  return row == nullptr ? initial_value_ : row[action];
}

void QTable::Set(StateId state, std::size_t action, double value) {
  if (action >= num_actions_) throw std::out_of_range("QTable::Set: action");
  Row(state)[action] = value;
}

double QTable::MaxValue(StateId state) const {
  const double* row = FindRow(state);
  if (row == nullptr) return initial_value_;
  return *std::max_element(row, row + num_actions_);
}

std::size_t QTable::GreedyAction(StateId state, util::Rng* tie_breaker) const {
  const double* row = FindRow(state);
  if (row == nullptr) {
    // Uniform over all actions: every value ties at the initial value.
    return tie_breaker == nullptr ? 0 : tie_breaker->PickIndex(num_actions_);
  }
  const double best = *std::max_element(row, row + num_actions_);
  if (tie_breaker == nullptr) {
    for (std::size_t a = 0; a < num_actions_; ++a)
      if (row[a] == best) return a;
    return 0;  // unreachable
  }
  std::size_t tie_count = 0;
  std::size_t choice = 0;
  for (std::size_t a = 0; a < num_actions_; ++a) {
    if (row[a] == best) {
      ++tie_count;
      // Reservoir sampling over tying actions.
      if (tie_breaker->UniformBelow(tie_count) == 0) choice = a;
    }
  }
  return choice;
}

double QTable::ExpectedValue(StateId state, double epsilon) const {
  const double* row = FindRow(state);
  if (row == nullptr) return initial_value_;
  const double best = *std::max_element(row, row + num_actions_);
  double mean = 0.0;
  for (std::size_t a = 0; a < num_actions_; ++a) mean += row[a];
  mean /= static_cast<double>(num_actions_);
  return epsilon * mean + (1.0 - epsilon) * best;
}

}  // namespace axdse::rl
