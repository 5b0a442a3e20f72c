#include "rl/q_table.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "rl/state_io.hpp"
#include "util/number_format.hpp"

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

void QTable::SaveState(std::ostream& out) const {
  out << "table " << num_actions_ << " " << util::ShortestDouble(initial_value_)
      << " " << num_rows_ << "\n";
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    for (std::size_t slot = 0; slot < kBlockRows; ++slot) {
      if (!blocks_[b].materialized[slot]) continue;
      out << "row " << b * kBlockRows + slot;
      const double* row = blocks_[b].values.get() + slot * num_actions_;
      for (std::size_t a = 0; a < num_actions_; ++a)
        out << " " << util::ShortestDouble(row[a]);
      out << "\n";
    }
  }
}

void QTable::LoadState(std::istream& in, StateId num_states) {
  const std::vector<std::string> header = state_io::ReadTagged(in, "table");
  state_io::RequireTokens(header, 3, "QTable::LoadState header");
  const std::uint64_t num_actions =
      util::ParseUnsignedToken(header[0], "QTable::LoadState num_actions");
  if (num_actions != num_actions_)
    throw std::invalid_argument(
        "QTable::LoadState: action count mismatch (stored " +
        std::to_string(num_actions) + ", table has " +
        std::to_string(num_actions_) + ")");
  const double initial =
      util::ParseDoubleToken(header[1], "QTable::LoadState initial_value");
  const std::uint64_t num_rows =
      util::ParseUnsignedToken(header[2], "QTable::LoadState num_rows");

  // Parse every row before allocating any: the bound check must reject a
  // hostile id before it can size the block storage.
  std::vector<StateId> states;
  std::vector<double> values;
  for (std::uint64_t r = 0; r < num_rows; ++r) {
    const std::vector<std::string> tokens = state_io::ReadTagged(in, "row");
    state_io::RequireTokens(tokens, 1 + num_actions_, "QTable::LoadState row");
    const StateId state =
        util::ParseUnsignedToken(tokens[0], "QTable::LoadState state id");
    if (state >= num_states)
      throw std::invalid_argument("QTable::LoadState: state id " + tokens[0] +
                                  " is out of range (" +
                                  std::to_string(num_states) + " states)");
    states.push_back(state);
    for (std::size_t a = 0; a < num_actions_; ++a)
      values.push_back(
          util::ParseDoubleToken(tokens[1 + a], "QTable::LoadState q-value"));
  }
  QTable table(num_actions_, initial);
  for (std::size_t r = 0; r < states.size(); ++r) {
    if (table.FindRow(states[r]) != nullptr)
      throw std::invalid_argument(
          "QTable::LoadState: duplicate row for state " +
          std::to_string(states[r]));
    std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(r * num_actions_),
                num_actions_, table.Row(states[r]));
  }
  *this = std::move(table);
}

}  // namespace axdse::rl
