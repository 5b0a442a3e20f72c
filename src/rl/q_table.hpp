#pragma once
// Tabular action-value storage over dense state ids. Environments intern
// their states to ids 0, 1, 2, ... in visit order, so a row is found by
// indexing, not hashing: rows live in fixed blocks of kBlockRows rows,
// allocated the first time one of their rows is materialized, and each
// block carries one byte per row marking the materialized ones. Growth
// never copies a row and allocates at most one block beyond the ids in
// use, so memory follows the visited set even in huge spaces (the
// 2^101-variable DSE space of MatMul 50x50).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rl/env.hpp"
#include "util/rng.hpp"

namespace axdse::rl {

/// Q(s,a) table with a configurable initial value (optimistic init > 0
/// encourages systematic exploration).
class QTable {
 public:
  /// Throws std::invalid_argument if num_actions == 0.
  explicit QTable(std::size_t num_actions, double initial_value = 0.0);

  std::size_t NumActions() const noexcept { return num_actions_; }
  double InitialValue() const noexcept { return initial_value_; }

  /// Q(s,a); the initial value for unvisited rows.
  /// Throws std::out_of_range for invalid actions.
  double Get(StateId state, std::size_t action) const;

  /// Sets Q(s,a), materializing the row if needed.
  void Set(StateId state, std::size_t action, double value);

  /// max_a Q(s,a).
  double MaxValue(StateId state) const;

  /// argmax_a Q(s,a); ties are broken uniformly at random when `tie_breaker`
  /// is provided, otherwise the lowest action index wins.
  std::size_t GreedyAction(StateId state, util::Rng* tie_breaker = nullptr) const;

  /// Expected action value under an epsilon-greedy policy (Expected SARSA).
  double ExpectedValue(StateId state, double epsilon) const;

  /// Number of rows materialized (distinct states written).
  std::size_t NumStates() const noexcept { return num_rows_; }

 private:
  static constexpr std::size_t kBlockRows = 64;

  /// One block of rows: values row-major, plus the materialized flags.
  struct Block {
    std::unique_ptr<double[]> values;
    std::array<std::uint8_t, kBlockRows> materialized{};
  };

  /// The materialized row of `state`, or nullptr.
  const double* FindRow(StateId state) const noexcept;
  /// The row of `state`, materialized (filled with the initial value) first
  /// if needed.
  double* Row(StateId state);

  std::size_t num_actions_;
  double initial_value_;
  std::vector<Block> blocks_;  ///< block b holds states [b, b+1) * kBlockRows
  std::size_t num_rows_ = 0;
};

}  // namespace axdse::rl
