#pragma once
// Tabular value-based agents: Q-learning (the paper's algorithm), SARSA and
// Expected SARSA (on-policy comparisons for the ablation benches).

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "rl/env.hpp"
#include "rl/q_table.hpp"
#include "rl/schedules.hpp"
#include "util/rng.hpp"

namespace axdse::rl {

/// Hyper-parameters shared by the tabular agents.
struct AgentConfig {
  /// Learning rate in (0, 1].
  double alpha = 0.1;
  /// Discount factor in [0, 1].
  double gamma = 0.95;
  /// Exploration schedule (evaluated on the agent's own step counter).
  EpsilonSchedule epsilon = EpsilonSchedule::Linear(1.0, 0.05, 2000);
  /// Initial Q value for unvisited states (optimistic init if > 0).
  double initial_q = 0.0;
};

/// Common agent interface: SelectAction() is called exactly once per step,
/// then Observe() with the resulting transition.
class Agent {
 public:
  virtual ~Agent() = default;

  /// Epsilon-greedy action for `state`; advances the exploration schedule.
  virtual std::size_t SelectAction(StateId state) = 0;

  /// Learns from the transition (state, action, reward, next_state).
  virtual void Observe(StateId state, std::size_t action, double reward,
                       StateId next_state, bool terminated) = 0;

  /// Read access to the learned values.
  virtual const QTable& Table() const noexcept = 0;

  /// Agent name for reports.
  virtual std::string Name() const = 0;

  /// Called by the trainer at the start of every episode. Agents with
  /// episode-scoped state (eligibility traces, pending on-policy updates)
  /// reset it here; value tables persist across episodes.
  virtual void BeginEpisode() {}

  /// Kept so decorators that forward them still compile; no agent
  /// serializes its state (a resumed exploration replays its steps, see
  /// dse/checkpoint.hpp). Both throw std::logic_error.
  virtual void SaveState(std::ostream& out) const;
  virtual void LoadState(std::istream& in);
};

/// Watkins Q-learning: off-policy TD update
///   Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
class QLearningAgent final : public Agent {
 public:
  /// Throws std::invalid_argument on invalid hyper-parameters.
  QLearningAgent(std::size_t num_actions, const AgentConfig& config,
                 std::uint64_t seed);

  std::size_t SelectAction(StateId state) override;
  void Observe(StateId state, std::size_t action, double reward,
               StateId next_state, bool terminated) override;
  const QTable& Table() const noexcept override { return table_; }
  std::string Name() const override { return "q-learning"; }

  /// Exploration rate at the current internal step (for traces).
  double CurrentEpsilon() const noexcept;

 private:
  AgentConfig config_;
  QTable table_;
  util::Rng rng_;
  std::size_t step_ = 0;
};

/// On-policy SARSA: the bootstrap uses the action actually selected next.
/// The update for step t is applied when SelectAction() for step t+1 runs
/// (or immediately on termination).
class SarsaAgent final : public Agent {
 public:
  SarsaAgent(std::size_t num_actions, const AgentConfig& config,
             std::uint64_t seed);

  std::size_t SelectAction(StateId state) override;
  void Observe(StateId state, std::size_t action, double reward,
               StateId next_state, bool terminated) override;
  const QTable& Table() const noexcept override { return table_; }
  std::string Name() const override { return "sarsa"; }
  void BeginEpisode() override { pending_.reset(); }

 private:
  struct Pending {
    StateId state;
    std::size_t action;
    double reward;
    StateId next_state;
  };

  AgentConfig config_;
  QTable table_;
  util::Rng rng_;
  std::size_t step_ = 0;
  std::optional<Pending> pending_;
};

/// Double Q-learning (van Hasselt): two tables, each bootstrapping through
/// the other's value at the action its sibling prefers — removes the
/// maximization bias of plain Q-learning in noisy-reward regions.
class DoubleQLearningAgent final : public Agent {
 public:
  DoubleQLearningAgent(std::size_t num_actions, const AgentConfig& config,
                       std::uint64_t seed);

  std::size_t SelectAction(StateId state) override;
  void Observe(StateId state, std::size_t action, double reward,
               StateId next_state, bool terminated) override;
  /// The behaviour table (mean of A and B is used for action selection; the
  /// reported table is A — tests read both via TableA/TableB).
  const QTable& Table() const noexcept override { return table_a_; }
  std::string Name() const override { return "double-q"; }

  const QTable& TableA() const noexcept { return table_a_; }
  const QTable& TableB() const noexcept { return table_b_; }

 private:
  std::size_t GreedyOnSum(StateId state);

  AgentConfig config_;
  QTable table_a_;
  QTable table_b_;
  util::Rng rng_;
  std::size_t step_ = 0;
};

/// Watkins Q(lambda): Q-learning with replacing eligibility traces, cut on
/// exploratory actions. Propagates rewards down long corridors much faster
/// than one-step Q-learning.
class QLambdaAgent final : public Agent {
 public:
  /// `lambda` must be in [0, 1].
  QLambdaAgent(std::size_t num_actions, const AgentConfig& config,
               double lambda, std::uint64_t seed);

  std::size_t SelectAction(StateId state) override;
  void Observe(StateId state, std::size_t action, double reward,
               StateId next_state, bool terminated) override;
  const QTable& Table() const noexcept override { return table_; }
  std::string Name() const override { return "q-lambda"; }
  void BeginEpisode() override { traces_.clear(); }

  double Lambda() const noexcept { return lambda_; }
  std::size_t ActiveTraces() const noexcept { return traces_.size(); }

 private:
  /// One eligibility trace e(state, action) > 0.
  struct Trace {
    StateId state;
    std::size_t action;
    double value;
  };

  AgentConfig config_;
  double lambda_;
  QTable table_;
  util::Rng rng_;
  std::size_t step_ = 0;
  bool last_action_was_greedy_ = true;
  /// Active traces, one entry per (state, action), in no particular order:
  /// each update touches only its own Q value, so order cannot matter.
  std::vector<Trace> traces_;
};

/// Expected SARSA: bootstraps on the epsilon-greedy expectation over the
/// next state's values — lower variance than SARSA, on-policy like it.
class ExpectedSarsaAgent final : public Agent {
 public:
  ExpectedSarsaAgent(std::size_t num_actions, const AgentConfig& config,
                     std::uint64_t seed);

  std::size_t SelectAction(StateId state) override;
  void Observe(StateId state, std::size_t action, double reward,
               StateId next_state, bool terminated) override;
  const QTable& Table() const noexcept override { return table_; }
  std::string Name() const override { return "expected-sarsa"; }

 private:
  AgentConfig config_;
  QTable table_;
  util::Rng rng_;
  std::size_t step_ = 0;
};

/// Validates hyper-parameters; throws std::invalid_argument on violation.
void ValidateAgentConfig(const AgentConfig& config);

}  // namespace axdse::rl
