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

  /// Writes the agent's complete dynamic state (value tables, RNG,
  /// exploration-schedule step, episode-scoped internals) as deterministic
  /// text lines, tagged with the agent name. Hyper-parameters are NOT
  /// serialized — a resumed agent is constructed from its config first and
  /// then restored via LoadState().
  virtual void SaveState(std::ostream& out) const;

  /// Inverse of SaveState(). Must be called on an agent constructed with the
  /// same action count and kind as the saved one. Throws
  /// std::invalid_argument on malformed input, agent-kind mismatch, action
  /// count mismatch, or NaN-injected values; on failure the agent keeps its
  /// pre-call state. Virtual so decorators can forward it; the body is
  /// RestoreState().
  virtual void LoadState(std::istream& in) { RestoreState(in, kAnyStateId); }

  /// LoadState() of untrusted bytes into an environment that interned
  /// `num_states` states: every state id in the blob (Q rows, pending
  /// transitions, eligibility traces) must be below `num_states`, or
  /// std::invalid_argument is thrown before any row is allocated.
  void LoadState(std::istream& in, StateId num_states) {
    RestoreState(in, num_states);
  }

 protected:
  /// The agent-specific body of both LoadState() overloads. The default
  /// throws std::logic_error (checkpointing unsupported).
  virtual void RestoreState(std::istream& in, StateId num_states);
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

  void SaveState(std::ostream& out) const override;

 private:
  void RestoreState(std::istream& in, StateId num_states) override;

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

  void SaveState(std::ostream& out) const override;

 private:
  void RestoreState(std::istream& in, StateId num_states) override;

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

  void SaveState(std::ostream& out) const override;

 private:
  void RestoreState(std::istream& in, StateId num_states) override;

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

  void SaveState(std::ostream& out) const override;

 private:
  void RestoreState(std::istream& in, StateId num_states) override;

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

  void SaveState(std::ostream& out) const override;

 private:
  void RestoreState(std::istream& in, StateId num_states) override;

  AgentConfig config_;
  QTable table_;
  util::Rng rng_;
  std::size_t step_ = 0;
};

/// Validates hyper-parameters; throws std::invalid_argument on violation.
void ValidateAgentConfig(const AgentConfig& config);

}  // namespace axdse::rl
