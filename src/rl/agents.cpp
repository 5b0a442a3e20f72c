#include "rl/agents.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace axdse::rl {

void ValidateAgentConfig(const AgentConfig& config) {
  if (!(config.alpha > 0.0 && config.alpha <= 1.0))
    throw std::invalid_argument("AgentConfig: alpha must be in (0,1]");
  if (!(config.gamma >= 0.0 && config.gamma <= 1.0))
    throw std::invalid_argument("AgentConfig: gamma must be in [0,1]");
}

void Agent::SaveState(std::ostream&) const {
  throw std::logic_error("Agent::SaveState: agent '" + Name() +
                         "' does not serialize its state");
}

void Agent::LoadState(std::istream&) {
  throw std::logic_error("Agent::LoadState: agent '" + Name() +
                         "' does not serialize its state");
}

namespace {

std::size_t EpsilonGreedy(const QTable& table, StateId state, double epsilon,
                          util::Rng& rng) {
  if (rng.Bernoulli(epsilon)) return rng.PickIndex(table.NumActions());
  return table.GreedyAction(state, &rng);
}

}  // namespace

// --------------------------------------------------------------------------
// QLearningAgent
// --------------------------------------------------------------------------

QLearningAgent::QLearningAgent(std::size_t num_actions,
                               const AgentConfig& config, std::uint64_t seed)
    : config_(config), table_(num_actions, config.initial_q), rng_(seed) {
  ValidateAgentConfig(config);
}

double QLearningAgent::CurrentEpsilon() const noexcept {
  return config_.epsilon.Value(step_);
}

std::size_t QLearningAgent::SelectAction(StateId state) {
  const double eps = config_.epsilon.Value(step_);
  ++step_;
  return EpsilonGreedy(table_, state, eps, rng_);
}

void QLearningAgent::Observe(StateId state, std::size_t action, double reward,
                             StateId next_state, bool terminated) {
  const double bootstrap =
      terminated ? 0.0 : config_.gamma * table_.MaxValue(next_state);
  const double old_q = table_.Get(state, action);
  table_.Set(state, action,
             old_q + config_.alpha * (reward + bootstrap - old_q));
}

// --------------------------------------------------------------------------
// SarsaAgent
// --------------------------------------------------------------------------

SarsaAgent::SarsaAgent(std::size_t num_actions, const AgentConfig& config,
                       std::uint64_t seed)
    : config_(config), table_(num_actions, config.initial_q), rng_(seed) {
  ValidateAgentConfig(config);
}

std::size_t SarsaAgent::SelectAction(StateId state) {
  const double eps = config_.epsilon.Value(step_);
  ++step_;
  const std::size_t action = EpsilonGreedy(table_, state, eps, rng_);
  if (pending_.has_value()) {
    // Complete the delayed SARSA update now that a' is known.
    const Pending& p = *pending_;
    const double old_q = table_.Get(p.state, p.action);
    const double target =
        p.reward + config_.gamma * table_.Get(p.next_state, action);
    table_.Set(p.state, p.action, old_q + config_.alpha * (target - old_q));
    pending_.reset();
  }
  return action;
}

void SarsaAgent::Observe(StateId state, std::size_t action, double reward,
                         StateId next_state, bool terminated) {
  if (terminated) {
    const double old_q = table_.Get(state, action);
    table_.Set(state, action, old_q + config_.alpha * (reward - old_q));
    pending_.reset();
    return;
  }
  pending_ = Pending{state, action, reward, next_state};
}

// --------------------------------------------------------------------------
// DoubleQLearningAgent
// --------------------------------------------------------------------------

DoubleQLearningAgent::DoubleQLearningAgent(std::size_t num_actions,
                                           const AgentConfig& config,
                                           std::uint64_t seed)
    : config_(config),
      table_a_(num_actions, config.initial_q),
      table_b_(num_actions, config.initial_q),
      rng_(seed) {
  ValidateAgentConfig(config);
}

std::size_t DoubleQLearningAgent::GreedyOnSum(StateId state) {
  const std::size_t n = table_a_.NumActions();
  double best = -std::numeric_limits<double>::infinity();
  std::size_t tie_count = 0;
  std::size_t choice = 0;
  for (std::size_t a = 0; a < n; ++a) {
    const double q = table_a_.Get(state, a) + table_b_.Get(state, a);
    if (q > best) {
      best = q;
      tie_count = 1;
      choice = a;
    } else if (q == best) {
      ++tie_count;
      if (rng_.UniformBelow(tie_count) == 0) choice = a;
    }
  }
  return choice;
}

std::size_t DoubleQLearningAgent::SelectAction(StateId state) {
  const double eps = config_.epsilon.Value(step_);
  ++step_;
  if (rng_.Bernoulli(eps)) return rng_.PickIndex(table_a_.NumActions());
  return GreedyOnSum(state);
}

void DoubleQLearningAgent::Observe(StateId state, std::size_t action,
                                   double reward, StateId next_state,
                                   bool terminated) {
  QTable& update = rng_.Bernoulli(0.5) ? table_a_ : table_b_;
  QTable& other = (&update == &table_a_) ? table_b_ : table_a_;
  double bootstrap = 0.0;
  if (!terminated) {
    const std::size_t best_next = update.GreedyAction(next_state);
    bootstrap = config_.gamma * other.Get(next_state, best_next);
  }
  const double old_q = update.Get(state, action);
  update.Set(state, action,
             old_q + config_.alpha * (reward + bootstrap - old_q));
}

// --------------------------------------------------------------------------
// QLambdaAgent
// --------------------------------------------------------------------------

QLambdaAgent::QLambdaAgent(std::size_t num_actions, const AgentConfig& config,
                           double lambda, std::uint64_t seed)
    : config_(config), lambda_(lambda), table_(num_actions, config.initial_q),
      rng_(seed) {
  ValidateAgentConfig(config);
  if (lambda < 0.0 || lambda > 1.0)
    throw std::invalid_argument("QLambdaAgent: lambda must be in [0,1]");
}

std::size_t QLambdaAgent::SelectAction(StateId state) {
  const double eps = config_.epsilon.Value(step_);
  ++step_;
  if (rng_.Bernoulli(eps)) {
    const std::size_t action = rng_.PickIndex(table_.NumActions());
    last_action_was_greedy_ = action == table_.GreedyAction(state);
    return action;
  }
  last_action_was_greedy_ = true;
  return table_.GreedyAction(state, &rng_);
}

void QLambdaAgent::Observe(StateId state, std::size_t action, double reward,
                           StateId next_state, bool terminated) {
  const double bootstrap =
      terminated ? 0.0 : config_.gamma * table_.MaxValue(next_state);
  const double delta = reward + bootstrap - table_.Get(state, action);
  const auto same = [&](const Trace& t) {
    return t.state == state && t.action == action;
  };
  if (const auto it = std::find_if(traces_.begin(), traces_.end(), same);
      it != traces_.end())
    it->value = 1.0;  // replacing traces
  else
    traces_.push_back({state, action, 1.0});

  const double decay = config_.gamma * lambda_;
  for (std::size_t i = 0; i < traces_.size();) {
    Trace& t = traces_[i];
    const double old_q = table_.Get(t.state, t.action);
    table_.Set(t.state, t.action, old_q + config_.alpha * delta * t.value);
    t.value *= decay;
    if (t.value < 1e-8) {
      t = traces_.back();  // swap-remove; the moved entry is visited next
      traces_.pop_back();
    } else {
      ++i;
    }
  }
  // Watkins' cut: an exploratory action invalidates the on-policy suffix.
  if (!last_action_was_greedy_ || terminated) traces_.clear();
}

// --------------------------------------------------------------------------
// ExpectedSarsaAgent
// --------------------------------------------------------------------------

ExpectedSarsaAgent::ExpectedSarsaAgent(std::size_t num_actions,
                                       const AgentConfig& config,
                                       std::uint64_t seed)
    : config_(config), table_(num_actions, config.initial_q), rng_(seed) {
  ValidateAgentConfig(config);
}

std::size_t ExpectedSarsaAgent::SelectAction(StateId state) {
  const double eps = config_.epsilon.Value(step_);
  ++step_;
  return EpsilonGreedy(table_, state, eps, rng_);
}

void ExpectedSarsaAgent::Observe(StateId state, std::size_t action,
                                 double reward, StateId next_state,
                                 bool terminated) {
  // Expectation under the policy that will act in next_state (current eps).
  const double eps = config_.epsilon.Value(step_);
  const double bootstrap =
      terminated ? 0.0 : config_.gamma * table_.ExpectedValue(next_state, eps);
  const double old_q = table_.Get(state, action);
  table_.Set(state, action,
             old_q + config_.alpha * (reward + bootstrap - old_q));
}

}  // namespace axdse::rl
