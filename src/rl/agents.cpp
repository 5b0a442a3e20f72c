#include "rl/agents.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "rl/state_io.hpp"
#include "util/number_format.hpp"

namespace axdse::rl {

void ValidateAgentConfig(const AgentConfig& config) {
  if (!(config.alpha > 0.0 && config.alpha <= 1.0))
    throw std::invalid_argument("AgentConfig: alpha must be in (0,1]");
  if (!(config.gamma >= 0.0 && config.gamma <= 1.0))
    throw std::invalid_argument("AgentConfig: gamma must be in [0,1]");
}

void Agent::SaveState(std::ostream&) const {
  throw std::logic_error("Agent::SaveState: agent '" + Name() +
                         "' does not support checkpointing");
}

void Agent::RestoreState(std::istream&, StateId) {
  throw std::logic_error("Agent::LoadState: agent '" + Name() +
                         "' does not support checkpointing");
}

namespace {
std::size_t EpsilonGreedy(const QTable& table, StateId state, double epsilon,
                          util::Rng& rng) {
  if (rng.Bernoulli(epsilon)) return rng.PickIndex(table.NumActions());
  return table.GreedyAction(state, &rng);
}

/// Shared prologue of every agent's saved state:
///   agent <name>
///   step <schedule_step>
///   rng <w0> <w1> <w2> <w3> <has_cached> <cached_gaussian>
void SaveAgentPrologue(std::ostream& out, const std::string& name,
                       std::size_t step, const util::Rng& rng) {
  out << "agent " << name << "\n";
  out << "step " << step << "\n";
  const util::RngState s = rng.GetState();
  out << "rng " << s.words[0] << " " << s.words[1] << " " << s.words[2] << " "
      << s.words[3] << " " << (s.has_cached_gaussian ? 1 : 0) << " "
      << util::ShortestDouble(s.cached_gaussian) << "\n";
}

/// Orders eligibility traces by (state, action): their saved order.
constexpr auto TraceOrder = [](const auto& a, const auto& b) {
  return a.state != b.state ? a.state < b.state : a.action < b.action;
};

/// Parses a state id token and rejects one >= `num_states`.
StateId ParseStateId(const std::string& token, StateId num_states,
                     const char* what) {
  const StateId state = util::ParseUnsignedToken(token, what);
  if (state >= num_states)
    throw std::invalid_argument(std::string(what) + " " + token +
                                " is out of range (" +
                                std::to_string(num_states) + " states)");
  return state;
}

/// Inverse of SaveAgentPrologue; verifies the stored agent name.
void LoadAgentPrologue(std::istream& in, const std::string& name,
                       std::size_t& step, util::RngState& rng) {
  const std::vector<std::string> agent = state_io::ReadTagged(in, "agent");
  state_io::RequireTokens(agent, 1, "agent state header");
  if (agent[0] != name)
    throw std::invalid_argument("agent state is for '" + agent[0] +
                                "', expected '" + name + "'");
  const std::vector<std::string> step_tokens = state_io::ReadTagged(in, "step");
  state_io::RequireTokens(step_tokens, 1, "agent step");
  step = static_cast<std::size_t>(
      util::ParseUnsignedToken(step_tokens[0], "agent step"));
  const std::vector<std::string> rng_tokens = state_io::ReadTagged(in, "rng");
  state_io::RequireTokens(rng_tokens, 6, "agent rng");
  for (int i = 0; i < 4; ++i)
    rng.words[static_cast<std::size_t>(i)] =
        util::ParseUnsignedToken(rng_tokens[static_cast<std::size_t>(i)],
                                 "agent rng word");
  const std::uint64_t has_cached =
      util::ParseUnsignedToken(rng_tokens[4], "agent rng cached flag");
  if (has_cached > 1)
    throw std::invalid_argument("agent rng cached flag must be 0 or 1");
  rng.has_cached_gaussian = has_cached == 1;
  rng.cached_gaussian =
      util::ParseDoubleToken(rng_tokens[5], "agent rng cached gaussian");
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

void QLearningAgent::SaveState(std::ostream& out) const {
  SaveAgentPrologue(out, Name(), step_, rng_);
  table_.SaveState(out);
}

void QLearningAgent::RestoreState(std::istream& in, StateId num_states) {
  std::size_t step = 0;
  util::RngState rng_state;
  LoadAgentPrologue(in, Name(), step, rng_state);
  QTable table(table_.NumActions(), config_.initial_q);
  table.LoadState(in, num_states);
  util::Rng rng(0);
  rng.SetState(rng_state);  // validates the generator words
  step_ = step;
  rng_ = rng;
  table_ = std::move(table);
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

void SarsaAgent::SaveState(std::ostream& out) const {
  SaveAgentPrologue(out, Name(), step_, rng_);
  table_.SaveState(out);
  if (pending_.has_value()) {
    out << "pending 1 " << pending_->state << " " << pending_->action << " "
        << util::ShortestDouble(pending_->reward) << " "
        << pending_->next_state << "\n";
  } else {
    out << "pending 0\n";
  }
}

void SarsaAgent::RestoreState(std::istream& in, StateId num_states) {
  std::size_t step = 0;
  util::RngState rng_state;
  LoadAgentPrologue(in, Name(), step, rng_state);
  QTable table(table_.NumActions(), config_.initial_q);
  table.LoadState(in, num_states);
  const std::vector<std::string> tokens = state_io::ReadTagged(in, "pending");
  std::optional<Pending> pending;
  if (tokens.empty())
    throw std::invalid_argument("sarsa pending: missing flag");
  if (tokens[0] == "1") {
    state_io::RequireTokens(tokens, 5, "sarsa pending");
    Pending p;
    p.state = ParseStateId(tokens[1], num_states, "sarsa pending state");
    p.action = static_cast<std::size_t>(
        util::ParseUnsignedToken(tokens[2], "sarsa pending action"));
    if (p.action >= table_.NumActions())
      throw std::invalid_argument("sarsa pending: action out of range");
    p.reward = util::ParseDoubleToken(tokens[3], "sarsa pending reward");
    p.next_state =
        ParseStateId(tokens[4], num_states, "sarsa pending next state");
    pending = p;
  } else if (tokens[0] == "0") {
    state_io::RequireTokens(tokens, 1, "sarsa pending");
  } else {
    throw std::invalid_argument("sarsa pending: flag must be 0 or 1");
  }
  util::Rng rng(0);
  rng.SetState(rng_state);
  step_ = step;
  rng_ = rng;
  table_ = std::move(table);
  pending_ = pending;
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

void DoubleQLearningAgent::SaveState(std::ostream& out) const {
  SaveAgentPrologue(out, Name(), step_, rng_);
  table_a_.SaveState(out);
  table_b_.SaveState(out);
}

void DoubleQLearningAgent::RestoreState(std::istream& in, StateId num_states) {
  std::size_t step = 0;
  util::RngState rng_state;
  LoadAgentPrologue(in, Name(), step, rng_state);
  QTable table_a(table_a_.NumActions(), config_.initial_q);
  table_a.LoadState(in, num_states);
  QTable table_b(table_b_.NumActions(), config_.initial_q);
  table_b.LoadState(in, num_states);
  util::Rng rng(0);
  rng.SetState(rng_state);
  step_ = step;
  rng_ = rng;
  table_a_ = std::move(table_a);
  table_b_ = std::move(table_b);
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

void QLambdaAgent::SaveState(std::ostream& out) const {
  SaveAgentPrologue(out, Name(), step_, rng_);
  table_.SaveState(out);
  out << "greedy " << (last_action_was_greedy_ ? 1 : 0) << "\n";
  out << "traces " << traces_.size() << "\n";
  std::vector<Trace> sorted = traces_;
  std::sort(sorted.begin(), sorted.end(), TraceOrder);
  for (const Trace& t : sorted)
    out << "trace " << t.state << " " << t.action << " "
        << util::ShortestDouble(t.value) << "\n";
}

void QLambdaAgent::RestoreState(std::istream& in, StateId num_states) {
  std::size_t step = 0;
  util::RngState rng_state;
  LoadAgentPrologue(in, Name(), step, rng_state);
  QTable table(table_.NumActions(), config_.initial_q);
  table.LoadState(in, num_states);
  const std::vector<std::string> greedy = state_io::ReadTagged(in, "greedy");
  state_io::RequireTokens(greedy, 1, "q-lambda greedy flag");
  const std::uint64_t greedy_flag =
      util::ParseUnsignedToken(greedy[0], "q-lambda greedy flag");
  if (greedy_flag > 1)
    throw std::invalid_argument("q-lambda greedy flag must be 0 or 1");
  const std::vector<std::string> count = state_io::ReadTagged(in, "traces");
  state_io::RequireTokens(count, 1, "q-lambda trace count");
  const std::uint64_t num_traces =
      util::ParseUnsignedToken(count[0], "q-lambda trace count");
  std::vector<Trace> traces;
  for (std::uint64_t t = 0; t < num_traces; ++t) {
    const std::vector<std::string> tokens = state_io::ReadTagged(in, "trace");
    state_io::RequireTokens(tokens, 3, "q-lambda trace entry");
    const StateId state =
        ParseStateId(tokens[0], num_states, "q-lambda trace state");
    const std::size_t action = static_cast<std::size_t>(
        util::ParseUnsignedToken(tokens[1], "q-lambda trace action"));
    if (action >= table_.NumActions())
      throw std::invalid_argument("q-lambda trace: action out of range");
    const double value =
        util::ParseDoubleToken(tokens[2], "q-lambda trace value");
    traces.push_back({state, action, value});
  }
  std::sort(traces.begin(), traces.end(), TraceOrder);
  const auto same_key = [](const Trace& a, const Trace& b) {
    return a.state == b.state && a.action == b.action;
  };
  if (std::adjacent_find(traces.begin(), traces.end(), same_key) !=
      traces.end())
    throw std::invalid_argument("q-lambda trace: duplicate (state, action)");
  util::Rng rng(0);
  rng.SetState(rng_state);
  step_ = step;
  rng_ = rng;
  table_ = std::move(table);
  last_action_was_greedy_ = greedy_flag == 1;
  traces_ = std::move(traces);
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

void ExpectedSarsaAgent::SaveState(std::ostream& out) const {
  SaveAgentPrologue(out, Name(), step_, rng_);
  table_.SaveState(out);
}

void ExpectedSarsaAgent::RestoreState(std::istream& in, StateId num_states) {
  std::size_t step = 0;
  util::RngState rng_state;
  LoadAgentPrologue(in, Name(), step, rng_state);
  QTable table(table_.NumActions(), config_.initial_q);
  table.LoadState(in, num_states);
  util::Rng rng(0);
  rng.SetState(rng_state);
  step_ = step;
  rng_ = rng;
  table_ = std::move(table);
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
