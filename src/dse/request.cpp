#include "dse/request.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "util/number_format.hpp"
#include "util/record_io.hpp"

namespace axdse::dse {

namespace {

bool ParseBool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument("ExplorationRequest::Parse: value '" + value +
                              "' for key '" + key + "' is not a boolean");
}

void RequireInRange(const char* name, double value, double lo, double hi) {
  if (!(value >= lo && value <= hi))
    throw std::invalid_argument(std::string("ExplorationRequest: ") + name +
                                " out of range");
}

/// The token table: every serialized field's key, in canonical order. The
/// field's type fixes its format (unsigned decimal, shortest round-trip
/// double, 0/1 flag, enum name, KernelSpec, escaped text omitted when
/// empty). ToString writes the tokens in this order; Parse looks keys up
/// here. `Request` is const for writing and mutable for reading.
template <typename Request, typename Fn>
void ForEachToken(Request& r, Fn&& fn) {
  fn("kernel", r.kernel);
  fn("kernel-seed", r.kernel_seed);
  fn("agent", r.agent_kind);
  fn("action-space", r.action_space);
  fn("steps", r.max_steps);
  fn("reward-cap", r.max_cumulative_reward);
  fn("episodes", r.episodes);
  fn("seeds", r.num_seeds);
  fn("seed", r.seed);
  fn("rollout", r.greedy_rollout_steps);
  fn("trace", r.record_trace);
  fn("cache", r.cache_mode);
  fn("cache-capacity", r.cache_capacity);
  fn("checkpoint-interval", r.checkpoint_interval);
  fn("surrogate", r.surrogate);
  fn("alpha", r.alpha);
  fn("gamma", r.gamma);
  fn("initial-q", r.initial_q);
  fn("lambda", r.lambda);
  fn("eps-start", r.epsilon_start);
  fn("eps-end", r.epsilon_end);
  fn("eps-decay", r.epsilon_decay_steps);
  fn("acc-factor", r.thresholds.accuracy_factor);
  fn("power-factor", r.thresholds.power_factor);
  fn("time-factor", r.thresholds.time_factor);
  fn("max-reward", r.thresholds.max_reward);
  fn("label", r.label);
}

template <typename T>
std::string FormatValue(const T& field) {
  if constexpr (std::is_same_v<T, workloads::KernelSpec>) {
    // The spec's own escaping leaves no separators, so the token embeds
    // raw; Parse splits at the FIRST '=', so '=' inside extras is safe.
    return field.ToString();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return EscapeRequestToken(field);
  } else if constexpr (std::is_same_v<T, bool>) {
    return field ? "1" : "0";
  } else if constexpr (std::is_enum_v<T>) {
    return dse::ToString(field);
  } else if constexpr (std::is_floating_point_v<T>) {
    return util::ShortestDouble(field);
  } else {
    static_assert(std::is_unsigned_v<T>);
    return std::to_string(field);
  }
}

template <typename T>
void ParseValue(const std::string& key, const std::string& value, T& field) {
  const std::string what = "ExplorationRequest::Parse: key '" + key + "'";
  if constexpr (std::is_same_v<T, workloads::KernelSpec>) {
    field = workloads::KernelSpec::Parse(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = UnescapeRequestToken(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    field = ParseBool(key, value);
  } else if constexpr (std::is_same_v<T, AgentKind>) {
    field = AgentKindFromName(value);
  } else if constexpr (std::is_same_v<T, ActionSpaceKind>) {
    field = ActionSpaceFromName(value);
  } else if constexpr (std::is_same_v<T, CacheMode>) {
    field = CacheModeFromName(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    // Infinities pass (an unreachable reward cap); Validate() bounds the
    // fields that must be finite.
    field = util::ParseDoubleToken(value, what.c_str(), true);
  } else {
    static_assert(std::is_unsigned_v<T>);
    const std::uint64_t parsed = util::ParseUnsignedToken(value, what.c_str());
    if (parsed > std::numeric_limits<T>::max())
      throw std::invalid_argument(what + ": '" + value + "' is out of range");
    field = static_cast<T>(parsed);
  }
}

}  // namespace

/// Free-text fields (labels, kernel names, extra keys/values) may contain
/// whitespace, ';', or '=' — escape them so the token format stays
/// lossless: the record escape set plus the two request separators.
std::string EscapeRequestToken(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  util::AppendEscaped(out, text, ";=");
  return out;
}

std::string UnescapeRequestToken(const std::string& text) {
  return util::Unescape(text);
}

std::vector<std::pair<std::string, std::string>> SplitRequestTokens(
    const std::string& text, const char* context) {
  std::vector<std::pair<std::string, std::string>> tokens;
  std::size_t pos = 0;
  while (true) {
    pos = text.find_first_not_of(" \t\n\r;", pos);
    if (pos == std::string::npos) break;
    const std::size_t end = std::min(text.find_first_of(" \t\n\r;", pos),
                                     text.size());
    const std::string token = text.substr(pos, end - pos);
    pos = end;
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument(std::string(context) + ": token '" + token +
                                  "' is not of the form key=value");
    tokens.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return tokens;
}

const char* ToString(CacheMode mode) noexcept {
  switch (mode) {
    case CacheMode::kPrivate:
      return "private";
    case CacheMode::kShared:
      return "shared";
  }
  return "unknown";
}

CacheMode CacheModeFromName(const std::string& name) {
  for (const CacheMode mode : {CacheMode::kPrivate, CacheMode::kShared})
    if (name == ToString(mode)) return mode;
  throw std::invalid_argument("CacheModeFromName: unknown cache mode '" +
                              name + "' (known: private, shared)");
}

const char* ToString(ActionSpaceKind kind) noexcept {
  switch (kind) {
    case ActionSpaceKind::kFull:
      return "full";
    case ActionSpaceKind::kCompact:
      return "compact";
  }
  return "unknown";
}

AgentKind AgentKindFromName(const std::string& name) {
  for (const AgentKind kind :
       {AgentKind::kQLearning, AgentKind::kSarsa, AgentKind::kExpectedSarsa,
        AgentKind::kDoubleQ, AgentKind::kQLambda})
    if (name == ToString(kind)) return kind;
  throw std::invalid_argument("AgentKindFromName: unknown agent '" + name +
                              "' (known: q-learning, sarsa, expected-sarsa, "
                              "double-q, q-lambda)");
}

ActionSpaceKind ActionSpaceFromName(const std::string& name) {
  for (const ActionSpaceKind kind :
       {ActionSpaceKind::kFull, ActionSpaceKind::kCompact})
    if (name == ToString(kind)) return kind;
  throw std::invalid_argument(
      "ActionSpaceFromName: unknown action space '" + name +
      "' (known: full, compact)");
}

void ExplorationRequest::Validate() const {
  if (kernel.name.empty() && !kernel_override)
    throw std::invalid_argument(
        "ExplorationRequest: kernel name is empty and no kernel instance "
        "was provided");
  if (max_steps == 0)
    throw std::invalid_argument("ExplorationRequest: max_steps == 0");
  if (episodes == 0)
    throw std::invalid_argument("ExplorationRequest: episodes == 0");
  if (num_seeds == 0)
    throw std::invalid_argument("ExplorationRequest: num_seeds == 0");
  // Engine::Run allocates one job per seed, and requests arrive from the
  // wire: bound the count before anything is allocated.
  if (num_seeds > kMaxSeeds)
    throw std::invalid_argument("ExplorationRequest: num_seeds exceeds " +
                                std::to_string(kMaxSeeds));
  if (!(alpha > 0.0 && alpha <= 1.0))
    throw std::invalid_argument("ExplorationRequest: alpha not in (0, 1]");
  RequireInRange("gamma", gamma, 0.0, 1.0);
  RequireInRange("lambda", lambda, 0.0, 1.0);
  RequireInRange("epsilon_start", epsilon_start, 0.0, 1.0);
  RequireInRange("epsilon_end", epsilon_end, 0.0, 1.0);
  if (!std::isfinite(initial_q))
    throw std::invalid_argument("ExplorationRequest: initial_q must be finite");
  if (std::isnan(max_cumulative_reward))
    throw std::invalid_argument(
        "ExplorationRequest: max_cumulative_reward is NaN");
  const std::pair<const char*, double> factors[] = {
      {"accuracy_factor", thresholds.accuracy_factor},
      {"power_factor", thresholds.power_factor},
      {"time_factor", thresholds.time_factor},
      {"max_reward", thresholds.max_reward}};
  for (const auto& [name, value] : factors)
    if (!(std::isfinite(value) && value > 0.0))
      throw std::invalid_argument(std::string("ExplorationRequest: ") + name +
                                  " must be finite and > 0");
}

ExplorerConfig ExplorationRequest::ToExplorerConfig() const {
  ExplorerConfig config;
  config.max_steps = max_steps;
  config.max_cumulative_reward = max_cumulative_reward;
  config.episodes = episodes;
  config.agent_kind = agent_kind;
  config.lambda = lambda;
  config.action_space = action_space;
  config.seed = seed;
  config.record_trace = record_trace;
  config.greedy_rollout_steps = greedy_rollout_steps;
  config.agent.alpha = alpha;
  config.agent.gamma = gamma;
  config.agent.initial_q = initial_q;
  const std::size_t decay =
      epsilon_decay_steps > 0
          ? epsilon_decay_steps
          : std::max<std::size_t>(std::size_t{1}, max_steps * 3 / 4);
  config.agent.epsilon =
      rl::EpsilonSchedule::Linear(epsilon_start, epsilon_end, decay);
  return config;
}

std::string ExplorationRequest::DisplayName() const {
  return label.empty() ? kernel.ToString() : label;
}

std::string ExplorationRequest::ToString() const {
  std::string out;
  ForEachToken(*this, [&out](const char* key, const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, std::string>)
      if (field.empty()) return;
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += FormatValue(field);
  });
  return out;
}

ExplorationRequest ExplorationRequest::Parse(const std::string& text) {
  ExplorationRequest request;
  for (const auto& [key, value] :
       SplitRequestTokens(text, "ExplorationRequest::Parse")) {
    bool known = false;
    ForEachToken(request, [&](const char* name, auto& field) {
      if (known || key != name) return;
      ParseValue(key, value, field);
      known = true;
    });
    if (!known)
      throw std::invalid_argument("ExplorationRequest::Parse: unknown key '" +
                                  key + "'");
  }
  return request;
}

bool operator==(const ExplorationRequest& a, const ExplorationRequest& b) {
  return a.ToString() == b.ToString();
}

bool operator!=(const ExplorationRequest& a, const ExplorationRequest& b) {
  return !(a == b);
}

}  // namespace axdse::dse
