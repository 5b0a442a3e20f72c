#include "dse/request.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/number_format.hpp"
#include "util/record_io.hpp"

namespace axdse::dse {

namespace {

using util::ShortestDouble;

double ParseDouble(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    throw std::invalid_argument("ExplorationRequest::Parse: value '" + value +
                                "' for key '" + key + "' is not a number");
  return v;
}

std::uint64_t ParseUnsigned(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0')
    throw std::invalid_argument("ExplorationRequest::Parse: value '" + value +
                                "' for key '" + key +
                                "' is not a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

bool ParseBool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument("ExplorationRequest::Parse: value '" + value +
                              "' for key '" + key + "' is not a boolean");
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

namespace {

constexpr auto EscapeToken = &EscapeRequestToken;
constexpr auto UnescapeToken = &UnescapeRequestToken;

void RequireInRange(const char* name, double value, double lo, double hi) {
  if (!(value >= lo && value <= hi))
    throw std::invalid_argument(std::string("ExplorationRequest: ") + name +
                                " out of range");
}

}  // namespace

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
  if (!(alpha > 0.0 && alpha <= 1.0))
    throw std::invalid_argument("ExplorationRequest: alpha not in (0, 1]");
  RequireInRange("gamma", gamma, 0.0, 1.0);
  RequireInRange("lambda", lambda, 0.0, 1.0);
  RequireInRange("epsilon_start", epsilon_start, 0.0, 1.0);
  RequireInRange("epsilon_end", epsilon_end, 0.0, 1.0);
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
  if (explorer_override) return *explorer_override;
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
  std::ostringstream out;
  out.imbue(std::locale::classic());  // locale-independent numbers
  // The spec's own escaping leaves no separators, so the token embeds raw;
  // Parse splits tokens on the FIRST '=', so '=' inside the extras block is
  // safe.
  out << "kernel=" << kernel.ToString();
  out << " kernel-seed=" << kernel_seed;
  out << " agent=" << dse::ToString(agent_kind);
  out << " action-space=" << dse::ToString(action_space);
  out << " steps=" << max_steps;
  out << " reward-cap=" << ShortestDouble(max_cumulative_reward);
  out << " episodes=" << episodes;
  out << " seeds=" << num_seeds;
  out << " seed=" << seed;
  out << " rollout=" << greedy_rollout_steps;
  out << " trace=" << (record_trace ? 1 : 0);
  out << " cache=" << dse::ToString(cache_mode);
  out << " cache-capacity=" << cache_capacity;
  out << " checkpoint-interval=" << checkpoint_interval;
  out << " surrogate=" << (surrogate ? 1 : 0);
  out << " alpha=" << ShortestDouble(alpha);
  out << " gamma=" << ShortestDouble(gamma);
  out << " initial-q=" << ShortestDouble(initial_q);
  out << " lambda=" << ShortestDouble(lambda);
  out << " eps-start=" << ShortestDouble(epsilon_start);
  out << " eps-end=" << ShortestDouble(epsilon_end);
  out << " eps-decay=" << epsilon_decay_steps;
  out << " acc-factor=" << ShortestDouble(thresholds.accuracy_factor);
  out << " power-factor=" << ShortestDouble(thresholds.power_factor);
  out << " time-factor=" << ShortestDouble(thresholds.time_factor);
  out << " max-reward=" << ShortestDouble(thresholds.max_reward);
  if (!label.empty()) out << " label=" << EscapeToken(label);
  return out.str();
}

ExplorationRequest ExplorationRequest::Parse(const std::string& text) {
  ExplorationRequest request;
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));

  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument(
          "ExplorationRequest::Parse: token '" + token +
          "' is not of the form key=value");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kernel") {
      request.kernel = workloads::KernelSpec::Parse(value);
    } else if (key == "kernel-seed") {
      request.kernel_seed = ParseUnsigned(key, value);
    } else if (key == "agent") {
      request.agent_kind = AgentKindFromName(value);
    } else if (key == "action-space") {
      request.action_space = ActionSpaceFromName(value);
    } else if (key == "steps") {
      request.max_steps = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "reward-cap") {
      request.max_cumulative_reward = ParseDouble(key, value);
    } else if (key == "episodes") {
      request.episodes = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "seeds") {
      request.num_seeds = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "seed") {
      request.seed = ParseUnsigned(key, value);
    } else if (key == "rollout") {
      request.greedy_rollout_steps =
          static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "trace") {
      request.record_trace = ParseBool(key, value);
    } else if (key == "cache") {
      request.cache_mode = CacheModeFromName(value);
    } else if (key == "cache-capacity") {
      request.cache_capacity =
          static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "checkpoint-interval") {
      request.checkpoint_interval =
          static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "surrogate") {
      request.surrogate = ParseBool(key, value);
    } else if (key == "alpha") {
      request.alpha = ParseDouble(key, value);
    } else if (key == "gamma") {
      request.gamma = ParseDouble(key, value);
    } else if (key == "initial-q") {
      request.initial_q = ParseDouble(key, value);
    } else if (key == "lambda") {
      request.lambda = ParseDouble(key, value);
    } else if (key == "eps-start") {
      request.epsilon_start = ParseDouble(key, value);
    } else if (key == "eps-end") {
      request.epsilon_end = ParseDouble(key, value);
    } else if (key == "eps-decay") {
      request.epsilon_decay_steps =
          static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "acc-factor") {
      request.thresholds.accuracy_factor = ParseDouble(key, value);
    } else if (key == "power-factor") {
      request.thresholds.power_factor = ParseDouble(key, value);
    } else if (key == "time-factor") {
      request.thresholds.time_factor = ParseDouble(key, value);
    } else if (key == "max-reward") {
      request.thresholds.max_reward = ParseDouble(key, value);
    } else if (key == "label") {
      request.label = UnescapeToken(value);
    } else {
      throw std::invalid_argument("ExplorationRequest::Parse: unknown key '" +
                                  key + "'");
    }
  }
  return request;
}

ExplorationRequest ExplorationRequest::FromCli(const util::CliArgs& args) {
  // The kernel identity is assembled from the convenience flags first: the
  // positional argument (a full spec string, e.g. "matmul@10{blocks=8}" or
  // just a name), --kernel=<spec>, --size=N, and --kernel.KEY=VALUE all
  // fold into one KernelSpec emitted as a single kernel= token.
  workloads::KernelSpec spec;
  bool have_spec = false;
  if (!args.Positional().empty()) {
    spec = workloads::KernelSpec::Parse(args.Positional()[0]);
    have_spec = true;
  }
  std::string text;
  for (const auto& [key, value] : args.Flags()) {
    if (value.empty()) {
      // The only meaningful bare flags are the booleans: --trace == trace=1,
      // --surrogate == surrogate=1. Anything else bare is a flag that lost
      // its value — fail loudly rather than silently falling back to the
      // default.
      if (key == "trace" || key == "surrogate") {
        text += (text.empty() ? "" : " ") + key + "=1";
        continue;
      }
      throw std::invalid_argument("ExplorationRequest::FromCli: flag --" +
                                  key + " has no value");
    }
    if (key == "kernel") {
      spec = workloads::KernelSpec::Parse(value);
      have_spec = true;
      continue;
    }
    if (key == "size") {
      spec.size = static_cast<std::size_t>(ParseUnsigned(key, value));
      have_spec = true;
      continue;
    }
    if (key.rfind("kernel.", 0) == 0) {
      const std::string extra_key = key.substr(7);
      if (extra_key.empty())
        throw std::invalid_argument(
            "ExplorationRequest::FromCli: empty kernel extra key");
      spec.extra[extra_key] = value;
      have_spec = true;
      continue;
    }
    text += (text.empty() ? "" : " ") + key + "=" + value;
  }
  if (have_spec) {
    const std::string spec_token = "kernel=" + spec.ToString();
    text = text.empty() ? spec_token : spec_token + " " + text;
  }
  return Parse(text);
}

bool operator==(const ExplorationRequest& a, const ExplorationRequest& b) {
  return a.ToString() == b.ToString();
}

bool operator!=(const ExplorationRequest& a, const ExplorationRequest& b) {
  return !(a == b);
}

RequestBuilder::RequestBuilder(std::string kernel) {
  request_.kernel.name = std::move(kernel);
}

RequestBuilder::RequestBuilder(
    std::shared_ptr<const workloads::Kernel> kernel) {
  KernelInstance(std::move(kernel));
}

RequestBuilder& RequestBuilder::Kernel(std::string name) {
  request_.kernel.name = std::move(name);
  return *this;
}

RequestBuilder& RequestBuilder::Spec(workloads::KernelSpec spec) {
  request_.kernel = std::move(spec);
  return *this;
}

RequestBuilder& RequestBuilder::KernelInstance(
    std::shared_ptr<const workloads::Kernel> k) {
  if (!k)
    throw std::invalid_argument("RequestBuilder::KernelInstance: null kernel");
  request_.kernel.name = k->Name();
  request_.kernel_override = std::move(k);
  return *this;
}

RequestBuilder& RequestBuilder::Size(std::size_t size) {
  request_.kernel.size = size;
  return *this;
}

RequestBuilder& RequestBuilder::KernelSeed(std::uint64_t seed) {
  request_.kernel_seed = seed;
  return *this;
}

RequestBuilder& RequestBuilder::KernelParam(const std::string& key,
                                            std::string value) {
  request_.kernel.extra[key] = std::move(value);
  return *this;
}

RequestBuilder& RequestBuilder::Label(std::string label) {
  request_.label = std::move(label);
  return *this;
}

RequestBuilder& RequestBuilder::Agent(AgentKind kind) {
  request_.agent_kind = kind;
  return *this;
}

RequestBuilder& RequestBuilder::Agent(const std::string& name) {
  request_.agent_kind = AgentKindFromName(name);
  return *this;
}

RequestBuilder& RequestBuilder::ActionSpace(ActionSpaceKind kind) {
  request_.action_space = kind;
  return *this;
}

RequestBuilder& RequestBuilder::MaxSteps(std::size_t steps) {
  request_.max_steps = steps;
  return *this;
}

RequestBuilder& RequestBuilder::RewardCap(double cap) {
  request_.max_cumulative_reward = cap;
  return *this;
}

RequestBuilder& RequestBuilder::Episodes(std::size_t episodes) {
  request_.episodes = episodes;
  return *this;
}

RequestBuilder& RequestBuilder::Seeds(std::size_t num_seeds) {
  request_.num_seeds = num_seeds;
  return *this;
}

RequestBuilder& RequestBuilder::Seed(std::uint64_t seed) {
  request_.seed = seed;
  return *this;
}

RequestBuilder& RequestBuilder::GreedyRollout(std::size_t steps) {
  request_.greedy_rollout_steps = steps;
  return *this;
}

RequestBuilder& RequestBuilder::RecordTrace(bool record) {
  request_.record_trace = record;
  return *this;
}

RequestBuilder& RequestBuilder::Cache(CacheMode mode) {
  request_.cache_mode = mode;
  return *this;
}

RequestBuilder& RequestBuilder::SharedCache(bool shared) {
  request_.cache_mode = shared ? CacheMode::kShared : CacheMode::kPrivate;
  return *this;
}

RequestBuilder& RequestBuilder::CacheCapacity(std::size_t capacity) {
  request_.cache_capacity = capacity;
  return *this;
}

RequestBuilder& RequestBuilder::CheckpointInterval(std::size_t steps) {
  request_.checkpoint_interval = steps;
  return *this;
}

RequestBuilder& RequestBuilder::Surrogate(bool enabled) {
  request_.surrogate = enabled;
  return *this;
}

RequestBuilder& RequestBuilder::Alpha(double alpha) {
  request_.alpha = alpha;
  return *this;
}

RequestBuilder& RequestBuilder::Gamma(double gamma) {
  request_.gamma = gamma;
  return *this;
}

RequestBuilder& RequestBuilder::InitialQ(double q) {
  request_.initial_q = q;
  return *this;
}

RequestBuilder& RequestBuilder::Lambda(double lambda) {
  request_.lambda = lambda;
  return *this;
}

RequestBuilder& RequestBuilder::Epsilon(double start, double end,
                                        std::size_t decay_steps) {
  request_.epsilon_start = start;
  request_.epsilon_end = end;
  request_.epsilon_decay_steps = decay_steps;
  return *this;
}

RequestBuilder& RequestBuilder::Thresholds(
    const PaperThresholdFactors& factors) {
  request_.thresholds = factors;
  return *this;
}

RequestBuilder& RequestBuilder::AccuracyFactor(double factor) {
  request_.thresholds.accuracy_factor = factor;
  return *this;
}

RequestBuilder& RequestBuilder::PowerFactor(double factor) {
  request_.thresholds.power_factor = factor;
  return *this;
}

RequestBuilder& RequestBuilder::TimeFactor(double factor) {
  request_.thresholds.time_factor = factor;
  return *this;
}

RequestBuilder& RequestBuilder::MaxReward(double reward) {
  request_.thresholds.max_reward = reward;
  return *this;
}

ExplorationRequest RequestBuilder::Build() const {
  request_.Validate();
  return request_;
}

}  // namespace axdse::dse
