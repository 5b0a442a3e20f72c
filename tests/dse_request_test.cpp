// Tests for dse/request: plain-field construction, validation, the token
// grammar (round trip, strict numbers, locale independence), and the
// lowering to ExplorerConfig.

#include "dse/request.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <limits>
#include <string>

#include "dse/engine.hpp"

namespace axdse::dse {
namespace {

TEST(AgentNames, RoundTripAllKinds) {
  for (const AgentKind kind :
       {AgentKind::kQLearning, AgentKind::kSarsa, AgentKind::kExpectedSarsa,
        AgentKind::kDoubleQ, AgentKind::kQLambda})
    EXPECT_EQ(AgentKindFromName(ToString(kind)), kind);
  EXPECT_THROW(AgentKindFromName("gradient-descent"), std::invalid_argument);
}

TEST(ActionSpaceNames, RoundTripAllKinds) {
  for (const ActionSpaceKind kind :
       {ActionSpaceKind::kFull, ActionSpaceKind::kCompact})
    EXPECT_EQ(ActionSpaceFromName(ToString(kind)), kind);
  EXPECT_THROW(ActionSpaceFromName("diagonal"), std::invalid_argument);
}

TEST(ExplorationRequest, FieldsDescribeTheRun) {
  ExplorationRequest request{
      .kernel = workloads::KernelSpec("matmul", 16),
      .kernel_seed = 2023,
      .label = "MatMul 16x16",
      .agent_kind = AgentKind::kSarsa,
      .action_space = ActionSpaceKind::kCompact,
      .max_steps = 5000,
      .max_cumulative_reward = 250.0,
      .episodes = 2,
      .num_seeds = 4,
      .seed = 11,
      .greedy_rollout_steps = 32,
      .record_trace = true,
      .alpha = 0.2,
      .gamma = 0.9,
      .lambda = 0.7,
      .epsilon_start = 0.9,
      .epsilon_end = 0.1,
      .epsilon_decay_steps = 1000,
      .thresholds = {.accuracy_factor = 0.3}};
  request.kernel.extra["granularity"] = "row-col";
  EXPECT_NO_THROW(request.Validate());
  EXPECT_EQ(request.DisplayName(), "MatMul 16x16");
  // Fields left out keep their defaults.
  EXPECT_DOUBLE_EQ(request.thresholds.power_factor, 0.5);
  EXPECT_EQ(request.cache_mode, CacheMode::kPrivate);
  EXPECT_EQ(request.ToString(),
            "kernel=matmul@16{granularity=row-col} kernel-seed=2023 "
            "agent=sarsa action-space=compact steps=5000 reward-cap=250 "
            "episodes=2 seeds=4 seed=11 rollout=32 trace=1 cache=private "
            "cache-capacity=0 checkpoint-interval=0 surrogate=0 alpha=0.2 "
            "gamma=0.9 initial-q=0 lambda=0.7 eps-start=0.9 eps-end=0.1 "
            "eps-decay=1000 acc-factor=0.3 power-factor=0.5 time-factor=0.5 "
            "max-reward=100 label=MatMul%2016x16");
}

TEST(ExplorationRequest, ValidateRejectsOutOfRangeFields) {
  const auto invalid = [](auto mutate) {
    ExplorationRequest request{.kernel = workloads::KernelSpec("dot")};
    mutate(request);
    return request;
  };
  const ExplorationRequest cases[] = {
      invalid([](ExplorationRequest& r) { r.kernel.name.clear(); }),
      invalid([](ExplorationRequest& r) { r.max_steps = 0; }),
      invalid([](ExplorationRequest& r) { r.num_seeds = 0; }),
      invalid([](ExplorationRequest& r) { r.num_seeds = kMaxSeeds + 1; }),
      invalid([](ExplorationRequest& r) { r.episodes = 0; }),
      invalid([](ExplorationRequest& r) { r.alpha = 0.0; }),
      invalid([](ExplorationRequest& r) { r.gamma = 1.5; }),
      invalid([](ExplorationRequest& r) { r.epsilon_start = 2.0; }),
      invalid([](ExplorationRequest& r) { r.thresholds.accuracy_factor = 0; }),
      invalid([](ExplorationRequest& r) { r.thresholds.max_reward = -1.0; }),
      invalid([](ExplorationRequest& r) {
        r.initial_q = std::numeric_limits<double>::infinity();
      }),
      invalid([](ExplorationRequest& r) {
        r.initial_q = std::numeric_limits<double>::quiet_NaN();
      }),
  };
  for (const ExplorationRequest& request : cases)
    EXPECT_THROW(request.Validate(), std::invalid_argument)
        << request.ToString();
}

TEST(ExplorationRequest, ValidateBoundsTheSeedCountBeforeAnyJobExists) {
  // Engine::Run allocates one job per seed: a wire request asking for
  // 2^64 - 1 seeds must fail validation, not the allocator.
  const ExplorationRequest huge =
      ExplorationRequest::Parse("kernel=dot seeds=18446744073709551615");
  EXPECT_THROW(huge.Validate(), std::invalid_argument);
  EXPECT_THROW(Engine(EngineOptions{1}).Run({huge}), std::invalid_argument);
  ExplorationRequest most{.kernel = workloads::KernelSpec("dot")};
  most.num_seeds = kMaxSeeds;
  EXPECT_NO_THROW(most.Validate());
}

TEST(ExplorationRequest, ValidateRequiresANameOrANonNullInstance) {
  ExplorationRequest request;
  request.kernel_override = nullptr;
  EXPECT_THROW(request.Validate(), std::invalid_argument);
  request.kernel_override = workloads::KernelRegistry::Global().Create(
      workloads::KernelSpec("dot", 8), 1);
  EXPECT_NO_THROW(request.Validate());
}

TEST(ExplorationRequest, StringRoundTripIsLossless) {
  ExplorationRequest request{.kernel = workloads::KernelSpec("fir", 100),
                             .kernel_seed = 7,
                             .label = "FIR low pass; 21 taps",
                             .agent_kind = AgentKind::kQLambda,
                             .max_steps = 1234,
                             .max_cumulative_reward = 77.5,
                             .num_seeds = 3,
                             .seed = 5,
                             .checkpoint_interval = 2500,
                             .lambda = 0.85,
                             .epsilon_start = 0.8,
                             .epsilon_end = 0.02,
                             .epsilon_decay_steps = 900};
  request.kernel.extra = {{"taps", "21"}, {"cutoff", "0.25"}};
  request.Validate();
  const ExplorationRequest parsed =
      ExplorationRequest::Parse(request.ToString());
  EXPECT_EQ(parsed, request);
  EXPECT_EQ(parsed.label, "FIR low pass; 21 taps");
  EXPECT_EQ(parsed.kernel.extra.at("taps"), "21");
  EXPECT_EQ(parsed.checkpoint_interval, 2500u);
  // Round-trip is a fixed point.
  EXPECT_EQ(parsed.ToString(), request.ToString());
}

TEST(ExplorationRequest, FreeTextFieldsRoundTripWithSeparators) {
  // Kernel names and extra keys/values may contain spaces, ';', '=', '%':
  // serialization must stay lossless (regression for unescaped extras).
  ExplorationRequest request{.kernel = workloads::KernelSpec("my kernel; v2")};
  request.kernel.extra = {{"note", "a b=c;d%e"}, {"k =;", "plain"}};
  const ExplorationRequest parsed =
      ExplorationRequest::Parse(request.ToString());
  EXPECT_EQ(parsed.kernel.name, "my kernel; v2");
  EXPECT_EQ(parsed.kernel.extra.at("note"), "a b=c;d%e");
  EXPECT_EQ(parsed.kernel.extra.at("k =;"), "plain");
  EXPECT_EQ(parsed, request);
}

TEST(ExplorationRequest, EscapeDecoderTakesExactlyTwoHexDigits) {
  // A sign is not a hex digit: "%+a" and "%-1" used to decode to a newline
  // and 0xFF. Anything but '%' plus two hex digits stays literal.
  EXPECT_EQ(UnescapeRequestToken("%+a"), "%+a");
  EXPECT_EQ(UnescapeRequestToken("%-1"), "%-1");
  EXPECT_EQ(UnescapeRequestToken("% 9"), "% 9");
  EXPECT_EQ(UnescapeRequestToken("%zz%4"), "%zz%4");
  EXPECT_EQ(UnescapeRequestToken("%0a%3D%25"), "\n=%");
  EXPECT_EQ(EscapeRequestToken("a b=c;d%\t"), "a%20b%3dc%3bd%25%09");
  // Labels carrying those sequences survive a round trip unchanged.
  const ExplorationRequest request{.kernel = workloads::KernelSpec("dot"),
                                  .label = "%+a %-1"};
  EXPECT_EQ(ExplorationRequest::Parse(request.ToString()).label, "%+a %-1");
}

TEST(ExplorationRequest, ParseAcceptsSemicolonsAndRejectsJunk) {
  const ExplorationRequest request =
      ExplorationRequest::Parse("kernel=dot; steps=500; seeds=2");
  EXPECT_EQ(request.kernel.name, "dot");
  EXPECT_EQ(request.max_steps, 500u);
  EXPECT_EQ(request.num_seeds, 2u);
  EXPECT_THROW(ExplorationRequest::Parse("kernel=dot frobnicate=1"),
               std::invalid_argument);
  EXPECT_THROW(ExplorationRequest::Parse("kernel"), std::invalid_argument);
  EXPECT_THROW(ExplorationRequest::Parse("kernel=dot steps=soon"),
               std::invalid_argument);
  EXPECT_THROW(ExplorationRequest::Parse("kernel=dot agent=astrology"),
               std::invalid_argument);
}

TEST(ExplorationRequest, KernelSpecTokenCarriesSizeAndExtras) {
  const ExplorationRequest request = ExplorationRequest::Parse(
      "kernel=matmul@12{granularity=row-col} kernel-seed=9 steps=100");
  EXPECT_EQ(request.kernel.name, "matmul");
  EXPECT_EQ(request.kernel.size, 12u);
  EXPECT_EQ(request.kernel.extra.at("granularity"), "row-col");
  EXPECT_EQ(request.kernel_seed, 9u);
}

TEST(ExplorationRequest, OldKernelGrammarIsRejected) {
  // The pre-KernelSpec tokens must fail loudly, not silently no-op.
  EXPECT_THROW(ExplorationRequest::Parse("kernel=dot size=64"),
               std::invalid_argument);
  EXPECT_THROW(ExplorationRequest::Parse("kernel=dot kernel.blocks=8"),
               std::invalid_argument);
}

TEST(ExplorationRequest, LowersToExplorerConfig) {
  const ExplorationRequest request{
      .kernel = workloads::KernelSpec("dot"),
      .agent_kind = AgentKind::kDoubleQ,
      .action_space = ActionSpaceKind::kCompact,
      .max_steps = 2000,
      .max_cumulative_reward = 300.0,
      .episodes = 2,
      .seed = 9,
      .greedy_rollout_steps = 16,
      .record_trace = true,
      .alpha = 0.25,
      .gamma = 0.8,
      .epsilon_start = 1.0,
      .epsilon_end = 0.1,
      .epsilon_decay_steps = 0};
  const ExplorerConfig config = request.ToExplorerConfig();
  EXPECT_EQ(config.max_steps, 2000u);
  EXPECT_DOUBLE_EQ(config.max_cumulative_reward, 300.0);
  EXPECT_EQ(config.episodes, 2u);
  EXPECT_EQ(config.agent_kind, AgentKind::kDoubleQ);
  EXPECT_EQ(config.action_space, ActionSpaceKind::kCompact);
  EXPECT_EQ(config.seed, 9u);
  EXPECT_EQ(config.greedy_rollout_steps, 16u);
  EXPECT_TRUE(config.record_trace);
  EXPECT_DOUBLE_EQ(config.agent.alpha, 0.25);
  EXPECT_DOUBLE_EQ(config.agent.gamma, 0.8);
  // decay=0 resolves to 3/4 of max_steps: epsilon still 1.0 at step 0 and
  // 0.1 from step 1500 on.
  EXPECT_DOUBLE_EQ(config.agent.epsilon.Value(0), 1.0);
  EXPECT_DOUBLE_EQ(config.agent.epsilon.Value(1500), 0.1);
  EXPECT_GT(config.agent.epsilon.Value(750), 0.1);
}

// Every integer token, every double token.
constexpr const char* kIntegerKeys[] = {
    "kernel-seed", "steps", "episodes", "seeds", "seed",
    "rollout", "cache-capacity", "checkpoint-interval", "eps-decay"};
constexpr const char* kDoubleKeys[] = {
    "reward-cap", "alpha", "gamma", "initial-q", "lambda", "eps-start",
    "eps-end", "acc-factor", "power-factor", "time-factor", "max-reward"};

/// The message of the std::invalid_argument Parse throws for `text`, or ""
/// when it parses.
std::string ParseError(const std::string& text) {
  try {
    ExplorationRequest::Parse(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ExplorationRequest, ParseRejectsSignedIntegers) {
  // strtoull used to wrap "-1" to 2^64-1: seeds=-1 then asked the engine
  // for 2^64-1 jobs.
  for (const char* key : kIntegerKeys) {
    for (const char* value : {"-1", "+7", "nan", "inf", "1e3", "7x"}) {
      const std::string error =
          ParseError(std::string("kernel=dot ") + key + "=" + value);
      EXPECT_NE(error.find(std::string("'") + key + "'"), std::string::npos)
          << key << "=" << value << " -> [" << error << "]";
    }
    EXPECT_EQ(ParseError(std::string("kernel=dot ") + key + "=7"), "");
  }
  EXPECT_NE(ParseError("kernel=dot seeds=18446744073709551616"), "");
}

TEST(ExplorationRequest, ParseRejectsNanAndSignedDoubles) {
  for (const char* key : kDoubleKeys) {
    for (const char* value : {"nan", "NaN", "-nan", "+7", "0x1p3", "1,5"}) {
      const std::string error =
          ParseError(std::string("kernel=dot ") + key + "=" + value);
      EXPECT_NE(error.find(std::string("'") + key + "'"), std::string::npos)
          << key << "=" << value << " -> [" << error << "]";
    }
    // A minus sign is part of the number; range checks are Validate's.
    EXPECT_EQ(ParseError(std::string("kernel=dot ") + key + "=-1"), "");
  }
}

TEST(ExplorationRequest, InfinityParsesAndValidateBoundsIt) {
  // An unreachable reward cap is legitimate and round-trips.
  const ExplorationRequest capless =
      ExplorationRequest::Parse("kernel=dot reward-cap=inf");
  EXPECT_NO_THROW(capless.Validate());
  EXPECT_EQ(ExplorationRequest::Parse(capless.ToString()), capless);
  // An infinite initial Q would poison every Q-table entry.
  const ExplorationRequest infinite_q =
      ExplorationRequest::Parse("kernel=dot initial-q=inf");
  EXPECT_THROW(infinite_q.Validate(), std::invalid_argument);
  EXPECT_THROW(
      ExplorationRequest::Parse("kernel=dot initial-q=-inf").Validate(),
      std::invalid_argument);
  EXPECT_THROW(ExplorationRequest::Parse("kernel=dot alpha=inf").Validate(),
               std::invalid_argument);
  EXPECT_THROW(
      ExplorationRequest::Parse("kernel=dot acc-factor=inf").Validate(),
      std::invalid_argument);
}

TEST(ExplorationRequest, ParseIgnoresTheCNumericLocale) {
  // strtod honours LC_NUMERIC: under a comma-decimal locale it stopped at
  // the '.' and rejected every fractional value.
  const std::string previous = std::setlocale(LC_NUMERIC, nullptr);
  const char* found = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                           "fr_FR.utf8", "fr_FR"})
    if ((found = std::setlocale(LC_NUMERIC, name)) != nullptr) break;
  if (found == nullptr) GTEST_SKIP() << "no comma-decimal locale installed";
  ExplorationRequest parsed;
  std::string error;
  try {
    parsed = ExplorationRequest::Parse("kernel=dot alpha=0.25 gamma=0.5");
  } catch (const std::invalid_argument& e) {
    error = e.what();
  }
  std::setlocale(LC_NUMERIC, previous.c_str());
  EXPECT_EQ(error, "");
  EXPECT_DOUBLE_EQ(parsed.alpha, 0.25);
  EXPECT_DOUBLE_EQ(parsed.gamma, 0.5);
}

}  // namespace
}  // namespace axdse::dse
