// Tests for dse/request: builder fluency, validation, string round-trip,
// CLI construction, and the lowering to ExplorerConfig.

#include "dse/request.hpp"

#include <gtest/gtest.h>

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

TEST(RequestBuilder, FluentConstruction) {
  const ExplorationRequest request = RequestBuilder("matmul")
                                         .Size(16)
                                         .KernelSeed(2023)
                                         .KernelParam("granularity", "row-col")
                                         .Label("MatMul 16x16")
                                         .Agent(AgentKind::kSarsa)
                                         .ActionSpace(ActionSpaceKind::kCompact)
                                         .MaxSteps(5000)
                                         .RewardCap(250.0)
                                         .Episodes(2)
                                         .Seeds(4)
                                         .Seed(11)
                                         .GreedyRollout(32)
                                         .RecordTrace()
                                         .Alpha(0.2)
                                         .Gamma(0.9)
                                         .Lambda(0.7)
                                         .Epsilon(0.9, 0.1, 1000)
                                         .AccuracyFactor(0.3)
                                         .Build();
  EXPECT_EQ(request.kernel.name, "matmul");
  EXPECT_EQ(request.kernel.size, 16u);
  EXPECT_EQ(request.kernel_seed, 2023u);
  EXPECT_EQ(request.kernel.extra.at("granularity"), "row-col");
  EXPECT_EQ(request.DisplayName(), "MatMul 16x16");
  EXPECT_EQ(request.agent_kind, AgentKind::kSarsa);
  EXPECT_EQ(request.action_space, ActionSpaceKind::kCompact);
  EXPECT_EQ(request.max_steps, 5000u);
  EXPECT_EQ(request.num_seeds, 4u);
  EXPECT_TRUE(request.record_trace);
  EXPECT_DOUBLE_EQ(request.thresholds.accuracy_factor, 0.3);
}

TEST(RequestBuilder, ValidatesOnBuild) {
  EXPECT_THROW(RequestBuilder("").Build(), std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").MaxSteps(0).Build(),
               std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").Seeds(0).Build(), std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").Episodes(0).Build(),
               std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").Alpha(0.0).Build(),
               std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").Gamma(1.5).Build(),
               std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").Epsilon(2.0, 0.1).Build(),
               std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").AccuracyFactor(0.0).Build(),
               std::invalid_argument);
  EXPECT_THROW(RequestBuilder("dot").MaxReward(-1.0).Build(),
               std::invalid_argument);
}

TEST(ExplorationRequest, StringRoundTripIsLossless) {
  const ExplorationRequest request = RequestBuilder("fir")
                                         .Size(100)
                                         .KernelSeed(7)
                                         .KernelParam("taps", "21")
                                         .KernelParam("cutoff", "0.25")
                                         .Label("FIR low pass; 21 taps")
                                         .Agent(AgentKind::kQLambda)
                                         .Lambda(0.85)
                                         .MaxSteps(1234)
                                         .RewardCap(77.5)
                                         .Seeds(3)
                                         .Seed(5)
                                         .Epsilon(0.8, 0.02, 900)
                                         .CheckpointInterval(2500)
                                         .Build();
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
  ExplorationRequest request = RequestBuilder("my kernel; v2")
                                   .KernelParam("note", "a b=c;d%e")
                                   .KernelParam("k =;", "plain")
                                   .Build();
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
  const ExplorationRequest request =
      RequestBuilder("dot").Label("%+a %-1").Build();
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

TEST(ExplorationRequest, FromCliMapsFlagsAndPositional) {
  const char* argv[] = {"bench",          "dot",         "--steps=800",
                        "--seeds=3",      "--alpha=0.2", "--kernel.blocks=8",
                        "--agent=sarsa"};
  const util::CliArgs args(7, argv);
  const ExplorationRequest request = ExplorationRequest::FromCli(args);
  EXPECT_EQ(request.kernel.name, "dot");
  EXPECT_EQ(request.max_steps, 800u);
  EXPECT_EQ(request.num_seeds, 3u);
  EXPECT_DOUBLE_EQ(request.alpha, 0.2);
  EXPECT_EQ(request.kernel.extra.at("blocks"), "8");
  EXPECT_EQ(request.agent_kind, AgentKind::kSarsa);
}

TEST(ExplorationRequest, FromCliBareFlagsAreTraceOrError) {
  const char* trace_argv[] = {"bench", "dot", "--trace"};
  const ExplorationRequest with_trace =
      ExplorationRequest::FromCli(util::CliArgs(3, trace_argv));
  EXPECT_TRUE(with_trace.record_trace);
  // A flag that lost its value must fail loudly, not default silently.
  const char* bare_argv[] = {"bench", "dot", "--steps", "--seed=5"};
  EXPECT_THROW(ExplorationRequest::FromCli(util::CliArgs(4, bare_argv)),
               std::invalid_argument);
}

TEST(ExplorationRequest, LowersToExplorerConfig) {
  const ExplorationRequest request = RequestBuilder("dot")
                                         .MaxSteps(2000)
                                         .RewardCap(300.0)
                                         .Episodes(2)
                                         .Agent(AgentKind::kDoubleQ)
                                         .ActionSpace(ActionSpaceKind::kCompact)
                                         .Seed(9)
                                         .GreedyRollout(16)
                                         .RecordTrace()
                                         .Alpha(0.25)
                                         .Gamma(0.8)
                                         .Epsilon(1.0, 0.1, 0)
                                         .Build();
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

TEST(ExplorationRequest, ExplorerOverrideWinsVerbatim) {
  ExplorerConfig custom;
  custom.max_steps = 42;
  custom.episodes = 3;
  ExplorationRequest request = RequestBuilder("dot").MaxSteps(9999).Build();
  request.explorer_override = custom;
  const ExplorerConfig lowered = request.ToExplorerConfig();
  EXPECT_EQ(lowered.max_steps, 42u);
  EXPECT_EQ(lowered.episodes, 3u);
}

}  // namespace
}  // namespace axdse::dse
