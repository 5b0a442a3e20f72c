// Tests for dse/explorer: end-to-end Q-learning exploration on fast kernels,
// trace integrity, reproducibility, stop rules.

#include "dse/explorer.hpp"

#include <gtest/gtest.h>

#include "workloads/dot_product_kernel.hpp"
#include "workloads/matmul_kernel.hpp"

namespace axdse::dse {
namespace {

ExplorerConfig FastExplorer(std::uint64_t seed = 1) {
  ExplorerConfig config;
  config.max_steps = 1500;
  config.max_cumulative_reward = 200.0;
  config.agent.alpha = 0.2;
  config.agent.gamma = 0.9;
  config.agent.epsilon = rl::EpsilonSchedule::Linear(1.0, 0.05, 800);
  config.seed = seed;
  return config;
}

/// One exploration with the paper's default reward recipe.
ExplorationResult Explore(const workloads::Kernel& kernel,
                          const ExplorerConfig& config) {
  Evaluator evaluator(kernel);
  const RewardConfig reward = MakePaperRewardConfig(evaluator);
  Explorer explorer(evaluator, reward, config);
  return explorer.Explore();
}

TEST(ObjectiveRange, UpdateTracksMinAndMax) {
  ObjectiveRange range;
  range.Update(3.0);
  range.Update(-1.0);
  range.Update(2.0);
  EXPECT_DOUBLE_EQ(range.min, -1.0);
  EXPECT_DOUBLE_EQ(range.max, 3.0);
}

// Regression: a NaN Δ (e.g. an undefined relative measurement) must leave
// the range untouched instead of poisoning it for the rest of the run.
TEST(ObjectiveRange, UpdateIgnoresNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ObjectiveRange range;
  range.Update(nan);  // NaN before any real observation
  EXPECT_TRUE(std::isinf(range.min));
  EXPECT_TRUE(std::isinf(range.max));
  range.Update(1.0);
  range.Update(nan);  // NaN mid-stream
  range.Update(5.0);
  EXPECT_DOUBLE_EQ(range.min, 1.0);
  EXPECT_DOUBLE_EQ(range.max, 5.0);
  EXPECT_FALSE(std::isnan(range.min));
  EXPECT_FALSE(std::isnan(range.max));
}

TEST(Explorer, RunsAndProducesConsistentResult) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult result = Explore(kernel, FastExplorer());
  EXPECT_GT(result.steps, 0u);
  EXPECT_LE(result.steps, 1500u);
  EXPECT_EQ(result.trace.size(), result.steps);
  EXPECT_EQ(result.rewards.size(), result.steps);
  EXPECT_FALSE(result.solution_adder.empty());
  EXPECT_FALSE(result.solution_multiplier.empty());
}

// Regression: a finished run's progress reading (what the engine reports
// with its finish event) counted the last episode twice.
TEST(Explorer, CumulativeRewardSoFarOfAFinishedRunMatchesItsResult) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  for (const std::size_t episodes : {std::size_t{1}, std::size_t{3}}) {
    Evaluator evaluator(kernel);
    ExplorerConfig config = FastExplorer();
    config.max_steps = 40;
    config.max_cumulative_reward = 1e18;
    config.episodes = episodes;
    Explorer explorer(evaluator, MakePaperRewardConfig(evaluator), config);
    explorer.RunSteps(40 * episodes);
    ASSERT_TRUE(explorer.Finished());
    const double live = explorer.CumulativeRewardSoFar();
    EXPECT_EQ(live, explorer.Finish().cumulative_reward) << episodes;
  }
}

TEST(Explorer, RangesBracketSolution) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult result = Explore(kernel, FastExplorer());
  EXPECT_LE(result.delta_power.min,
            result.solution_measurement.delta_power_mw);
  EXPECT_GE(result.delta_power.max,
            result.solution_measurement.delta_power_mw);
  EXPECT_LE(result.delta_time.min, result.solution_measurement.delta_time_ns);
  EXPECT_GE(result.delta_time.max, result.solution_measurement.delta_time_ns);
  EXPECT_LE(result.delta_acc.min, result.solution_measurement.delta_acc);
  EXPECT_GE(result.delta_acc.max, result.solution_measurement.delta_acc);
}

TEST(Explorer, TraceIsInternallyConsistent) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult result = Explore(kernel, FastExplorer());
  double cumulative = 0.0;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const StepRecord& r = result.trace[i];
    EXPECT_EQ(r.step, i);
    cumulative += r.reward;
    EXPECT_DOUBLE_EQ(r.cumulative_reward, cumulative);
    EXPECT_DOUBLE_EQ(r.reward, result.rewards[i]);
  }
  // Final trace entry is the solution.
  EXPECT_EQ(result.trace.back().config, result.solution);
}

TEST(Explorer, ReproducibleUnderSameSeed) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult a = Explore(kernel, FastExplorer(5));
  const ExplorationResult b = Explore(kernel, FastExplorer(5));
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.solution, b.solution);
  EXPECT_EQ(a.rewards, b.rewards);
  EXPECT_DOUBLE_EQ(a.cumulative_reward, b.cumulative_reward);
}

TEST(Explorer, DifferentSeedsExploreDifferently) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult a = Explore(kernel, FastExplorer(1));
  const ExplorationResult b = Explore(kernel, FastExplorer(2));
  EXPECT_NE(a.rewards, b.rewards);
}

TEST(Explorer, StopsForOneOfThePaperReasons) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult result = Explore(kernel, FastExplorer());
  const bool valid = result.stop_reason == rl::StopReason::kTerminated ||
                     result.stop_reason == rl::StopReason::kRewardCap ||
                     result.stop_reason == rl::StopReason::kStepLimit;
  EXPECT_TRUE(valid);
}

TEST(Explorer, RewardCapStopsEarly) {
  // A tiny reward cap must cut the episode far before the step cap.
  const workloads::DotProductKernel kernel(64, 4, 7);
  ExplorerConfig config = FastExplorer();
  config.max_cumulative_reward = 3.0;
  const ExplorationResult result = Explore(kernel, config);
  if (result.stop_reason == rl::StopReason::kRewardCap) {
    EXPECT_LT(result.steps, config.max_steps);
  }
}

TEST(Explorer, CacheMakesRevisitsFree) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult result = Explore(kernel, FastExplorer());
  // Visited states form a tiny space (6*6*8); most steps must be cache hits.
  EXPECT_LT(result.kernel_runs, result.steps);
  EXPECT_GT(result.cache_hits, 0u);
}

TEST(Explorer, RecordTraceOffSkipsTrace) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  ExplorerConfig config = FastExplorer();
  config.record_trace = false;
  const ExplorationResult result = Explore(kernel, config);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_FALSE(result.rewards.empty());  // rewards always kept (Figure 4)
}

TEST(Explorer, SolutionRespectsAccuracyThresholdOnEasyKernel) {
  // With the paper thresholds on a small matmul, the final configuration
  // must be feasible (the -R penalty teaches the agent to stay feasible).
  const workloads::MatMulKernel kernel(
      6, workloads::MatMulGranularity::kRowCol, 11);
  Evaluator evaluator(kernel);
  const RewardConfig reward = MakePaperRewardConfig(evaluator);
  Explorer explorer(evaluator, reward, FastExplorer(3));
  const ExplorationResult result = explorer.Explore();
  EXPECT_LE(result.solution_measurement.delta_acc, reward.acc_threshold);
}

TEST(Explorer, CompactActionSpaceAlsoRuns) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  ExplorerConfig config = FastExplorer();
  config.action_space = ActionSpaceKind::kCompact;
  const ExplorationResult result = Explore(kernel, config);
  EXPECT_GT(result.steps, 0u);
}

TEST(Explorer, SolutionOperatorNamesComeFromCatalog) {
  const workloads::DotProductKernel kernel(64, 4, 7);
  const ExplorationResult result = Explore(kernel, FastExplorer());
  const auto& ops = kernel.Operators();
  EXPECT_EQ(result.solution_adder,
            ops.adders[result.solution.AdderIndex()].type_code);
  EXPECT_EQ(result.solution_multiplier,
            ops.multipliers[result.solution.MultiplierIndex()].type_code);
}

}  // namespace
}  // namespace axdse::dse
