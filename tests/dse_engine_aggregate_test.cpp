// Tests for the Engine's multi-seed aggregation (RequestResult summaries,
// operator votes, determinism) — the aggregates formerly exercised through
// the deleted multi_run shim, now driven through the facade surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "dse/engine.hpp"
#include "workloads/dot_product_kernel.hpp"

namespace axdse::dse {
namespace {

std::shared_ptr<const workloads::Kernel> TestKernel() {
  return std::make_shared<workloads::DotProductKernel>(64, 4, 7);
}

ExplorationRequest FastRequest(std::size_t num_seeds) {
  const auto kernel = TestKernel();
  ExplorationRequest request{.kernel = workloads::KernelSpec(kernel->Name()),
                             .max_steps = 400,
                             .max_cumulative_reward = 1e18,
                             .num_seeds = num_seeds,
                             .seed = 100,
                             .record_trace = false,
                             .epsilon_start = 1.0,
                             .epsilon_end = 0.05,
                             .epsilon_decay_steps = 250,
                             .kernel_override = kernel};
  request.Validate();
  return request;
}

RequestResult RunFast(std::size_t num_seeds) {
  const Engine engine;
  return engine.Run({FastRequest(num_seeds)}).results.front();
}

TEST(EngineAggregate, RunsRequestedSeedCount) {
  const RequestResult result = RunFast(4);
  EXPECT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.solution_delta_power.count, 4u);
  EXPECT_EQ(result.steps.count, 4u);
}

TEST(EngineAggregate, SummariesMatchPerRunData) {
  const RequestResult result = RunFast(5);
  double sum = 0.0;
  double min = 1e300;
  double max = -1e300;
  for (const ExplorationResult& run : result.runs) {
    const double v = run.solution_measurement.delta_power_mw;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_NEAR(result.solution_delta_power.mean, sum / 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.solution_delta_power.min, min);
  EXPECT_DOUBLE_EQ(result.solution_delta_power.max, max);
}

TEST(EngineAggregate, VotesSumToSeedCount) {
  const RequestResult result = RunFast(6);
  std::size_t adder_total = 0;
  for (const auto& [name, count] : result.adder_votes) adder_total += count;
  std::size_t mul_total = 0;
  for (const auto& [name, count] : result.multiplier_votes)
    mul_total += count;
  EXPECT_EQ(adder_total, 6u);
  EXPECT_EQ(mul_total, 6u);
  EXPECT_FALSE(result.ModalAdder().empty());
  EXPECT_FALSE(result.ModalMultiplier().empty());
  EXPECT_GE(result.adder_votes.at(result.ModalAdder()), 1u);
}

TEST(EngineAggregate, SeedsActuallyDiffer) {
  const RequestResult result = RunFast(4);
  // At least the reward sequences must differ between seeds.
  bool any_difference = false;
  for (std::size_t i = 1; i < result.runs.size(); ++i)
    if (result.runs[i].rewards != result.runs[0].rewards)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(EngineAggregate, DeterministicAggregate) {
  const RequestResult a = RunFast(3);
  const RequestResult b = RunFast(3);
  EXPECT_DOUBLE_EQ(a.solution_delta_power.mean, b.solution_delta_power.mean);
  EXPECT_DOUBLE_EQ(a.solution_delta_acc.stddev, b.solution_delta_acc.stddev);
  EXPECT_EQ(a.ModalAdder(), b.ModalAdder());
}

TEST(EngineAggregate, FeasibleFractionInUnitRange) {
  const RequestResult result = RunFast(4);
  EXPECT_GE(result.feasible_fraction, 0.0);
  EXPECT_LE(result.feasible_fraction, 1.0);
}

TEST(EngineAggregate, TracesDroppedForMemory) {
  const RequestResult result = RunFast(2);
  for (const ExplorationResult& run : result.runs)
    EXPECT_TRUE(run.trace.empty());
}

TEST(EngineAggregate, RejectsZeroSeeds) {
  ExplorationRequest request = FastRequest(1);
  request.num_seeds = 0;
  EXPECT_THROW(request.Validate(), std::invalid_argument);
  EXPECT_THROW(Engine().Run({request}), std::invalid_argument);
}

}  // namespace
}  // namespace axdse::dse
