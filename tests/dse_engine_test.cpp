// Tests for dse/engine: parallel batch execution, worker-count-independent
// determinism (byte-identical exports), equivalence with the serial path,
// aggregation, and error propagation.

#include "dse/engine.hpp"

#include <gtest/gtest.h>

#include "report/export.hpp"
#include "workloads/dot_product_kernel.hpp"

namespace axdse::dse {
namespace {

BatchResult SingleResultBatch(const RequestResult& result) {
  BatchResult batch;
  batch.results.push_back(result);
  return batch;
}

ExplorationRequest FastRequest(std::uint64_t seed, std::size_t num_seeds = 1,
                               std::size_t size = 64) {
  ExplorationRequest request{.kernel = workloads::KernelSpec("dot", size),
                             .kernel_seed = 7,
                             .max_steps = 300,
                             .max_cumulative_reward = 1e18,
                             .num_seeds = num_seeds,
                             .seed = seed,
                             .epsilon_start = 1.0,
                             .epsilon_end = 0.05,
                             .epsilon_decay_steps = 200};
  request.Validate();
  return request;
}

TEST(Engine, BatchResultsComeBackInRequestOrder) {
  const std::vector<ExplorationRequest> requests = {
      FastRequest(1, 1, 64), FastRequest(2, 1, 48), FastRequest(3, 1, 32),
      FastRequest(4, 2, 24)};
  const BatchResult batch = Engine(EngineOptions{2}).Run(requests);
  ASSERT_EQ(batch.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(batch.results[i].request.seed, requests[i].seed);
  EXPECT_EQ(batch.results[3].runs.size(), 2u);
  EXPECT_EQ(batch.TotalRuns(), 5u);
  EXPECT_GT(batch.TotalSteps(), 0u);
}

// The acceptance test of the redesign: a >= 4-request batch run with 1
// worker and with 4 workers must produce byte-identical summaries.
TEST(Engine, WorkerCountDoesNotChangeResults) {
  const std::vector<ExplorationRequest> requests = {
      FastRequest(1, 2, 64), FastRequest(11, 1, 48), FastRequest(21, 1, 32),
      FastRequest(31, 2, 40)};
  const BatchResult serial = Engine(EngineOptions{1}).Run(requests);
  const BatchResult parallel = Engine(EngineOptions{4}).Run(requests);
  EXPECT_EQ(report::BatchJson(serial), report::BatchJson(parallel));
  EXPECT_EQ(report::BatchCsv(serial), report::BatchCsv(parallel));
}

TEST(Engine, MatchesTheSerialExplorerPath) {
  const ExplorationRequest request = FastRequest(5);
  // The serial path, by hand: same kernel parameters, same lowered config.
  const workloads::DotProductKernel kernel(64, 4, 7);
  Evaluator evaluator(kernel);
  const RewardConfig reward =
      MakePaperRewardConfig(evaluator, request.thresholds);
  Explorer explorer(evaluator, reward, request.ToExplorerConfig());
  const ExplorationResult serial = explorer.Explore();

  const RequestResult engine_result =
      Engine(EngineOptions{2}).Run({request}).results.front();
  ASSERT_EQ(engine_result.runs.size(), 1u);
  const ExplorationResult& run = engine_result.runs.front();
  EXPECT_EQ(run.steps, serial.steps);
  EXPECT_EQ(run.rewards, serial.rewards);
  EXPECT_DOUBLE_EQ(run.solution_measurement.delta_power_mw,
                   serial.solution_measurement.delta_power_mw);
  EXPECT_DOUBLE_EQ(run.solution_measurement.delta_acc,
                   serial.solution_measurement.delta_acc);
  EXPECT_EQ(run.solution_adder, serial.solution_adder);
  EXPECT_EQ(run.solution_multiplier, serial.solution_multiplier);
}

TEST(Engine, MultiSeedAggregatesMatchRuns) {
  const RequestResult result =
      Engine(EngineOptions{3}).Run({FastRequest(100, 5)}).results.front();
  ASSERT_EQ(result.runs.size(), 5u);
  EXPECT_EQ(result.solution_delta_power.count, 5u);
  double sum = 0.0;
  for (const ExplorationResult& run : result.runs)
    sum += run.solution_measurement.delta_power_mw;
  EXPECT_NEAR(result.solution_delta_power.mean, sum / 5.0, 1e-9);
  std::size_t votes = 0;
  for (const auto& [code, count] : result.adder_votes) votes += count;
  EXPECT_EQ(votes, 5u);
  EXPECT_GE(result.feasible_fraction, 0.0);
  EXPECT_LE(result.feasible_fraction, 1.0);
  EXPECT_FALSE(result.ModalAdder().empty());
  EXPECT_FALSE(result.kernel_name.empty());
  // Seeds genuinely differ.
  bool any_difference = false;
  for (std::size_t i = 1; i < result.runs.size(); ++i)
    if (result.runs[i].rewards != result.runs[0].rewards)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(Engine, KernelOverrideSharesOneInstanceAcrossSeeds) {
  const auto kernel =
      std::make_shared<const workloads::DotProductKernel>(64, 4, 7);
  ExplorationRequest request = FastRequest(1, 3);
  request.kernel_override = kernel;
  const RequestResult result =
      Engine(EngineOptions{3}).Run({request}).results.front();
  EXPECT_EQ(result.kernel_name, kernel->Name());
  EXPECT_EQ(result.runs.size(), 3u);
  // Same kernel data as registry construction with the same parameters.
  const RequestResult from_registry =
      Engine(EngineOptions{3}).Run({FastRequest(1, 3)}).results.front();
  EXPECT_EQ(report::BatchJson(SingleResultBatch(result)),
            report::BatchJson(SingleResultBatch(from_registry)));
}

TEST(Engine, InvalidRequestsThrowBeforeAnyWork) {
  ExplorationRequest bad = FastRequest(1);
  bad.num_seeds = 0;
  EXPECT_THROW(Engine().Run({bad}), std::invalid_argument);
}

TEST(Engine, UnknownKernelNameFailsFastBeforeAnyJobRuns) {
  // The bad request sits behind a valid one; the error must surface without
  // the valid request's exploration having to run first (fail-fast).
  ExplorationRequest bad = FastRequest(1);
  bad.kernel.name = "not-a-kernel";
  try {
    Engine(EngineOptions{2}).Run({FastRequest(2), bad});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not-a-kernel"),
              std::string::npos);
  }
}

TEST(BatchExport, CsvHasHeaderAndOneRowPerRun) {
  const BatchResult batch =
      Engine(EngineOptions{2}).Run({FastRequest(1, 2), FastRequest(9, 1)});
  const std::string csv = report::BatchCsv(batch);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 3u);  // header + three seed-runs
  EXPECT_EQ(csv.find("request,label,kernel,seed"), 0u);
}

TEST(BatchExport, JsonContainsRequestEchoAndVotes) {
  const BatchResult batch = Engine(EngineOptions{1}).Run({FastRequest(1)});
  const std::string json = report::BatchJson(batch);
  EXPECT_NE(json.find("\"request\":\"kernel=dot"), std::string::npos);
  EXPECT_NE(json.find("\"adder_votes\""), std::string::npos);
  EXPECT_NE(json.find("\"total_runs\":1"), std::string::npos);
}

}  // namespace
}  // namespace axdse::dse
