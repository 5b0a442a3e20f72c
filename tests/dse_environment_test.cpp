// Tests for dse/evaluator + dse/environment: measurement correctness,
// caching, action semantics, state interning, termination, and the cost
// counters of explorations that revisit states through memo handles.

#include "dse/environment.hpp"

#include <gtest/gtest.h>

#include "common/test_support.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "workloads/dot_product_kernel.hpp"
#include "workloads/matmul_kernel.hpp"

namespace axdse::dse {
namespace {

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

TEST(Evaluator, PreciseBaselineHasZeroDeltas) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  const auto m = evaluator.Evaluate(InitialConfiguration(evaluator.Shape()));
  EXPECT_DOUBLE_EQ(m.delta_acc, 0.0);
  EXPECT_DOUBLE_EQ(m.delta_power_mw, 0.0);
  EXPECT_DOUBLE_EQ(m.delta_time_ns, 0.0);
  EXPECT_DOUBLE_EQ(m.precise_power_mw, evaluator.PrecisePowerMw());
}

TEST(Evaluator, ApproximateConfigurationShowsSavingsAndError) {
  const workloads::DotProductKernel kernel(64, 4, 1);
  Evaluator evaluator(kernel);
  Configuration config(evaluator.Shape().num_variables);
  config.SetMultiplierIndex(5);  // most aggressive
  config.SetAdderIndex(5);
  for (std::size_t v = 0; v < config.NumVariables(); ++v)
    config.SetVariable(v, true);
  const auto m = evaluator.Evaluate(config);
  EXPECT_GT(m.delta_acc, 0.0);
  EXPECT_GT(m.delta_power_mw, 0.0);
  EXPECT_GT(m.delta_time_ns, 0.0);
  EXPECT_LT(m.approx_power_mw, m.precise_power_mw);
}

TEST(Evaluator, ExactOperatorsOnSelectedVariablesStillZeroError) {
  // Selecting variables while keeping exact operators costs nothing.
  const workloads::DotProductKernel kernel(32, 2, 5);
  Evaluator evaluator(kernel);
  Configuration config(evaluator.Shape().num_variables);
  for (std::size_t v = 0; v < config.NumVariables(); ++v)
    config.SetVariable(v, true);
  const auto m = evaluator.Evaluate(config);
  EXPECT_DOUBLE_EQ(m.delta_acc, 0.0);
  EXPECT_DOUBLE_EQ(m.delta_power_mw, 0.0);
}

TEST(Evaluator, CachesRepeatEvaluations) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  Configuration config(evaluator.Shape().num_variables);
  config.SetVariable(0, true);
  const std::size_t runs_before = evaluator.KernelRuns();
  evaluator.Evaluate(config);
  evaluator.Evaluate(config);
  evaluator.Evaluate(config);
  EXPECT_EQ(evaluator.KernelRuns(), runs_before + 1);
  EXPECT_EQ(evaluator.CacheHits(), 2u);
}

TEST(Evaluator, DeltasConsistentWithRawCosts) {
  const workloads::DotProductKernel kernel(48, 3, 2);
  Evaluator evaluator(kernel);
  Configuration config(evaluator.Shape().num_variables);
  config.SetMultiplierIndex(3);
  config.SetVariable(0, true);
  const auto m = evaluator.Evaluate(config);
  EXPECT_DOUBLE_EQ(m.delta_power_mw, m.precise_power_mw - m.approx_power_mw);
  EXPECT_DOUBLE_EQ(m.delta_time_ns, m.precise_time_ns - m.approx_time_ns);
}

TEST(Evaluator, ValidatesConfigurationShape) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  EXPECT_THROW(evaluator.Evaluate(Configuration(99)), std::invalid_argument);
  Configuration bad(evaluator.Shape().num_variables);
  bad.SetAdderIndex(17);
  EXPECT_THROW(evaluator.Evaluate(bad), std::invalid_argument);
}

TEST(Evaluator, MeanAbsPreciseOutputMatchesOutputs) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  double sum = 0.0;
  for (const double v : evaluator.PreciseOutputs()) sum += std::abs(v);
  EXPECT_DOUBLE_EQ(evaluator.MeanAbsPreciseOutput(),
                   sum / evaluator.PreciseOutputs().size());
}

// ---------------------------------------------------------------------------
// AxDseEnvironment
// ---------------------------------------------------------------------------

RewardConfig LaxReward() {
  // Permissive thresholds so actions mostly earn +1/-1 and never -R.
  RewardConfig config;
  config.acc_threshold = 1e18;
  config.power_threshold = 0.0;
  config.time_threshold = 0.0;
  config.max_reward = 100.0;
  return config;
}

TEST(Environment, FullActionSpaceSize) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward(), ActionSpaceKind::kFull);
  EXPECT_EQ(env.NumActions(), 4u + 3u);  // 3 variables
}

TEST(Environment, CompactActionSpaceSize) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward(), ActionSpaceKind::kCompact);
  EXPECT_EQ(env.NumActions(), 3u);
}

TEST(Environment, ResetReturnsAllPreciseState) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  const rl::StateId s0 = env.Reset(0);
  EXPECT_EQ(env.ConfigOfState(s0), InitialConfiguration(evaluator.Shape()));
  EXPECT_TRUE(env.CurrentConfig().NoneSelected());
}

TEST(Environment, ActionsMutateConfiguration) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  env.Reset(0);
  env.Step(0);  // adder+1
  EXPECT_EQ(env.CurrentConfig().AdderIndex(), 1u);
  env.Step(1);  // adder-1
  EXPECT_EQ(env.CurrentConfig().AdderIndex(), 0u);
  env.Step(2);  // multiplier+1
  EXPECT_EQ(env.CurrentConfig().MultiplierIndex(), 1u);
  env.Step(3);  // multiplier-1
  EXPECT_EQ(env.CurrentConfig().MultiplierIndex(), 0u);
  env.Step(4);  // toggle variable 0
  EXPECT_TRUE(env.CurrentConfig().VariableSelected(0));
  env.Step(4);
  EXPECT_FALSE(env.CurrentConfig().VariableSelected(0));
}

TEST(Environment, CompactToggleRoundRobins) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward(), ActionSpaceKind::kCompact);
  env.Reset(0);
  env.Step(2);  // toggles var 0
  env.Step(2);  // toggles var 1
  env.Step(2);  // toggles var 2
  EXPECT_EQ(env.CurrentConfig().SelectedCount(), 3u);
  env.Step(2);  // wraps: toggles var 0 off
  EXPECT_FALSE(env.CurrentConfig().VariableSelected(0));
  EXPECT_EQ(env.CurrentConfig().SelectedCount(), 2u);
}

TEST(Environment, StateInterningIsStable) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  const rl::StateId s0 = env.Reset(0);
  const rl::StepResult r1 = env.Step(4);   // toggle v0 on
  const rl::StepResult r2 = env.Step(4);   // toggle v0 off -> back to s0
  EXPECT_EQ(r2.next_state, s0);
  EXPECT_NE(r1.next_state, s0);
  EXPECT_EQ(env.NumInternedStates(), 2u);
}

TEST(Environment, ObservationsTrackCurrentConfig) {
  const workloads::DotProductKernel kernel(64, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  env.Reset(0);
  env.Step(2);  // multiplier -> index 1 but no variables: still precise ops
  EXPECT_DOUBLE_EQ(env.LastMeasurement().delta_power_mw, 0.0);
  env.Step(4);  // select variable "a": all muls now approx at index 1
  EXPECT_GT(env.LastMeasurement().delta_power_mw, 0.0);
}

TEST(Environment, TerminatesOnSaturation) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  env.Reset(0);
  // Drive to the most aggressive operators and all variables.
  for (int i = 0; i < 5; ++i) env.Step(0);
  for (int i = 0; i < 5; ++i) env.Step(2);
  env.Step(4);
  env.Step(5);
  const rl::StepResult final_step = env.Step(6);
  EXPECT_TRUE(final_step.terminated);
  EXPECT_DOUBLE_EQ(final_step.reward, 100.0);
}

TEST(Environment, RejectsInvalidAction) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  env.Reset(0);
  EXPECT_THROW(env.Step(7), std::out_of_range);
}

TEST(Environment, ActionNamesAreDescriptive) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  EXPECT_EQ(env.ActionName(0), "adder+1");
  EXPECT_EQ(env.ActionName(1), "adder-1");
  EXPECT_EQ(env.ActionName(2), "multiplier+1");
  EXPECT_EQ(env.ActionName(3), "multiplier-1");
  EXPECT_EQ(env.ActionName(4), "toggle(a)");
  EXPECT_EQ(env.ActionName(5), "toggle(b)");
  EXPECT_EQ(env.ActionName(6), "toggle(acc)");
  EXPECT_THROW(env.ActionName(7), std::out_of_range);
}

TEST(Environment, ConfigOfStateRejectsUnknownIds) {
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  env.Reset(0);
  EXPECT_THROW(env.ConfigOfState(999), std::out_of_range);
}

TEST(Environment, AccuracyViolationGivesMinusR) {
  // Tight accuracy threshold: aggressive multiplier on all variables of a
  // matmul must breach it.
  const workloads::MatMulKernel kernel(
      4, workloads::MatMulGranularity::kPerMatrix, 3);
  Evaluator evaluator(kernel);
  RewardConfig reward;
  reward.acc_threshold = 0.001;
  reward.max_reward = 50.0;
  AxDseEnvironment env(evaluator, reward);
  env.Reset(0);
  env.Step(3);  // multiplier-1 wraps to most aggressive (index 5)
  env.Step(4);  // approximate variable A
  const rl::StepResult r = env.Step(5);  // approximate variable B as well
  EXPECT_DOUBLE_EQ(r.reward, -50.0);
}

TEST(Environment, RevisitsReadTheMemoThroughTheirHandle) {
  // A revisit is a private hit, like Evaluate() of the same configuration,
  // and returns the very bytes the first visit measured.
  const workloads::DotProductKernel kernel(32, 4, 1);
  Evaluator evaluator(kernel);
  AxDseEnvironment env(evaluator, LaxReward());
  env.Reset(0);
  env.Step(2);  // multiplier+1
  env.Step(4);  // toggle v0: fresh
  const instrument::Measurement first = env.LastMeasurement();
  const std::size_t runs = evaluator.KernelRuns();
  const std::size_t hits = evaluator.CacheHits();
  env.Step(4);  // back
  env.Step(4);  // revisit
  EXPECT_EQ(evaluator.KernelRuns(), runs);
  EXPECT_EQ(evaluator.CacheHits(), hits + 2);
  EXPECT_EQ(env.LastMeasurement().delta_acc, first.delta_acc);
  EXPECT_EQ(env.LastMeasurement().delta_power_mw, first.delta_power_mw);
  EXPECT_EQ(env.LastMeasurement().counts, first.counts);
}

// ---------------------------------------------------------------------------
// Cost-counter identity over whole explorations: every evaluation the
// environment asks for is exactly one private hit or one private miss,
// whether it goes through Evaluate() or a memo handle, so after N steps
// hits + misses == N + 2 (the constructor's and Reset()'s evaluations).
// KernelRuns() is pinned to the values the hash-per-visit environment
// produced, uninterrupted, across a mid-run suspend/resume, and with the
// surrogate tier answering part of the visits.
// ---------------------------------------------------------------------------

constexpr std::size_t kCounterSteps = 2000;

struct Counted {
  std::size_t kernel_runs = 0;
  std::size_t lookups = 0;  ///< private hits + misses
};

/// Runs kCounterSteps steps of `kind` on matmul@10{granularity=per-matrix},
/// suspending and resuming into a fresh explorer after `suspend_at` steps
/// when it is non-zero.
Counted RunCounted(AgentKind kind, bool surrogate, std::size_t suspend_at) {
  const auto harness = [&] {
    testsupport::ExplorerHarness h = testsupport::MakeExplorerHarness(
        "matmul", 10, {{"granularity", "per-matrix"}});
    if (surrogate) h.evaluator->EnableSurrogate(h.reward.acc_threshold);
    return h;
  };
  ExplorerConfig config =
      testsupport::SmallExplorerConfig(kind, 5, kCounterSteps + 1);
  config.record_trace = false;
  testsupport::ExplorerHarness h = harness();
  auto explorer = std::make_unique<Explorer>(*h.evaluator, h.reward, config);
  if (suspend_at != 0) {
    EXPECT_EQ(explorer->RunSteps(suspend_at), suspend_at);
    const std::string saved = explorer->Suspend().Serialize();
    explorer.reset();
    h = harness();
    explorer = std::make_unique<Explorer>(*h.evaluator, h.reward, config);
    explorer->ResumeFrom(Checkpoint::Deserialize(saved));
  }
  const std::size_t remaining = kCounterSteps - suspend_at;
  EXPECT_EQ(explorer->RunSteps(remaining), remaining);
  EXPECT_FALSE(explorer->Finished());
  const Evaluator::CacheState state = h.evaluator->CaptureCacheState();
  EXPECT_EQ(state.cache_hits, h.evaluator->CacheHits());
  return {h.evaluator->KernelRuns(), state.cache_hits + state.cache_misses};
}

TEST(CounterIdentity, HitsPlusMissesCountEveryVisitAndKernelRunsArePinned) {
  struct Pinned {
    AgentKind kind;
    std::size_t kernel_runs;
    std::size_t kernel_runs_surrogate;
  };
  const Pinned pinned[] = {
      {AgentKind::kQLearning, 257, 156},     {AgentKind::kSarsa, 285, 173},
      {AgentKind::kExpectedSarsa, 232, 146}, {AgentKind::kDoubleQ, 281, 200},
      {AgentKind::kQLambda, 178, 131},
  };
  for (const Pinned& p : pinned) {
    for (const bool surrogate : {false, true}) {
      for (const std::size_t suspend_at : {std::size_t{0}, kCounterSteps / 2}) {
        SCOPED_TRACE(std::string(ToString(p.kind)) +
                     (surrogate ? " surrogate" : " private") +
                     " suspend_at=" + std::to_string(suspend_at));
        const Counted counted = RunCounted(p.kind, surrogate, suspend_at);
        EXPECT_EQ(counted.lookups, kCounterSteps + 2);
        EXPECT_EQ(counted.kernel_runs,
                  surrogate ? p.kernel_runs_surrogate : p.kernel_runs);
      }
    }
  }
}

}  // namespace
}  // namespace axdse::dse
