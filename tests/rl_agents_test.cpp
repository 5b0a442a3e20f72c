// Tests for rl/agents + trainer + toy envs: the agents must actually learn
// the known-optimal policies of the analytic MDPs.

#include <gtest/gtest.h>

#include "rl/agents.hpp"
#include "common/toy_envs.hpp"
#include "rl/trainer.hpp"

namespace axdse::rl {
namespace {

AgentConfig FastConfig() {
  AgentConfig config;
  config.alpha = 0.2;
  config.gamma = 0.99;
  config.epsilon = EpsilonSchedule::Linear(1.0, 0.02, 3000);
  return config;
}

/// Runs `episodes` training episodes and returns the greedy-policy return on
/// a final evaluation episode (epsilon = 0 via a fresh constant schedule).
template <typename AgentT>
double TrainAndEvaluate(Env& env, std::size_t episodes,
                        std::size_t max_steps_per_episode) {
  AgentT agent(env.NumActions(), FastConfig(), /*seed=*/7);
  TrainOptions options;
  options.max_steps = max_steps_per_episode;
  for (std::size_t e = 0; e < episodes; ++e)
    RunEpisode(env, agent, options, e);

  // Greedy rollout using the learned table.
  StateId state = env.Reset(0);
  double ret = 0.0;
  for (std::size_t step = 0; step < max_steps_per_episode; ++step) {
    const std::size_t action = agent.Table().GreedyAction(state);
    const StepResult sr = env.Step(action);
    ret += sr.reward;
    state = sr.next_state;
    if (sr.terminated) break;
  }
  return ret;
}

// ---------------------------------------------------------------------------
// Toy environments behave as specified.
// ---------------------------------------------------------------------------

TEST(ChainEnv, StepSemantics) {
  ChainEnv env(5);
  EXPECT_EQ(env.Reset(0), 0u);
  StepResult r = env.Step(1);
  EXPECT_EQ(r.next_state, 1u);
  EXPECT_DOUBLE_EQ(r.reward, -1.0);
  EXPECT_FALSE(r.terminated);
  r = env.Step(0);
  EXPECT_EQ(r.next_state, 0u);
  r = env.Step(0);  // bumping the left wall stays at 0
  EXPECT_EQ(r.next_state, 0u);
}

TEST(ChainEnv, TerminatesAtRightEnd) {
  ChainEnv env(3);
  env.Reset(0);
  env.Step(1);
  const StepResult r = env.Step(1);
  EXPECT_TRUE(r.terminated);
  EXPECT_DOUBLE_EQ(r.reward, 10.0);
}

TEST(ChainEnv, RejectsInvalidConstructionAndAction) {
  EXPECT_THROW(ChainEnv(1), std::invalid_argument);
  ChainEnv env(3);
  env.Reset(0);
  EXPECT_THROW(env.Step(2), std::out_of_range);
}

TEST(CliffWalkEnv, CliffTeleportsToStart) {
  CliffWalkEnv env;
  env.Reset(0);
  const StepResult r = env.Step(1);  // step right onto the cliff
  EXPECT_DOUBLE_EQ(r.reward, -100.0);
  EXPECT_EQ(r.next_state, (CliffWalkEnv::kRows - 1) * CliffWalkEnv::kCols);
  EXPECT_FALSE(r.terminated);
}

TEST(CliffWalkEnv, SafePathReachesGoal) {
  CliffWalkEnv env;
  env.Reset(0);
  StepResult r = env.Step(0);  // up
  for (std::size_t i = 0; i < CliffWalkEnv::kCols - 1; ++i)
    r = env.Step(1);  // right along the safe row
  r = env.Step(2);    // down into the goal
  EXPECT_TRUE(r.terminated);
  EXPECT_DOUBLE_EQ(r.reward, -1.0);
}

TEST(CliffWalkEnv, WallsClampMovement) {
  CliffWalkEnv env;
  env.Reset(0);
  const StepResult r = env.Step(3);  // left against the wall
  EXPECT_EQ(r.next_state, (CliffWalkEnv::kRows - 1) * CliffWalkEnv::kCols);
}

// ---------------------------------------------------------------------------
// Learning performance on the analytic MDPs.
// ---------------------------------------------------------------------------

TEST(QLearning, SolvesChain) {
  ChainEnv env(8);
  // Optimal: 7 rights -> 6 x (-1) + 10 = 4.
  const double ret = TrainAndEvaluate<QLearningAgent>(env, 200, 100);
  EXPECT_DOUBLE_EQ(ret, 4.0);
}

TEST(Sarsa, SolvesChain) {
  ChainEnv env(8);
  const double ret = TrainAndEvaluate<SarsaAgent>(env, 300, 100);
  EXPECT_DOUBLE_EQ(ret, 4.0);
}

TEST(ExpectedSarsa, SolvesChain) {
  ChainEnv env(8);
  const double ret = TrainAndEvaluate<ExpectedSarsaAgent>(env, 300, 100);
  EXPECT_DOUBLE_EQ(ret, 4.0);
}

TEST(QLearning, LearnsOptimalCliffPath) {
  CliffWalkEnv env;
  // Optimal (risky) path: up, 11 rights, down = 13 steps -> return -13.
  const double ret = TrainAndEvaluate<QLearningAgent>(env, 600, 200);
  EXPECT_DOUBLE_EQ(ret, -13.0);
}

TEST(Sarsa, ReachesGoalOnCliff) {
  CliffWalkEnv env;
  // SARSA famously learns a safer (longer) path; just require goal-reaching
  // with a reasonable return (no cliff falls, bounded detour).
  const double ret = TrainAndEvaluate<SarsaAgent>(env, 800, 200);
  EXPECT_GE(ret, -25.0);
  EXPECT_LE(ret, -13.0);
}

TEST(QLearning, ValuesPropagateBackwards) {
  ChainEnv env(4);
  QLearningAgent agent(2, FastConfig(), 3);
  TrainOptions options;
  options.max_steps = 50;
  for (int e = 0; e < 200; ++e) RunEpisode(env, agent, options, e);
  // Q(s, right) must increase towards the goal.
  const double q0 = agent.Table().Get(0, 1);
  const double q1 = agent.Table().Get(1, 1);
  const double q2 = agent.Table().Get(2, 1);
  EXPECT_LT(q0, q1);
  EXPECT_LT(q1, q2);
  EXPECT_NEAR(q2, 10.0, 1.0);  // one step from terminal reward
}

TEST(Agents, RejectInvalidHyperParameters) {
  AgentConfig bad_alpha;
  bad_alpha.alpha = 0.0;
  EXPECT_THROW(QLearningAgent(2, bad_alpha, 1), std::invalid_argument);
  AgentConfig bad_gamma;
  bad_gamma.gamma = 1.5;
  EXPECT_THROW(SarsaAgent(2, bad_gamma, 1), std::invalid_argument);
}

TEST(Agents, DeterministicUnderSeed) {
  ChainEnv env1(6);
  ChainEnv env2(6);
  QLearningAgent a1(2, FastConfig(), 99);
  QLearningAgent a2(2, FastConfig(), 99);
  TrainOptions options;
  options.max_steps = 50;
  const TrainResult r1 = RunEpisode(env1, a1, options, 0);
  const TrainResult r2 = RunEpisode(env2, a2, options, 0);
  EXPECT_EQ(r1.rewards, r2.rewards);
  EXPECT_EQ(r1.steps, r2.steps);
}

// ---------------------------------------------------------------------------
// Trainer mechanics.
// ---------------------------------------------------------------------------

TEST(Trainer, StopsAtStepLimit) {
  ChainEnv env(100);  // far goal
  QLearningAgent agent(2, FastConfig(), 1);
  TrainOptions options;
  options.max_steps = 10;
  const TrainResult result = RunEpisode(env, agent, options, 0);
  EXPECT_EQ(result.steps, 10u);
  EXPECT_EQ(result.stop_reason, StopReason::kStepLimit);
}

TEST(Trainer, StopsOnTermination) {
  ChainEnv env(2);  // one step to goal
  QLearningAgent agent(2, FastConfig(), 1);
  TrainOptions options;
  options.max_steps = 100;
  const TrainResult result = RunEpisode(env, agent, options, 0);
  EXPECT_EQ(result.stop_reason, StopReason::kTerminated);
  EXPECT_LE(result.steps, 100u);
}

TEST(Trainer, StopsAtRewardCap) {
  ChainEnv env(50);
  // A "reward cap" of -5 is reached after 5 steps of -1... the cap rule
  // triggers on >=, so use a negative threshold reachable from above:
  // cumulative starts at -1 and only decreases, so cap -3 fires at step 3.
  QLearningAgent agent(2, FastConfig(), 1);
  TrainOptions options;
  options.max_steps = 100;
  options.stop_at_cumulative_reward = -3.0;
  const TrainResult result = RunEpisode(env, agent, options, 0);
  EXPECT_EQ(result.stop_reason, StopReason::kRewardCap);
  EXPECT_EQ(result.steps, 1u);  // -1 >= -3 immediately after first step
}

TEST(Trainer, CallbackSeesEveryStep) {
  ChainEnv env(10);
  QLearningAgent agent(2, FastConfig(), 1);
  TrainOptions options;
  options.max_steps = 20;
  std::size_t calls = 0;
  RunEpisode(env, agent, options, 0,
             [&](std::size_t step, StateId, std::size_t,
                 const StepResult&) {
               EXPECT_EQ(step, calls);
               ++calls;
             });
  EXPECT_GT(calls, 0u);
}

TEST(Trainer, RejectsZeroSteps) {
  ChainEnv env(3);
  QLearningAgent agent(2, FastConfig(), 1);
  TrainOptions options;
  options.max_steps = 0;
  EXPECT_THROW(RunEpisode(env, agent, options, 0), std::invalid_argument);
}

TEST(Trainer, StopReasonNames) {
  EXPECT_STREQ(ToString(StopReason::kTerminated), "terminated");
  EXPECT_STREQ(ToString(StopReason::kTruncated), "truncated");
  EXPECT_STREQ(ToString(StopReason::kRewardCap), "reward-cap");
  EXPECT_STREQ(ToString(StopReason::kStepLimit), "step-limit");
}

}  // namespace
}  // namespace axdse::rl
