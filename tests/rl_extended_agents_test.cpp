// Tests for the extended agents (Double Q-learning, Watkins Q(lambda)) and
// the stochastic chain environment.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

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

template <typename AgentT, typename... Extra>
double TrainAndEvaluate(Env& env, std::size_t episodes,
                        std::size_t max_steps_per_episode, Extra... extra) {
  AgentT agent(env.NumActions(), FastConfig(), extra..., /*seed=*/7);
  TrainOptions options;
  options.max_steps = max_steps_per_episode;
  for (std::size_t e = 0; e < episodes; ++e)
    RunEpisode(env, agent, options, e);
  StateId state = env.Reset(12345);
  double ret = 0.0;
  for (std::size_t step = 0; step < max_steps_per_episode; ++step) {
    const StepResult sr = env.Step(agent.Table().GreedyAction(state));
    ret += sr.reward;
    state = sr.next_state;
    if (sr.terminated) break;
  }
  return ret;
}

// ---------------------------------------------------------------------------
// SlipperyChainEnv
// ---------------------------------------------------------------------------

TEST(SlipperyChain, ZeroSlipMatchesDeterministicChain) {
  SlipperyChainEnv env(5, 0.0);
  env.Reset(1);
  StepResult r = env.Step(1);
  EXPECT_EQ(r.next_state, 1u);
  r = env.Step(0);
  EXPECT_EQ(r.next_state, 0u);
}

TEST(SlipperyChain, SlipSometimesInvertsActions) {
  SlipperyChainEnv env(100, 0.3);
  env.Reset(7);
  // Always step right; with slip 0.3 some steps must go left (position would
  // be 50 after 50 steps without slip).
  StateId state = 0;
  for (int i = 0; i < 50; ++i) state = env.Step(1).next_state;
  EXPECT_LT(state, 50u);
  EXPECT_GT(state, 5u);  // but still drifts right on average
}

TEST(SlipperyChain, DeterministicUnderSeed) {
  SlipperyChainEnv env1(20, 0.25);
  SlipperyChainEnv env2(20, 0.25);
  env1.Reset(9);
  env2.Reset(9);
  for (int i = 0; i < 30; ++i) {
    const std::size_t a = i % 2;
    EXPECT_EQ(env1.Step(a).next_state, env2.Step(a).next_state);
  }
}

TEST(SlipperyChain, RejectsInvalidParameters) {
  EXPECT_THROW(SlipperyChainEnv(1, 0.1), std::invalid_argument);
  EXPECT_THROW(SlipperyChainEnv(5, 1.0), std::invalid_argument);
  EXPECT_THROW(SlipperyChainEnv(5, -0.1), std::invalid_argument);
}

TEST(SlipperyChain, RejectsInvalidAction) {
  SlipperyChainEnv env(5, 0.1);
  env.Reset(1);
  EXPECT_THROW(env.Step(2), std::out_of_range);
}

// ---------------------------------------------------------------------------
// DoubleQLearningAgent
// ---------------------------------------------------------------------------

TEST(DoubleQ, SolvesChain) {
  ChainEnv env(8);
  const double ret = TrainAndEvaluate<DoubleQLearningAgent>(env, 300, 100);
  EXPECT_DOUBLE_EQ(ret, 4.0);
}

TEST(DoubleQ, SolvesSlipperyChain) {
  SlipperyChainEnv env(6, 0.1);
  const double ret = TrainAndEvaluate<DoubleQLearningAgent>(env, 500, 200);
  // Optimal policy = always right; slip makes the return stochastic but the
  // greedy evaluation must still reach the goal with a sane return.
  EXPECT_GT(ret, -30.0);
}

TEST(DoubleQ, BothTablesLearn) {
  ChainEnv env(5);
  DoubleQLearningAgent agent(2, FastConfig(), 3);
  TrainOptions options;
  options.max_steps = 60;
  for (int e = 0; e < 200; ++e) RunEpisode(env, agent, options, e);
  EXPECT_GT(agent.TableA().NumStates(), 0u);
  EXPECT_GT(agent.TableB().NumStates(), 0u);
  // Near-terminal state value approaches the terminal reward in both tables.
  EXPECT_GT(agent.TableA().Get(3, 1) + agent.TableB().Get(3, 1), 10.0);
}

TEST(DoubleQ, PolicyPrefersRightOnChain) {
  ChainEnv env(6);
  DoubleQLearningAgent agent(2, FastConfig(), 5);
  TrainOptions options;
  options.max_steps = 80;
  for (int e = 0; e < 300; ++e) RunEpisode(env, agent, options, e);
  for (StateId s = 0; s < 5; ++s)
    EXPECT_EQ(agent.Table().GreedyAction(s), 1u) << "state " << s;
}

// ---------------------------------------------------------------------------
// QLambdaAgent
// ---------------------------------------------------------------------------

TEST(QLambda, SolvesChain) {
  ChainEnv env(8);
  const double ret = TrainAndEvaluate<QLambdaAgent>(env, 200, 100, 0.8);
  EXPECT_DOUBLE_EQ(ret, 4.0);
}

TEST(QLambda, PropagatesTerminalRewardDownTheWholeCorridor) {
  // Feed both agents the identical straight walk 0 -> 9 (observations only,
  // no action selection): after the single terminal +10, Q(lambda) must have
  // propagated value all the way back to the start, while one-step
  // Q-learning has touched each (s, right) exactly once with a -1 target.
  AgentConfig config = FastConfig();
  QLambdaAgent lambda_agent(2, config, /*lambda=*/0.9, 3);
  QLearningAgent plain_agent(2, config, 3);
  const std::size_t goal = 9;
  for (std::size_t s = 0; s < goal; ++s) {
    const bool terminal = s + 1 == goal;
    const double reward = terminal ? 10.0 : 0.0;  // reward only at the goal
    lambda_agent.Observe(s, 1, reward, s + 1, terminal);
    plain_agent.Observe(s, 1, reward, s + 1, terminal);
  }
  // One-step Q: zero-reward transitions leave Q(0, right) untouched.
  EXPECT_DOUBLE_EQ(plain_agent.Table().Get(0, 1), 0.0);
  // Q(lambda): the terminal delta reached state 0 through the traces,
  // attenuated by (gamma*lambda)^8.
  const double expected =
      config.alpha * 10.0 *
      std::pow(config.gamma * lambda_agent.Lambda(), 8.0);
  EXPECT_NEAR(lambda_agent.Table().Get(0, 1), expected, 1e-9);
  EXPECT_GT(lambda_agent.Table().Get(0, 1), 0.0);
  // Monotone: states closer to the goal got more of the terminal reward.
  EXPECT_GT(lambda_agent.Table().Get(7, 1), lambda_agent.Table().Get(1, 1));
}

TEST(QLambda, TracesClearedOnEpisodeStartAndTermination) {
  ChainEnv env(4);
  QLambdaAgent agent(2, FastConfig(), 0.9, 3);
  TrainOptions options;
  options.max_steps = 100;
  RunEpisode(env, agent, options, 0);
  // The episode ended by termination -> traces cleared.
  EXPECT_EQ(agent.ActiveTraces(), 0u);
}

TEST(QLambda, LambdaZeroBehavesLikeOneStepQ) {
  // With lambda = 0 the trace set only ever holds the current pair, so the
  // update equals plain Q-learning given identical action sequences.
  ChainEnv env_a(6);
  ChainEnv env_b(6);
  AgentConfig config = FastConfig();
  config.epsilon = EpsilonSchedule::Constant(0.0);
  config.initial_q = 0.5;
  QLambdaAgent lambda_agent(2, config, 0.0, 11);
  QLearningAgent plain_agent(2, config, 11);
  TrainOptions options;
  options.max_steps = 50;
  for (int e = 0; e < 20; ++e) {
    RunEpisode(env_a, lambda_agent, options, e);
    RunEpisode(env_b, plain_agent, options, e);
  }
  for (StateId s = 0; s < 6; ++s)
    for (std::size_t a = 0; a < 2; ++a)
      EXPECT_NEAR(lambda_agent.Table().Get(s, a),
                  plain_agent.Table().Get(s, a), 1e-9)
          << "s=" << s << " a=" << a;
}

TEST(QLambda, RejectsInvalidLambda) {
  EXPECT_THROW(QLambdaAgent(2, FastConfig(), -0.1, 1), std::invalid_argument);
  EXPECT_THROW(QLambdaAgent(2, FastConfig(), 1.1, 1), std::invalid_argument);
}

TEST(ExtendedAgents, Names) {
  EXPECT_EQ(DoubleQLearningAgent(2, FastConfig(), 1).Name(), "double-q");
  EXPECT_EQ(QLambdaAgent(2, FastConfig(), 0.5, 1).Name(), "q-lambda");
}

// ---------------------------------------------------------------------------
// Q-learning still works under stochastic dynamics.
// ---------------------------------------------------------------------------

TEST(QLearning, SolvesSlipperyChain) {
  SlipperyChainEnv env(6, 0.1);
  QLearningAgent agent(2, FastConfig(), 7);
  TrainOptions options;
  options.max_steps = 200;
  for (int e = 0; e < 500; ++e) RunEpisode(env, agent, options, e);
  // The optimal policy is "always right" in every state.
  for (StateId s = 0; s < 5; ++s)
    EXPECT_EQ(agent.Table().GreedyAction(s), 1u) << "state " << s;
}

// ---------------------------------------------------------------------------
// Agent SaveState/LoadState: no agent serializes its state (a resumed
// exploration replays its steps instead); the interface keeps throwing
// defaults.
// ---------------------------------------------------------------------------

TEST(AgentCheckpoint, StateSerializationThrows) {
  QLambdaAgent agent(4, FastConfig(), 0.8, /*seed=*/7);
  std::ostringstream out;
  EXPECT_THROW(agent.SaveState(out), std::logic_error);
  std::istringstream in("agent q-lambda\n");
  EXPECT_THROW(agent.LoadState(in), std::logic_error);
}

}  // namespace
}  // namespace axdse::rl
