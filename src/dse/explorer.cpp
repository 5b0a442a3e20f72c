#include "dse/explorer.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "dse/baselines.hpp"
#include "dse/checkpoint.hpp"

namespace axdse::dse {

std::unique_ptr<rl::Agent> MakeAgent(AgentKind kind, std::size_t num_actions,
                                     const rl::AgentConfig& config,
                                     double lambda, std::uint64_t seed) {
  switch (kind) {
    case AgentKind::kQLearning:
      return std::make_unique<rl::QLearningAgent>(num_actions, config, seed);
    case AgentKind::kSarsa:
      return std::make_unique<rl::SarsaAgent>(num_actions, config, seed);
    case AgentKind::kExpectedSarsa:
      return std::make_unique<rl::ExpectedSarsaAgent>(num_actions, config,
                                                      seed);
    case AgentKind::kDoubleQ:
      return std::make_unique<rl::DoubleQLearningAgent>(num_actions, config,
                                                        seed);
    case AgentKind::kQLambda:
      return std::make_unique<rl::QLambdaAgent>(num_actions, config, lambda,
                                                seed);
  }
  throw std::invalid_argument("MakeAgent: unknown agent kind");
}

const char* ToString(AgentKind kind) noexcept {
  switch (kind) {
    case AgentKind::kQLearning:
      return "q-learning";
    case AgentKind::kSarsa:
      return "sarsa";
    case AgentKind::kExpectedSarsa:
      return "expected-sarsa";
    case AgentKind::kDoubleQ:
      return "double-q";
    case AgentKind::kQLambda:
      return "q-lambda";
  }
  return "unknown";
}

namespace {

/// The historical best-feasible tracking: keep the feasible configuration
/// with the highest normalized-savings objective.
void ConsiderBest(const RewardConfig& reward, ExplorationResult& result,
                  const Configuration& config,
                  const instrument::Measurement& m) {
  if (m.delta_acc > reward.acc_threshold) return;
  const double objective = BaselineObjective(reward, m);
  if (!result.has_best_feasible ||
      objective > BaselineObjective(reward, result.best_feasible_measurement)) {
    result.has_best_feasible = true;
    result.best_feasible = config;
    result.best_feasible_measurement = m;
  }
}

}  // namespace

/// Live exploration state. Mirrors exactly what the historical one-shot
/// Explore() kept in locals, so the incremental loop and the checkpoint
/// subsystem reproduce its behavior bit for bit.
struct Explorer::Run {
  AxDseEnvironment env;
  std::unique_ptr<rl::Agent> agent;
  ExplorationResult result;

  rl::StateId state = 0;           ///< the state the agent acts from next
  std::size_t episode = 0;         ///< episode being executed
  std::size_t episode_steps = 0;   ///< steps taken inside it
  double episode_cumulative = 0.0; ///< reward accumulated inside it
  /// Running reward across ALL episodes — the trace's cumulative column.
  /// Kept separate from result.cumulative_reward (updated per episode) to
  /// preserve the historical floating-point summation order.
  double trace_cumulative = 0.0;
  bool finished = false;

  Run(Evaluator& evaluator, const RewardConfig& reward,
      ActionSpaceKind action_space)
      : env(evaluator, reward, action_space) {}
};

Explorer::Explorer(Evaluator& evaluator, const RewardConfig& reward,
                   const ExplorerConfig& config)
    : evaluator_(&evaluator), reward_(reward), config_(config) {
  assert(evaluator_ != nullptr);  // the evaluator reference must stay alive
  reward_.Validate();
  if (config_.episodes == 0)
    throw std::invalid_argument("Explorer: episodes == 0");
  if (config_.max_steps == 0)
    throw std::invalid_argument("Explorer: max_steps == 0");
}

Explorer::~Explorer() = default;

void Explorer::EnsureStarted() {
  if (consumed_)
    throw std::logic_error("Explorer: the exploration was already finished");
  if (run_) return;
  run_ = std::make_unique<Run>(*evaluator_, reward_, config_.action_space);
  run_->agent = MakeAgent(config_.agent_kind, run_->env.NumActions(),
                          config_.agent, config_.lambda, config_.seed);
  run_->result.episodes = config_.episodes;
  run_->agent->BeginEpisode();
  run_->state = run_->env.Reset(config_.seed);
}

void Explorer::StepOnce() {
  Run& run = *run_;
  const std::size_t action = run.agent->SelectAction(run.state);
  const rl::StepResult sr = run.env.Step(action);
  run.agent->Observe(run.state, action, sr.reward, sr.next_state,
                     sr.terminated);
  run.result.rewards.push_back(sr.reward);
  run.episode_cumulative += sr.reward;
  ++run.episode_steps;

  const instrument::Measurement& m = run.env.LastMeasurement();
  run.trace_cumulative += sr.reward;
  run.result.delta_power.Update(m.delta_power_mw);
  run.result.delta_time.Update(m.delta_time_ns);
  // A surrogate-predicted Δacc is a confident over-threshold guess, not a
  // measurement; its Δpower/Δtime are exact (computed from observed op
  // counts) and fold normally, but the accuracy range only collects ground
  // truth.
  if (!evaluator_->IsPredicted(run.env.CurrentConfig()))
    run.result.delta_acc.Update(m.delta_acc);
  ConsiderBest(reward_, run.result, run.env.CurrentConfig(), m);
  if (config_.record_trace) {
    StepRecord record;
    record.step = run.result.steps;
    record.action = action;
    record.reward = sr.reward;
    record.cumulative_reward = run.trace_cumulative;
    record.config = run.env.CurrentConfig();
    record.measurement = m;
    run.result.trace.push_back(std::move(record));
  }
  ++run.result.steps;
  run.state = sr.next_state;

  // Episode stop conditions, in the trainer's historical precedence.
  bool episode_over = true;
  if (sr.terminated) {
    run.result.stop_reason = rl::StopReason::kTerminated;
  } else if (sr.truncated) {
    run.result.stop_reason = rl::StopReason::kTruncated;
  } else if (run.episode_cumulative >= config_.max_cumulative_reward) {
    run.result.stop_reason = rl::StopReason::kRewardCap;
  } else if (run.episode_steps >= config_.max_steps) {
    run.result.stop_reason = rl::StopReason::kStepLimit;
  } else {
    episode_over = false;
  }
  if (!episode_over) return;

  run.result.cumulative_reward += run.episode_cumulative;
  run.episode_steps = 0;
  run.episode_cumulative = 0.0;
  ++run.episode;
  if (run.episode >= config_.episodes) {
    run.finished = true;
    return;
  }
  // Next episode: the value tables persist, episode-scoped agent state and
  // the environment position reset (same calls the trainer used to make).
  run.agent->BeginEpisode();
  run.state = run.env.Reset(config_.seed + run.episode);
}

bool Explorer::Finished() const noexcept { return run_ && run_->finished; }

std::size_t Explorer::StepsTaken() const noexcept {
  return run_ ? run_->result.steps : 0;
}

double Explorer::CumulativeRewardSoFar() const noexcept {
  if (!run_) return 0.0;
  return run_->result.cumulative_reward + run_->episode_cumulative;
}

const instrument::Measurement* Explorer::BestFeasibleSoFar() const noexcept {
  if (!run_ || !run_->result.has_best_feasible) return nullptr;
  return &run_->result.best_feasible_measurement;
}

std::size_t Explorer::RunSteps(std::size_t max_new_steps) {
  if (max_new_steps == 0)
    throw std::invalid_argument("Explorer::RunSteps: max_new_steps == 0");
  EnsureStarted();
  std::size_t taken = 0;
  while (!run_->finished && taken < max_new_steps) {
    StepOnce();
    ++taken;
  }
  return taken;
}

void Explorer::FillSolutionFields(ExplorationResult& result) const {
  const axc::OperatorSet& ops = evaluator_->Kernel().Operators();
  result.solution_adder = ops.adders[result.solution.AdderIndex()].type_code;
  result.solution_multiplier =
      ops.multipliers[result.solution.MultiplierIndex()].type_code;
  // Recomputed (not cached) so a later call always reflects the CURRENT
  // solution configuration; non-pipeline kernels return an empty vector.
  result.stage_counts = evaluator_->Kernel().StageCounts(result.solution);
  result.kernel_runs = evaluator_->DistinctEvaluations();
  result.cache_hits = evaluator_->CacheHits();
  result.kernel_runs_executed = evaluator_->KernelRuns();
  result.shared_cache_hits = evaluator_->SharedHits();
  result.surrogate_hits = evaluator_->SurrogateHits();
  result.kernel_runs_deferred = evaluator_->KernelRunsDeferred();
}

ExplorationResult Explorer::Finish() {
  if (!run_ || !run_->finished)
    throw std::logic_error("Explorer::Finish: the exploration is not finished");
  Run& run = *run_;
  run.result.solution = run.env.CurrentConfig();
  run.result.solution_measurement = run.env.LastMeasurement();

  // Correctness valve of the surrogate tier: the reported solution is always
  // a real measurement. If the run ended on a surrogate-predicted
  // configuration, execute it now (the prediction is dropped, so the
  // exported solution row and the Δacc range reflect ground truth).
  //
  // When both valve points need ground truth and no rollout sits between
  // them, the two runs share one lane pass; GroundTruthMany() preserves the
  // sequential sequence's caches, counters, and surrogate bookkeeping
  // exactly, so this is purely a throughput move.
  // (Equal endpoints fall through: there the sequential sequence resolves
  // the second valve via the first one's dropped prediction, and the batch
  // would diverge from it.)
  if (config_.greedy_rollout_steps == 0 &&
      evaluator_->IsPredicted(run.result.solution) &&
      run.result.has_best_feasible &&
      !(run.result.best_feasible == run.result.solution) &&
      evaluator_->IsPredicted(run.result.best_feasible)) {
    const std::vector<instrument::Measurement> truths =
        evaluator_->GroundTruthMany(
            {run.result.solution, run.result.best_feasible});
    run.result.solution_measurement = truths[0];
    run.result.delta_acc.Update(truths[0].delta_acc);
    run.result.best_feasible_measurement = truths[1];
    run.result.delta_acc.Update(truths[1].delta_acc);
  } else {
    if (evaluator_->IsPredicted(run.result.solution)) {
      run.result.solution_measurement =
          evaluator_->GroundTruth(run.result.solution);
      run.result.delta_acc.Update(run.result.solution_measurement.delta_acc);
    }

    // Optional greedy rollout: follow the learned policy without
    // exploration and fold the visited configurations into the
    // best-feasible tracking.
    if (config_.greedy_rollout_steps > 0) {
      rl::StateId state = run.env.Reset(config_.seed);
      for (std::size_t i = 0; i < config_.greedy_rollout_steps; ++i) {
        const std::size_t action = run.agent->Table().GreedyAction(state);
        const rl::StepResult sr = run.env.Step(action);
        ConsiderBest(reward_, run.result, run.env.CurrentConfig(),
                     run.env.LastMeasurement());
        state = sr.next_state;
        if (sr.terminated) break;
      }
    }

    // Same valve for the best-feasible point (after the rollout, which may
    // update it): its selection ranked only by the exact power/time
    // objective, but its reported Δacc must be a real measurement — it
    // feeds the best-per-kernel tables and the campaign Pareto fronts.
    if (run.result.has_best_feasible &&
        evaluator_->IsPredicted(run.result.best_feasible)) {
      run.result.best_feasible_measurement =
          evaluator_->GroundTruth(run.result.best_feasible);
      run.result.delta_acc.Update(
          run.result.best_feasible_measurement.delta_acc);
    }
  }

  // A resumed finished log counted its shared hits after this point.
  ApplySharedHits(finished_log_shared_hits_);
  FillSolutionFields(run.result);
  ExplorationResult result = std::move(run.result);
  run_.reset();
  consumed_ = true;
  return result;
}

ExplorationResult Explorer::PartialResult() const {
  if (!run_)
    throw std::logic_error("Explorer::PartialResult: exploration not started");
  ExplorationResult result = run_->result;
  result.stop_reason = rl::StopReason::kSuspended;
  // Fold in the open episode so the reported cumulative covers every step.
  result.cumulative_reward += run_->episode_cumulative;
  result.solution = run_->env.CurrentConfig();
  result.solution_measurement = run_->env.LastMeasurement();
  FillSolutionFields(result);
  return result;
}

ExplorationResult Explorer::Explore() {
  EnsureStarted();
  while (!run_->finished) StepOnce();
  return Finish();
}

Checkpoint Explorer::Suspend() const {
  if (!run_ || consumed_)
    throw std::logic_error("Explorer::Suspend: no active exploration");
  if (run_->finished)
    throw std::logic_error(
        "Explorer::Suspend: the exploration already finished — call Finish() "
        "and log its result instead");
  Checkpoint checkpoint;
  checkpoint.agent_kind = ToString(config_.agent_kind);
  checkpoint.steps = run_->result.steps;
  checkpoint.shared_hits = evaluator_->SharedHits();
  return checkpoint;
}

void Explorer::Discard(const std::string& message) {
  run_.reset();
  consumed_ = true;
  throw CheckpointError(message + "; discard this explorer and its evaluator");
}

void Explorer::ApplySharedHits(std::size_t shared_hits) {
  if (shared_hits == 0) return;
  if (!evaluator_->AttributeSharedHits(shared_hits))
    Discard("Explorer: checkpoint shared-hit count " +
            std::to_string(shared_hits) + " is not below the replay's " +
            std::to_string(evaluator_->KernelRuns()) + " kernel runs");
}

void Explorer::ResumeFrom(const Checkpoint& checkpoint) {
  if (run_ || consumed_)
    throw CheckpointError(
        "Explorer::ResumeFrom: the exploration already started; resume "
        "requires a freshly constructed explorer");
  if (checkpoint.agent_kind != ToString(config_.agent_kind))
    throw CheckpointError("Explorer::ResumeFrom: checkpoint was taken with "
                          "agent '" +
                          checkpoint.agent_kind + "', this explorer runs '" +
                          ToString(config_.agent_kind) + "'");
  // The replay length is bounded by the run's own budget before anything
  // runs: a corrupt count must not buy an unbounded replay.
  std::size_t budget = 0;
  if (__builtin_mul_overflow(config_.max_steps, config_.episodes, &budget))
    budget = std::numeric_limits<std::size_t>::max();
  if (checkpoint.steps == 0 || checkpoint.steps > budget)
    throw CheckpointError(
        "Explorer::ResumeFrom: checkpoint step count " +
        std::to_string(checkpoint.steps) + " is outside this run's budget (" +
        std::to_string(budget) + ")");

  // Replay on the private cache alone: each distinct configuration the run
  // met executes once, and the shared cache sees no traffic. The agent,
  // environment, partial result, surrogate model and private counters come
  // back exactly as the original steps left them.
  std::shared_ptr<instrument::SharedEvaluationCache> shared =
      evaluator_->ExchangeSharedCache(nullptr);
  std::size_t taken = 0;
  try {
    taken = RunSteps(checkpoint.steps);
  } catch (...) {
    evaluator_->ExchangeSharedCache(std::move(shared));
    throw;
  }
  // A mid-run log was taken before its run finished, a finished one right
  // at its last step; a replay that disagrees contradicts its log.
  if (taken != checkpoint.steps || Finished() != checkpoint.finished) {
    evaluator_->ExchangeSharedCache(std::move(shared));
    Discard("Explorer::ResumeFrom: the replay " +
            std::string(Finished() ? "finished" : "was still running") +
            " after " + std::to_string(taken) + " of the " +
            (checkpoint.finished ? "finished" : "mid-run") +
            " checkpoint's " + std::to_string(checkpoint.steps) + " steps");
  }
  // The original counted its shared hits before Finish() for a mid-run log
  // and after it for a finished one, whose Finish() may still ground-truth
  // the solution; that Finish() runs privately too.
  if (checkpoint.finished) {
    finished_log_shared_hits_ = checkpoint.shared_hits;
    return;
  }
  evaluator_->ExchangeSharedCache(std::move(shared));
  ApplySharedHits(checkpoint.shared_hits);
}

}  // namespace axdse::dse
