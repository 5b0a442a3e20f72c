#pragma once
// The top-level exploration driver: wires kernel -> evaluator -> environment
// -> Q-learning agent, runs the paper's single long episode, and collects
// everything Table III and Figures 2-4 need (per-step trace, min/solution/max
// per objective, the solution configuration and its operator names).
//
// This is the single-run core. Applications should normally go through the
// axdse.hpp facade instead: describe runs as dse::ExplorationRequest values
// and execute them (batched, multi-seed, parallel) with dse::Engine::Run,
// which steps every job through RunSteps()/Finish().

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dse/environment.hpp"
#include "rl/trainer.hpp"

namespace axdse::dse {

/// Which learning algorithm drives the exploration. The paper uses plain
/// Q-learning; the alternatives are extensions for the agent ablation.
enum class AgentKind {
  kQLearning,
  kSarsa,
  kExpectedSarsa,
  kDoubleQ,
  kQLambda,
};

/// Returns a freshly constructed agent of the given kind.
std::unique_ptr<rl::Agent> MakeAgent(AgentKind kind, std::size_t num_actions,
                                     const rl::AgentConfig& config,
                                     double lambda, std::uint64_t seed);

/// Human-readable agent name.
const char* ToString(AgentKind kind) noexcept;

/// Exploration hyper-parameters.
struct ExplorerConfig {
  /// Step cap (paper: 10,000). With `episodes > 1` this is the per-episode
  /// cap.
  std::size_t max_steps = 10000;
  /// The paper's stop rule: halt once cumulative reward reaches this
  /// (per episode).
  double max_cumulative_reward = 500.0;
  /// Number of training episodes. The paper runs exactly one long episode;
  /// more episodes restart from the all-precise configuration while the
  /// agent's value table persists.
  std::size_t episodes = 1;
  /// Learning algorithm (paper: Q-learning).
  AgentKind agent_kind = AgentKind::kQLearning;
  /// Agent hyper-parameters.
  rl::AgentConfig agent;
  /// Trace-decay for AgentKind::kQLambda.
  double lambda = 0.8;
  /// Action-space concretization.
  ActionSpaceKind action_space = ActionSpaceKind::kFull;
  /// Seed for the agent's exploration randomness.
  std::uint64_t seed = 1;
  /// Keep the full per-step trace (needed for the figures; costs memory).
  bool record_trace = true;
  /// After training, roll the greedy policy out for this many steps from the
  /// initial state and fold the visited configurations into the
  /// best-feasible tracking (0 disables).
  std::size_t greedy_rollout_steps = 0;
};

/// One step of the exploration trace (a figure data point).
struct StepRecord {
  std::size_t step = 0;
  std::size_t action = 0;
  double reward = 0.0;
  double cumulative_reward = 0.0;
  Configuration config;
  instrument::Measurement measurement;
};

/// Closed min/max range of one objective over the exploration.
struct ObjectiveRange {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Folds one observation in; NaN inputs are ignored so a single undefined
  /// Δ cannot poison the range for the rest of the run.
  void Update(double value) noexcept {
    if (std::isnan(value)) return;
    if (value < min) min = value;
    if (value > max) max = value;
  }
};

/// Everything the paper reports for one benchmark exploration.
struct ExplorationResult {
  /// The configuration of the last step — the paper's "solution" row.
  Configuration solution;
  instrument::Measurement solution_measurement;
  /// Type codes of the solution's operators (e.g. "00M", "17MJ").
  std::string solution_adder;
  std::string solution_multiplier;

  /// min / max of each Δ observed across all steps (Table III rows).
  ObjectiveRange delta_power;
  ObjectiveRange delta_time;
  ObjectiveRange delta_acc;

  std::size_t steps = 0;
  rl::StopReason stop_reason = rl::StopReason::kStepLimit;
  double cumulative_reward = 0.0;

  /// Distinct configurations this run evaluated / private-cache hits along
  /// its path. Both are deterministic: identical across cache modes and
  /// worker counts (in private-cache mode kernel_runs is exactly the number
  /// of kernel executions).
  std::size_t kernel_runs = 0;
  std::size_t cache_hits = 0;
  /// Kernel executions actually performed by this run. Equals kernel_runs
  /// in private-cache mode; with a shared cache it is lower and depends on
  /// scheduling (only per-cache-group totals are deterministic).
  std::size_t kernel_runs_executed = 0;
  /// Evaluations answered by the shared cache (0 in private-cache mode).
  std::size_t shared_cache_hits = 0;

  /// Evaluations answered by the surrogate tier (0 with surrogate off):
  /// first-time skips plus memoized repeat visits of skipped configurations.
  std::size_t surrogate_hits = 0;
  /// Distinct configurations the surrogate skipped that were never executed
  /// — the kernel runs this run saved outright.
  std::size_t kernel_runs_deferred = 0;

  /// Episodes actually run.
  std::size_t episodes = 1;

  /// Per-step rewards (Figure 4) and full trace (Figures 2-3) when recorded.
  /// With multiple episodes both are concatenated in order.
  std::vector<double> rewards;
  std::vector<StepRecord> trace;

  /// Best *feasible* configuration seen anywhere during exploration (and the
  /// optional greedy rollout), ranked by the normalized savings objective
  /// (BaselineObjective). Often strictly better than the paper's
  /// last-step "solution".
  bool has_best_feasible = false;
  Configuration best_feasible;
  instrument::Measurement best_feasible_measurement;

  /// Per-stage operation counts of the solution configuration, recomputed
  /// via workloads::Kernel::StageCounts. Empty for single-stage kernels;
  /// for pipelines the per-stage sums equal the whole-kernel counts.
  std::vector<workloads::StageOpCounts> stage_counts;
};

struct Checkpoint;  // dse/checkpoint.hpp

/// Runs the paper's Q-learning exploration for one kernel.
///
/// Two ways to drive it:
///   * Explore() — the historical one-shot call: runs every episode to its
///     stop condition and returns the finished result.
///   * the incremental API — RunSteps() advances the exploration a bounded
///     number of environment steps; Suspend() captures the run's input log
///     (steps taken, evaluator memo and counters) into a dse::Checkpoint; a
///     FRESH explorer (same evaluator kernel, reward, and config) resumed
///     via ResumeFrom() replays those steps and continues the run so that
///     the final result, trace, rewards, and counters are byte-identical to
///     an uninterrupted Explore().
class Explorer {
 public:
  /// The evaluator must outlive the explorer. The evaluator must be fresh
  /// (no Evaluate() calls yet) for the byte-identical resume guarantee.
  Explorer(Evaluator& evaluator, const RewardConfig& reward,
           const ExplorerConfig& config);
  ~Explorer();

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Runs the exploration to completion (all remaining episodes) and
  /// finalizes the result. Usable after ResumeFrom() to finish a restored
  /// run.
  ExplorationResult Explore();

  // --- incremental API ----------------------------------------------------

  /// True once every episode has ended. A finished run only awaits Finish().
  bool Finished() const noexcept;

  /// Environment steps taken so far (across episodes).
  std::size_t StepsTaken() const noexcept;

  /// Reward accumulated so far, including the open episode (0 before the
  /// first step). Cheap enough to poll every few steps for progress
  /// reporting; does not touch the result.
  double CumulativeRewardSoFar() const noexcept;

  /// Best feasible measurement seen so far, or nullptr when none (or the
  /// run has not started). The pointee is owned by the live run: it is
  /// invalidated by the next RunSteps()/Finish() call.
  const instrument::Measurement* BestFeasibleSoFar() const noexcept;

  /// Advances up to `max_new_steps` environment steps (stopping early when
  /// the run finishes) and returns the number actually taken. Starts the
  /// run lazily on first use. Throws std::invalid_argument on 0.
  std::size_t RunSteps(std::size_t max_new_steps);

  /// Finalizes and returns the result (solution fields, optional greedy
  /// rollout, operator codes, cost counters). Requires Finished(); the
  /// explorer is consumed afterwards. Throws std::logic_error otherwise.
  ExplorationResult Finish();

  /// Snapshot of the in-progress result for reporting a suspended run:
  /// the partial trace/rewards plus the current configuration as a
  /// provisional solution, stop reason rl::StopReason::kSuspended. Does not
  /// consume the explorer. Throws std::logic_error before the first step.
  ExplorationResult PartialResult() const;

  // --- checkpointing ------------------------------------------------------

  /// Captures the mid-run snapshot: agent kind, steps taken, and the
  /// evaluator's memo and counters. The caller owns the identity fields
  /// (Checkpoint::request/seed). Throws std::logic_error before the first
  /// step or once the run finished.
  Checkpoint Suspend() const;

  /// Resumes a mid-run snapshot on this freshly constructed, never stepped
  /// explorer by replaying its steps. Checks the agent kind, that the step
  /// count is within episodes x max_steps, and that every memo entry fits
  /// this explorer's kernel space BEFORE anything runs: on those failures
  /// the explorer and its evaluator are untouched and may still run from
  /// scratch. The replay answers every ground-truth miss from the memo,
  /// never from the kernel or the evaluator's shared cache, then restores
  /// the four evaluator counters. A replay that finishes within the
  /// snapshot's step count also throws CheckpointError; the explorer is
  /// then consumed, and it and its evaluator must be discarded.
  void ResumeFrom(const Checkpoint& checkpoint);

  const ExplorerConfig& Config() const noexcept { return config_; }

 private:
  struct Run;  // live exploration state (env, agent, partial result)

  void EnsureStarted();
  void StepOnce();
  void FillSolutionFields(ExplorationResult& result) const;

  Evaluator* evaluator_;
  RewardConfig reward_;
  ExplorerConfig config_;
  std::unique_ptr<Run> run_;
  bool consumed_ = false;
};

}  // namespace axdse::dse
