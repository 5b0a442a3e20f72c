#pragma once
// dse::Engine — the batch execution layer of the facade. Takes a vector of
// ExplorationRequests, expands each into `num_seeds` independent jobs, and
// runs the jobs on a std::thread worker pool. Every job gets its own kernel
// instance (or shares the request's read-only kernel_override), its own
// engine-owned Evaluator, and writes into a preassigned result slot, so the
// result payload — solutions, traces, rewards, and every per-run field — is
// bit-identical regardless of worker count or scheduling order. The
// operator characterization behind every kernel is the shared, immutable
// EvoApproxCatalog singleton.
//
// Requests with CacheMode::kShared additionally share one sharded
// SharedEvaluationCache per kernel identity, so a configuration measured by
// any job in the group is never executed again by the others — solutions,
// traces, and rewards stay byte-identical to private mode; only kernel-run
// counts (cost) change. The aggregate cache statistics are also
// worker-count-independent for an unbounded cache, except that when SEVERAL
// requests share one cache group (or a capacity bound is set) the
// per-request executed/saved split is scheduling-dependent — only the group
// totals are stable (see CacheUsage::executed_runs).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/request.hpp"
#include "instrument/shared_evaluation_cache.hpp"
#include "util/statistics.hpp"

namespace axdse::dse {

/// Aggregate cache behaviour of one request's jobs.
struct CacheUsage {
  CacheMode mode = CacheMode::kPrivate;
  /// Distinct configurations evaluated, summed over the request's runs —
  /// the kernel executions private mode performs. Deterministic always.
  std::size_t distinct_evaluations = 0;
  /// Kernel executions actually performed. Equal to distinct_evaluations in
  /// private mode. With an unbounded shared cache the total over a cache
  /// group is deterministic for any worker count (each configuration is
  /// computed exactly once); when several requests share one cache, how the
  /// executions split between them is scheduling-dependent.
  std::size_t executed_runs = 0;
  /// Kernel executions avoided: distinct_evaluations - executed_runs.
  std::size_t saved_runs = 0;
  /// Private per-job memo hits (repeat visits along each job's own path).
  std::size_t local_hits = 0;
  /// Evaluations answered by the shared cache.
  std::size_t shared_hits = 0;
  /// Evaluations answered by the surrogate tier, summed over the request's
  /// runs (0 with surrogate off). Deterministic for any worker count.
  std::size_t surrogate_hits = 0;
  /// Distinct configurations skipped by the surrogate and never executed —
  /// kernel runs the request saved outright. Deterministic always.
  std::size_t deferred_runs = 0;
};

/// Engine tuning knobs.
struct EngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). The
  /// result is identical for any worker count (only wall-clock changes).
  std::size_t num_workers = 0;
};

/// Batch checkpoint/resume policy (see dse/checkpoint.hpp). Disabled unless
/// `directory` is non-empty. With a directory set, every (request, seed)
/// job keeps one snapshot file keyed by the request serialization plus its
/// absolute seed, shared-cache groups persist alongside, and a rerun of the
/// same batch against the same directory resumes instead of restarting —
/// with byte-identical results, traces, rewards, and JSON/CSV exports to
/// the uninterrupted run. Requires registry-named kernels
/// (kernel_override is not serializable; Run() throws otherwise).
///
/// Every job snapshot is the same small log (identity, step count,
/// shared-hit count; see dse/checkpoint.hpp), mid-run or finished, and
/// every restored job is replayed privately: resuming re-executes at most
/// the work done before the snapshot, without touching the shared caches.
///
/// When snapshots are written: a suspended job's log, a finished job's log
/// and the shared-cache groups are all saved after every worker has joined,
/// and only when the batch ends unfinished (a suspended or failed job). A
/// batch that completes writes no job snapshot and removes its files. A
/// crash mid-batch therefore leaves only what earlier invocations and
/// interval autosaves wrote: the rerun recomputes the jobs of this
/// invocation, byte-identically, against the same cache state.
/// Interval autosaves are the one write during the run, so they keep a
/// window: a kill after an autosave but before the batch ends leaves a
/// mid-run snapshot newer than the persisted shared cache. Its rerun
/// restores that job against the older cache; logical results stay
/// byte-identical, but the shared-cache totals may shift.
struct CheckpointOptions {
  /// Snapshot directory (created on demand). Empty = checkpointing off.
  std::string directory;
  /// Autosave period in environment steps (0 = save only at suspension).
  /// ExplorationRequest::checkpoint_interval overrides this per request
  /// when non-zero.
  std::size_t interval = 0;
  /// Cooperative preemption: each job takes at most this many NEW steps in
  /// this invocation, then suspends into `directory`. Suspended runs carry
  /// stop reason "suspended" and are counted by BatchResult::unfinished_jobs;
  /// rerunning the batch with the same directory continues them. 0 = run to
  /// completion.
  std::size_t step_budget = 0;
};

/// Mid-run snapshot of one (request, seed) job, handed to
/// RunHooks::on_progress. Cheap by construction: counters only, no result
/// copies.
struct JobProgress {
  std::size_t request_index = 0;
  std::size_t seed_index = 0;
  /// Absolute agent seed (request seed + seed index).
  std::uint64_t seed = 0;
  /// Environment steps taken so far, including steps restored from a
  /// checkpoint snapshot.
  std::size_t steps = 0;
  /// Reward accumulated so far (across episodes, including the open one).
  double cumulative_reward = 0.0;
  /// Best feasible measurement seen so far; has_best is false until one
  /// exists.
  bool has_best = false;
  instrument::Measurement best;
  /// The job ran its last step (Finish() comes next).
  bool finished = false;
  /// The job suspended; its snapshot is written when the batch ends.
  bool suspended = false;
};

/// Observation and control hooks for Engine::Run. All callbacks are invoked
/// from worker threads (possibly several concurrently); they must be
/// thread-safe and cheap. Hooks never change results — only scheduling,
/// cost counters (cache_provider), and what the caller gets to observe.
struct RunHooks {
  /// Environment steps between hook invocations per job (on_progress calls
  /// and should_suspend polls). 0 picks a default of 1024 when either hook
  /// is set.
  std::size_t interval = 0;
  /// Called roughly every `interval` steps per job, plus once when the job
  /// finishes or suspends.
  std::function<void(const JobProgress&)> on_progress;
  /// Polled between step slices; returning true suspends the job exactly
  /// like an exhausted step budget (requires
  /// CheckpointOptions::directory; Run throws std::invalid_argument
  /// otherwise). The engine's cooperative-drain hook.
  std::function<bool()> should_suspend;
  /// When set, CacheMode::kShared groups ask this for their cache instead
  /// of constructing one, letting a long-lived caller share measurement
  /// caches ACROSS Run calls (same-kernel jobs warm-start each other).
  /// Returning nullptr falls back to a Run-local cache. Provider-owned
  /// caches are NOT checkpoint-persisted/restored by the engine (the caller
  /// owns their lifetime), so cost counters of shared-mode jobs may differ
  /// between a drained-and-resumed run and an uninterrupted one — logical
  /// results never do.
  std::function<std::shared_ptr<instrument::SharedEvaluationCache>(
      const std::string& signature, std::size_t capacity)>
      cache_provider;

  /// True when any observation/control hook is set.
  bool Active() const noexcept {
    return static_cast<bool>(on_progress) || static_cast<bool>(should_suspend);
  }
};

/// Outcome of one request: the per-seed ExplorationResults plus the
/// multi-seed aggregation that used to live in MultiRunResult.
struct RequestResult {
  /// The request as executed.
  ExplorationRequest request;
  /// Resolved kernel name, e.g. "matmul-10x10".
  std::string kernel_name;
  /// The reward thresholds derived from the precise run (identical across
  /// seeds — evaluation is deterministic).
  RewardConfig reward;

  /// Per-seed results; run i used agent seed `request.seed + i`.
  std::vector<ExplorationResult> runs;

  /// Summaries of the per-run solution metrics (count == runs.size()).
  util::Summary solution_delta_power;
  util::Summary solution_delta_time;
  util::Summary solution_delta_acc;
  util::Summary steps;

  /// Operator type codes selected by the per-seed solutions.
  std::map<std::string, std::size_t> adder_votes;
  std::map<std::string, std::size_t> multiplier_votes;

  /// Fraction of runs whose solution respected the accuracy threshold.
  double feasible_fraction = 0.0;

  /// Aggregate cache behaviour of this request's jobs.
  CacheUsage cache;

  /// Most-voted operator type codes (ties: lexicographically smallest).
  std::string ModalAdder() const;
  std::string ModalMultiplier() const;
};

/// Final state of one shared cache group after the batch. Jobs share one
/// cache iff their requests have the same signature: registry requests map
/// to "<kernel spec>|seed=K" (the canonical KernelSpec string plus the data
/// seed), kernel_override requests to "override#N" with N the override's
/// first-appearance index in the batch (stable across worker counts and
/// reruns).
struct SharedCacheReport {
  std::string signature;
  /// Jobs that shared this cache (sum of num_seeds over its requests).
  std::size_t jobs = 0;
  instrument::CacheStats stats;
};

/// Outcome of one Engine::Run call, in request order.
struct BatchResult {
  std::vector<RequestResult> results;

  /// One report per shared cache group, sorted by signature (empty when the
  /// batch ran entirely with private caches).
  std::vector<SharedCacheReport> shared_caches;

  /// Jobs suspended by CheckpointOptions::step_budget in this invocation
  /// (their partial results carry stop reason "suspended"). 0 for a batch
  /// that ran to completion.
  std::size_t unfinished_jobs = 0;

  /// True when every job finished (nothing left to resume).
  bool Complete() const noexcept { return unfinished_jobs == 0; }

  /// Total explorations across all requests (sum of runs.size()).
  std::size_t TotalRuns() const noexcept;
  /// Total environment steps taken across all runs.
  std::size_t TotalSteps() const noexcept;
  /// Distinct-configuration evaluations across all runs (the kernel
  /// executions an all-private batch performs).
  std::size_t TotalDistinctEvaluations() const noexcept;
  /// Kernel executions actually performed across all runs.
  std::size_t TotalExecutedRuns() const noexcept;
  /// Kernel executions avoided by shared caching.
  std::size_t TotalSavedRuns() const noexcept;
};

/// Failure of one (request, seed) job inside Engine::Run. The engine lets
/// every worker drain, then rethrows the first failing job's error in job
/// order (deterministic for any worker count), wrapped in this type with
/// the original exception nested — catch BatchJobError for the job identity
/// and std::rethrow_if_nested() to reach the root cause.
class BatchJobError : public std::runtime_error {
 public:
  BatchJobError(const std::string& message, std::size_t request_index,
                std::uint64_t seed, std::string kernel)
      : std::runtime_error(message),
        request_index_(request_index),
        seed_(seed),
        kernel_(std::move(kernel)) {}

  /// Index of the failing request in the Run() batch.
  std::size_t RequestIndex() const noexcept { return request_index_; }
  /// Absolute agent seed of the failing job (request seed + seed index).
  std::uint64_t Seed() const noexcept { return seed_; }
  /// Kernel name of the failing request ("<override>" for instances).
  const std::string& Kernel() const noexcept { return kernel_; }

 private:
  std::size_t request_index_ = 0;
  std::uint64_t seed_ = 0;
  std::string kernel_;
};

/// File names, inside a checkpoint directory, of every snapshot
/// Engine::Run may keep for `requests`: each job's "job-*.ckpt" in job
/// order, then each shared-cache group's "cache-*.ckpt" in signature order.
/// Cache names are qualified by the whole batch, so removing them never
/// touches another batch's cache snapshots.
std::vector<std::string> BatchSnapshotFileNames(
    const std::vector<ExplorationRequest>& requests);

/// Executes request batches. Stateless between Run() calls; one Engine can
/// be reused freely. Kernel names resolve against the registry given at
/// construction (the global one by default).
class Engine {
 public:
  explicit Engine(
      const EngineOptions& options = {},
      const workloads::KernelRegistry& registry =
          workloads::KernelRegistry::Global());

  /// Validates and runs all requests (each times num_seeds explorations) on
  /// the worker pool and returns results in request order, identical for
  /// any worker count. Every job runs through one stepping loop.
  ///
  /// Resume and preemption: with `checkpoint.directory` set, jobs resume
  /// from snapshots already in the directory by replaying them privately (a
  /// finished snapshot replays to its last step and takes no new one),
  /// autosave every `interval` steps, and suspend after `step_budget` new
  /// steps or when `hooks.should_suspend` returns true.
  /// Rerunning the same batch against the same directory continues it; the
  /// final results and JSON/CSV exports are byte-identical to an
  /// uninterrupted run. When the batch ends unfinished, every job that
  /// suspended or finished in this call saves its snapshot (jobs restored
  /// as finished are not written again), then the shared-cache groups;
  /// once every job completed, the batch's snapshot files are removed
  /// instead. Without a directory, `interval` and `step_budget` are ignored.
  ///
  /// Hooks (see RunHooks) add per-job progress callbacks, cooperative
  /// suspension polling and external shared-cache provision; they never
  /// change logical results.
  ///
  /// Throws std::invalid_argument on an invalid request or unknown kernel,
  /// when checkpointing is combined with kernel_override requests, and when
  /// `hooks.should_suspend` is set without a checkpoint directory. The
  /// first failing job's exception (in job order) is rethrown after all
  /// workers finish: a snapshot that fails to load, validate or replay
  /// surfaces as that CheckpointError itself, unwrapped; any other failure, a snapshot
  /// that fails to save included, is that job's BatchJobError.
  BatchResult Run(const std::vector<ExplorationRequest>& requests,
                  const CheckpointOptions& checkpoint = {},
                  const RunHooks& hooks = {}) const;

  /// Effective worker count (resolves the 0 = hardware default).
  std::size_t NumWorkers() const noexcept;

 private:
  EngineOptions options_;
  const workloads::KernelRegistry* registry_;
};

}  // namespace axdse::dse
