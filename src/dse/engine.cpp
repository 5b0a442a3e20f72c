#include "dse/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "dse/checkpoint.hpp"
#include "dse/evaluator.hpp"

namespace axdse::dse {

namespace {

/// One (request, seed) exploration job.
struct Job {
  std::size_t request_index = 0;
  std::size_t seed_index = 0;
};

/// Signature components may contain the separators; escape them so the
/// mapping request -> signature stays injective (distinct kernel identities
/// must never share a measurement cache).
std::string EscapeSignatureToken(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '%')
      out += "%25";
    else if (c == '|')
      out += "%7c";
    else if (c == '=')
      out += "%3d";
    else
      out.push_back(c);
  }
  return out;
}

/// Cache identity of a registry request: same string <=> registry Create()
/// yields behaviorally identical kernels (factories are deterministic in
/// (spec, seed)). KernelSpec::ToString() is canonical, so the spec string
/// plus the data seed is the whole identity.
std::string RegistrySignature(const ExplorationRequest& request) {
  return EscapeSignatureToken(request.kernel.ToString()) +
         "|seed=" + std::to_string(request.kernel_seed);
}

/// Slot a job writes into; slots are preassigned so the batch outcome does
/// not depend on which worker ran which job.
struct JobOutcome {
  ExplorationResult result;
  RewardConfig reward;
  std::string kernel_name;
  std::exception_ptr error;
  /// Set when the job suspended mid-run (step budget or should_suspend): its
  /// snapshot, written at batch end after every worker has joined.
  std::optional<Checkpoint> suspended;
  /// The job ran to completion in this invocation (not restored from a
  /// finished snapshot); its finished snapshot is owed if the batch stops
  /// short.
  bool finished_here = false;
};

/// Prefix qualifying a shared-cache group's snapshot identity by the whole
/// batch: a different batch over the same kernels sharing one directory must
/// neither restore nor delete this batch's cache state.
std::string CacheSnapshotPrefix(const std::vector<std::string>& request_texts) {
  std::string batch_key;
  for (const std::string& text : request_texts) {
    batch_key += text;
    batch_key += '\n';
  }
  return "batch#" + std::to_string(StableHash64(batch_key)) + "|";
}

/// Wraps the exception in flight with the job's identity (the batch is
/// rethrown far from the failing request), nesting the original so callers
/// can reach the root cause. Call only from a catch block.
std::exception_ptr JobFailure(const ExplorationRequest& request,
                              const Job& job) {
  const std::string kernel_name =
      request.kernel_override ? "<override>" : request.kernel.ToString();
  std::string what = "unknown error";
  try {
    throw;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  try {
    std::throw_with_nested(BatchJobError(
        "Engine::Run: job failed (request #" +
            std::to_string(job.request_index) + ", kernel '" + kernel_name +
            "', seed " + std::to_string(request.seed + job.seed_index) +
            "): " + what,
        job.request_index, request.seed + job.seed_index, kernel_name));
  } catch (...) {
    return std::current_exception();
  }
}

std::string ModalKey(const std::map<std::string, std::size_t>& votes) {
  std::string best;
  std::size_t best_count = 0;
  for (const auto& [key, count] : votes) {
    if (count > best_count) {  // map order makes ties lexicographic-first
      best = key;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

std::vector<std::string> BatchSnapshotFileNames(
    const std::vector<ExplorationRequest>& requests) {
  std::vector<std::string> request_texts;
  request_texts.reserve(requests.size());
  for (const ExplorationRequest& request : requests)
    request_texts.push_back(request.ToString());
  std::vector<std::string> names;
  std::set<std::string> signatures;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    for (std::size_t s = 0; s < requests[r].num_seeds; ++s)
      names.push_back(
          JobCheckpointFileName(request_texts[r], requests[r].seed + s));
    if (requests[r].cache_mode == CacheMode::kShared &&
        !requests[r].kernel_override)
      signatures.insert(RegistrySignature(requests[r]));
  }
  const std::string prefix = CacheSnapshotPrefix(request_texts);
  for (const std::string& signature : signatures)
    names.push_back(CacheCheckpointFileName(prefix + signature));
  return names;
}

std::string RequestResult::ModalAdder() const { return ModalKey(adder_votes); }

std::string RequestResult::ModalMultiplier() const {
  return ModalKey(multiplier_votes);
}

std::size_t BatchResult::TotalRuns() const noexcept {
  std::size_t total = 0;
  for (const RequestResult& r : results) total += r.runs.size();
  return total;
}

std::size_t BatchResult::TotalSteps() const noexcept {
  std::size_t total = 0;
  for (const RequestResult& r : results)
    for (const ExplorationResult& run : r.runs) total += run.steps;
  return total;
}

std::size_t BatchResult::TotalDistinctEvaluations() const noexcept {
  std::size_t total = 0;
  for (const RequestResult& r : results) total += r.cache.distinct_evaluations;
  return total;
}

std::size_t BatchResult::TotalExecutedRuns() const noexcept {
  std::size_t total = 0;
  for (const RequestResult& r : results) total += r.cache.executed_runs;
  return total;
}

std::size_t BatchResult::TotalSavedRuns() const noexcept {
  std::size_t total = 0;
  for (const RequestResult& r : results) total += r.cache.saved_runs;
  return total;
}

Engine::Engine(const EngineOptions& options,
               const workloads::KernelRegistry& registry)
    : options_(options), registry_(&registry) {}

std::size_t Engine::NumWorkers() const noexcept {
  if (options_.num_workers > 0) return options_.num_workers;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

BatchResult Engine::Run(const std::vector<ExplorationRequest>& requests,
                        const CheckpointOptions& checkpoint,
                        const RunHooks& hooks) const {
  namespace fs = std::filesystem;
  const bool checkpointing = !checkpoint.directory.empty();
  if (hooks.should_suspend && !checkpointing)
    throw std::invalid_argument(
        "Engine::Run: RunHooks::should_suspend requires a checkpoint "
        "directory (a suspended job must have somewhere to persist)");
  // Steps between hook invocations; 0 = hooks only at finish/suspend.
  const std::size_t hook_interval =
      hooks.Active() ? (hooks.interval > 0 ? hooks.interval : 1024) : 0;
  for (const ExplorationRequest& request : requests) {
    request.Validate();
    // Fail fast on unresolvable names — a typo in one request of a large
    // batch must not surface only after every other job has run.
    if (!request.kernel_override && !registry_->Has(request.kernel.name)) {
      std::string known;
      for (const std::string& name : registry_->Names())
        known += known.empty() ? name : ", " + name;
      throw std::invalid_argument("Engine::Run: unknown kernel '" +
                                  request.kernel.name +
                                  "' (registered: " + known + ")");
    }
    if (checkpointing && request.kernel_override)
      throw std::invalid_argument(
          "Engine::Run: checkpointing requires registry-named kernels "
          "(kernel_override instances are not serializable)");
  }

  // Job snapshots are keyed by request serialization + absolute seed; the
  // serializations double as the identity stored inside each snapshot.
  std::vector<std::string> request_texts(requests.size());
  if (checkpointing)
    for (std::size_t r = 0; r < requests.size(); ++r)
      request_texts[r] = requests[r].ToString();

  // Group CacheMode::kShared requests by kernel identity: one
  // SharedEvaluationCache per distinct signature, handed to every job of the
  // group. kernel_override instances are distinguished by pointer but named
  // by first-appearance order, so exported signatures are reproducible.
  std::map<std::string, std::shared_ptr<instrument::SharedEvaluationCache>>
      caches;
  std::map<std::string, std::size_t> cache_jobs;
  std::map<const workloads::Kernel*, std::size_t> override_ids;
  std::vector<std::shared_ptr<instrument::SharedEvaluationCache>>
      request_cache(requests.size());
  // Cache groups whose cache came from RunHooks::cache_provider: owned by
  // the caller, exempt from the engine's snapshot persist/restore.
  std::set<std::string> provided_caches;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const ExplorationRequest& request = requests[r];
    if (request.cache_mode != CacheMode::kShared) continue;
    std::string signature;
    if (request.kernel_override) {
      const auto [it, inserted] = override_ids.emplace(
          request.kernel_override.get(), override_ids.size());
      (void)inserted;
      signature = "override#" + std::to_string(it->second);
    } else {
      signature = RegistrySignature(request);
    }
    auto& slot = caches[signature];
    // First request of a group fixes the capacity bound (documented on
    // ExplorationRequest::cache_capacity).
    if (!slot) {
      if (hooks.cache_provider) {
        slot = hooks.cache_provider(signature, request.cache_capacity);
        if (slot) provided_caches.insert(signature);
      }
      if (!slot) {
        instrument::SharedEvaluationCache::Options options;
        options.capacity = request.cache_capacity;
        slot = std::make_shared<instrument::SharedEvaluationCache>(options);
      }
    }
    cache_jobs[signature] += request.num_seeds;
    request_cache[r] = slot;
  }

  // Restore suspended shared-cache groups BEFORE any worker starts, so a
  // resumed batch replays the uninterrupted run's cache behaviour (and its
  // exported statistics) byte for byte. Snapshot identity is the kernel
  // signature qualified by the whole batch (CacheSnapshotPrefix).
  std::map<std::string, std::string> cache_paths;       // signature -> path
  std::map<std::string, std::string> cache_identities;  // signature -> id
  if (checkpointing) {
    const std::string prefix = CacheSnapshotPrefix(request_texts);
    for (const auto& [signature, cache] : caches) {
      if (provided_caches.count(signature) != 0) continue;
      const std::string identity = prefix + signature;
      const std::string path = (fs::path(checkpoint.directory) /
                                CacheCheckpointFileName(identity))
                                   .string();
      cache_paths[signature] = path;
      cache_identities[signature] = identity;
      std::error_code ec;
      if (fs::exists(path, ec)) {
        const SharedCacheCheckpoint snapshot =
            SharedCacheCheckpoint::Load(path);
        if (snapshot.signature != identity)
          throw CheckpointError("Engine::Run: cache snapshot at " + path +
                                " belongs to '" + snapshot.signature +
                                "', expected '" + identity + "'");
        cache->Restore(snapshot.entries, snapshot.stats);
      }
    }
  }

  std::vector<Job> jobs;
  for (std::size_t r = 0; r < requests.size(); ++r)
    for (std::size_t s = 0; s < requests[r].num_seeds; ++s)
      jobs.push_back(Job{r, s});
  std::vector<JobOutcome> outcomes(jobs.size());

  std::atomic<std::size_t> next_job{0};
  const auto worker = [&]() noexcept {
    while (true) {
      const std::size_t index = next_job.fetch_add(1);
      if (index >= jobs.size()) return;
      const Job& job = jobs[index];
      JobOutcome& out = outcomes[index];
      bool restoring = false;  // the job's snapshot loads and validates
      try {
        const ExplorationRequest& request = requests[job.request_index];
        // Resolve the kernel: the caller's instance when overridden (shared
        // read-only across this request's jobs), otherwise a fresh
        // deterministic instance from the registry so workers stay fully
        // independent.
        std::shared_ptr<const workloads::Kernel> kernel =
            request.kernel_override;
        if (!kernel)
          kernel = registry_->Create(request.kernel, request.kernel_seed);
        // The engine owns the evaluator for exactly the job's lifetime —
        // explorer and environment only ever see a live reference.
        const auto evaluator = std::make_unique<Evaluator>(
            *kernel, request_cache[job.request_index]);
        const RewardConfig reward =
            MakePaperRewardConfig(*evaluator, request.thresholds);
        // Surrogate tier: only without trace recording — traces must hold
        // real measurements, so the tier stays off for traced runs.
        if (request.surrogate && !request.record_trace)
          evaluator->EnableSurrogate(reward.acc_threshold);
        ExplorerConfig config = request.ToExplorerConfig();
        config.seed = request.seed + job.seed_index;
        Explorer explorer(*evaluator, reward, config);

        const auto report = [&](std::size_t steps, double cumulative_reward,
                                const instrument::Measurement* best,
                                bool finished, bool suspended) {
          if (!hooks.on_progress) return;
          JobProgress progress;
          progress.request_index = job.request_index;
          progress.seed_index = job.seed_index;
          progress.seed = config.seed;
          progress.steps = steps;
          progress.cumulative_reward = cumulative_reward;
          if (best) {
            progress.has_best = true;
            progress.best = *best;
          }
          progress.finished = finished;
          progress.suspended = suspended;
          hooks.on_progress(progress);
        };
        // Progress snapshot from the live explorer (must be called before
        // Finish(), which consumes the run state).
        const auto emit = [&](bool finished, bool suspended) {
          report(explorer.StepsTaken(), explorer.CumulativeRewardSoFar(),
                 explorer.BestFeasibleSoFar(), finished, suspended);
        };

        const std::string& request_text = request_texts[job.request_index];
        const std::string path =
            checkpointing ? (fs::path(checkpoint.directory) /
                             JobCheckpointFileName(request_text, config.seed))
                                .string()
                          : std::string();
        const auto take_snapshot = [&]() {
          Checkpoint snapshot = explorer.Suspend();
          snapshot.request = request_text;
          snapshot.seed = config.seed;
          return snapshot;
        };

        // Resume: the explorer replays a mid-run snapshot's steps from its
        // memo (never touching the shared cache); a finished one
        // short-circuits the job entirely. A snapshot that fails to load,
        // validate or replay fails the job, which discards the explorer
        // and its evaluator with it.
        bool done = false;
        std::error_code ec;
        if (checkpointing && fs::exists(path, ec)) {
          restoring = true;
          Checkpoint snapshot = Checkpoint::Load(path);
          if (snapshot.request != request_text || snapshot.seed != config.seed)
            throw CheckpointError(
                "Engine::Run: snapshot at " + path +
                " belongs to a different job (request/seed mismatch)");
          if (!snapshot.finished) explorer.ResumeFrom(snapshot);
          restoring = false;
          if (snapshot.finished) {
            out.result = std::move(snapshot.result);
            // stage_counts is derived data (recomputed from the solution at
            // Finish()), not part of the snapshot format.
            out.result.stage_counts = kernel->StageCounts(out.result.solution);
            done = true;
            // The explorer never ran; report from the restored result.
            report(out.result.steps, out.result.cumulative_reward,
                   out.result.has_best_feasible
                       ? &out.result.best_feasible_measurement
                       : nullptr,
                   true, false);
          }
        }

        if (!done) {
          // The one stepping loop. A chunk ends at the next autosave, hook
          // poll or budget edge; with none of them set the job runs as one
          // chunk, the same StepOnce sequence as Explorer::Explore().
          // Autosave and budget apply only with a checkpoint directory.
          const std::size_t interval =
              !checkpointing                    ? 0
              : request.checkpoint_interval > 0 ? request.checkpoint_interval
                                                : checkpoint.interval;
          const std::size_t budget =
              checkpointing ? checkpoint.step_budget : 0;
          std::size_t new_steps = 0;
          std::size_t since_save = 0;
          bool suspended = false;
          while (true) {
            std::size_t chunk = std::numeric_limits<std::size_t>::max();
            if (interval > 0) chunk = interval;
            if (hook_interval > 0) chunk = std::min(chunk, hook_interval);
            if (budget > 0) chunk = std::min(chunk, budget - new_steps);
            const std::size_t taken = explorer.RunSteps(chunk);
            new_steps += taken;
            since_save += taken;
            if (explorer.Finished()) break;
            suspended = (budget > 0 && new_steps >= budget) ||
                        (hooks.should_suspend && hooks.should_suspend());
            if (suspended) break;
            emit(false, false);
            if (interval > 0 && since_save >= interval) {
              take_snapshot().Save(path);
              since_save = 0;
            }
          }
          if (suspended) {
            out.suspended = take_snapshot();  // written at batch end
            out.result = explorer.PartialResult();
            emit(false, true);
          } else {
            emit(true, false);
            out.result = explorer.Finish();
            out.finished_here = true;  // snapshot written at batch end
          }
        }
        out.reward = reward;
        out.kernel_name = kernel->Name();
      } catch (const CheckpointError&) {
        // A snapshot that fails to load or validate surfaces unwrapped, as
        // Run's documented CheckpointError.
        out.error = restoring ? std::current_exception()
                              : JobFailure(requests[job.request_index], job);
      } catch (...) {
        // Never swallow a job failure.
        out.error = JobFailure(requests[job.request_index], job);
      }
    }
  };

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(NumWorkers(), jobs.size()));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  std::size_t unfinished = 0;
  bool failed = false;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.suspended) ++unfinished;
    if (outcome.error) failed = true;
  }

  if (checkpointing && (unfinished > 0 || failed)) {
    // The batch stops short (a step budget, should_suspend, or a failed
    // sibling job), so the next invocation against this directory resumes
    // it. Jobs that suspended persist their mid-run state now, and jobs that
    // finished in this invocation persist their results: the next
    // invocation loads those instead of re-running them against the
    // persisted shared caches, which would distort the exported statistics.
    // Writing both only here, before the cache snapshots below, means a
    // crash mid-batch leaves no job snapshot newer than its cache state (bar
    // interval autosaves), so the rerun recomputes those jobs against the
    // same cache state. A failed save is that job's failure.
    for (std::size_t index = 0; index < jobs.size(); ++index) {
      JobOutcome& outcome = outcomes[index];
      if (!outcome.finished_here && !outcome.suspended) continue;
      const Job& job = jobs[index];
      const ExplorationRequest& request = requests[job.request_index];
      try {
        Checkpoint snapshot;
        if (outcome.suspended) {
          snapshot = std::move(*outcome.suspended);
        } else {
          snapshot.request = request_texts[job.request_index];
          snapshot.seed = request.seed + job.seed_index;
          snapshot.agent_kind = dse::ToString(request.agent_kind);
          snapshot.finished = true;
          snapshot.result = outcome.result;
        }
        snapshot.Save((fs::path(checkpoint.directory) /
                       JobCheckpointFileName(snapshot.request, snapshot.seed))
                          .string());
      } catch (...) {
        outcome.error = JobFailure(request, job);
      }
    }
    // Persist each shared-cache group next to the job snapshots — also on
    // the error path, where other jobs may already have written advanced
    // snapshots. All workers have joined, so the snapshot is quiescent;
    // under budget suspension its contents (every configuration any job
    // touched before suspending, computed exactly once) and counters are
    // scheduling-independent. Provider-owned caches are the caller's to
    // persist (or not).
    for (const auto& [signature, cache] : caches) {
      if (provided_caches.count(signature) != 0) continue;
      SharedCacheCheckpoint snapshot;
      snapshot.signature = cache_identities.at(signature);
      snapshot.entries = cache->Entries();
      snapshot.stats = cache->Stats();
      snapshot.Save(cache_paths.at(signature));
    }
  }
  // First failure in job order — deterministic regardless of which worker
  // hit it first.
  for (const JobOutcome& outcome : outcomes)
    if (outcome.error) std::rethrow_exception(outcome.error);

  if (checkpointing && unfinished == 0) {
    // Batch complete: nothing left to resume; drop this batch's files.
    std::error_code ec;
    for (const std::string& name : BatchSnapshotFileNames(requests))
      fs::remove(fs::path(checkpoint.directory) / name, ec);
  }

  // Fold per-request aggregates serially, in request and seed order.
  BatchResult batch;
  batch.unfinished_jobs = unfinished;
  batch.results.resize(requests.size());
  std::size_t outcome_index = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    RequestResult& request_result = batch.results[r];
    request_result.request = requests[r];
    util::RunningStats power_stats;
    util::RunningStats time_stats;
    util::RunningStats acc_stats;
    util::RunningStats step_stats;
    std::size_t feasible = 0;
    request_result.cache.mode = requests[r].cache_mode;
    request_result.runs.reserve(requests[r].num_seeds);
    for (std::size_t s = 0; s < requests[r].num_seeds; ++s) {
      JobOutcome& outcome = outcomes[outcome_index++];
      if (s == 0) {
        request_result.kernel_name = std::move(outcome.kernel_name);
        request_result.reward = outcome.reward;
      }
      const ExplorationResult& run = outcome.result;
      request_result.cache.distinct_evaluations += run.kernel_runs;
      request_result.cache.executed_runs += run.kernel_runs_executed;
      request_result.cache.local_hits += run.cache_hits;
      request_result.cache.shared_hits += run.shared_cache_hits;
      request_result.cache.surrogate_hits += run.surrogate_hits;
      request_result.cache.deferred_runs += run.kernel_runs_deferred;
      power_stats.Add(run.solution_measurement.delta_power_mw);
      time_stats.Add(run.solution_measurement.delta_time_ns);
      acc_stats.Add(run.solution_measurement.delta_acc);
      step_stats.Add(static_cast<double>(run.steps));
      if (run.solution_measurement.delta_acc <= outcome.reward.acc_threshold)
        ++feasible;
      ++request_result.adder_votes[run.solution_adder];
      ++request_result.multiplier_votes[run.solution_multiplier];
      request_result.runs.push_back(std::move(outcome.result));
    }
    request_result.solution_delta_power = util::Summarize(power_stats);
    request_result.solution_delta_time = util::Summarize(time_stats);
    request_result.solution_delta_acc = util::Summarize(acc_stats);
    request_result.steps = util::Summarize(step_stats);
    request_result.feasible_fraction =
        static_cast<double>(feasible) /
        static_cast<double>(requests[r].num_seeds);
    request_result.cache.saved_runs = request_result.cache.distinct_evaluations -
                                      request_result.cache.executed_runs;
  }

  // std::map iteration = signature order, so the report list is stable.
  batch.shared_caches.reserve(caches.size());
  for (const auto& [signature, cache] : caches)
    batch.shared_caches.push_back(
        SharedCacheReport{signature, cache_jobs[signature], cache->Stats()});
  return batch;
}

}  // namespace axdse::dse
