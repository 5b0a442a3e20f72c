// Engine determinism property test: for every kernel in the registry, the
// BatchResult payload — solutions, traces, rewards — must be byte-identical
// across {1, 2, 8} workers x {private, shared} evaluation-cache modes. This
// is the contract the shared cache rests on: measurements are a pure
// function of the configuration, so caching may only change cost, never
// results. Additionally, the full JSON/CSV exports (which include the
// aggregate cache statistics) must be byte-identical across worker counts
// within each mode — the unbounded shared cache's compute-once path makes
// even its statistics scheduling-independent.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_support.hpp"
#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "report/export.hpp"
#include "util/number_format.hpp"
#include "workloads/registry.hpp"

namespace axdse::dse {
namespace {

/// Small-but-real parameters per built-in kernel, so six kernels x six
/// (workers, mode) combos stay fast.
std::size_t SmallSize(const std::string& kernel) {
  static const std::map<std::string, std::size_t> sizes = {
      {"matmul", 4}, {"fir", 24}, {"iir", 24},
      {"conv2d", 6}, {"dct", 1},  {"dot", 16},
  };
  const auto it = sizes.find(kernel);
  return it == sizes.end() ? 0 : it->second;  // 0 = kernel default
}

std::vector<ExplorationRequest> RegistryBatch(CacheMode mode) {
  std::vector<ExplorationRequest> requests;
  for (const std::string& name : workloads::KernelRegistry::Global().Names())
    requests.push_back(
        {.kernel = workloads::KernelSpec(name, SmallSize(name)),
         .kernel_seed = 7,
         .max_steps = 120,
         .max_cumulative_reward = 1e18,
         .num_seeds = 2,
         .seed = 3,
         .record_trace = true,
         .cache_mode = mode,
         .epsilon_start = 1.0,
         .epsilon_end = 0.05,
         .epsilon_decay_steps = 90});
  return requests;
}

void WriteMeasurement(std::ostringstream& out,
                      const instrument::Measurement& m) {
  out << util::ShortestDouble(m.delta_acc) << ","
      << util::ShortestDouble(m.delta_power_mw) << ","
      << util::ShortestDouble(m.delta_time_ns) << ","
      << util::ShortestDouble(m.approx_power_mw) << ","
      << util::ShortestDouble(m.approx_time_ns);
}

/// Canonical serialization of everything the paper reports: solutions,
/// rewards, and full traces. Deliberately excludes cache statistics and
/// physical kernel-run counts, which legitimately differ between modes.
std::string PayloadOf(const BatchResult& batch) {
  std::ostringstream out;
  for (const RequestResult& result : batch.results) {
    out << result.kernel_name << "|"
        << util::ShortestDouble(result.reward.acc_threshold) << "\n";
    for (const ExplorationResult& run : result.runs) {
      out << "run steps=" << run.steps
          << " stop=" << rl::ToString(run.stop_reason)
          << " cum=" << util::ShortestDouble(run.cumulative_reward)
          << " solution=" << run.solution.ToString() << " ops="
          << run.solution_adder << "/" << run.solution_multiplier
          << " distinct=" << run.kernel_runs
          << " local_hits=" << run.cache_hits << " m=";
      WriteMeasurement(out, run.solution_measurement);
      out << " best=" << (run.has_best_feasible
                              ? run.best_feasible.ToString()
                              : std::string("none"))
          << "\nrewards";
      for (const double r : run.rewards) out << " " << util::ShortestDouble(r);
      out << "\n";
      for (const StepRecord& record : run.trace) {
        out << record.step << "," << record.action << ","
            << util::ShortestDouble(record.reward) << ","
            << util::ShortestDouble(record.cumulative_reward) << ","
            << record.config.ToString() << ",";
        WriteMeasurement(out, record.measurement);
        out << "\n";
      }
    }
  }
  return out.str();
}

TEST(EngineDeterminism, PayloadIdenticalAcrossWorkersAndCacheModes) {
  const std::size_t worker_counts[] = {1, 2, 8};

  std::string reference_payload;
  for (const CacheMode mode : {CacheMode::kPrivate, CacheMode::kShared}) {
    const std::vector<ExplorationRequest> requests = RegistryBatch(mode);
    std::string reference_json;
    std::string reference_csv;
    for (const std::size_t workers : worker_counts) {
      const BatchResult batch = Engine(EngineOptions{workers}).Run(requests);
      const std::string payload = PayloadOf(batch);
      ASSERT_FALSE(payload.empty());

      // Solutions, traces, rewards: identical across EVERYTHING.
      if (reference_payload.empty())
        reference_payload = payload;
      else
        EXPECT_EQ(payload, reference_payload)
            << "mode=" << dse::ToString(mode) << " workers=" << workers;

      // Full exports (cache stats included): identical within a mode for
      // any worker count.
      const std::string json = report::BatchJson(batch);
      const std::string csv = report::BatchCsv(batch);
      if (reference_json.empty()) {
        reference_json = json;
        reference_csv = csv;
      } else {
        EXPECT_EQ(json, reference_json)
            << "mode=" << dse::ToString(mode) << " workers=" << workers;
        EXPECT_EQ(csv, reference_csv)
            << "mode=" << dse::ToString(mode) << " workers=" << workers;
      }
    }
  }
}

TEST(EngineDeterminism, SharedModeSavesRunsOnOverlappingSeeds) {
  // The economics side of the contract: with several seeds of one small
  // kernel, the shared cache must answer part of the work (matmul's compact
  // space guarantees cross-seed overlap) while payloads stay identical.
  const auto build = [](CacheMode mode) {
    return ExplorationRequest{.kernel = workloads::KernelSpec("matmul", 4),
                              .kernel_seed = 7,
                              .max_steps = 150,
                              .max_cumulative_reward = 1e18,
                              .num_seeds = 4,
                              .seed = 5,
                              .cache_mode = mode,
                              .epsilon_start = 1.0,
                              .epsilon_end = 0.05,
                              .epsilon_decay_steps = 100};
  };
  const BatchResult priv =
      Engine(EngineOptions{4}).Run({build(CacheMode::kPrivate)});
  const BatchResult shared =
      Engine(EngineOptions{4}).Run({build(CacheMode::kShared)});

  EXPECT_EQ(PayloadOf(priv), PayloadOf(shared));
  EXPECT_EQ(priv.TotalSavedRuns(), 0u);
  EXPECT_EQ(priv.TotalExecutedRuns(), priv.TotalDistinctEvaluations());
  EXPECT_LT(shared.TotalExecutedRuns(), shared.TotalDistinctEvaluations());
  EXPECT_GT(shared.TotalSavedRuns(), 0u);
  EXPECT_EQ(shared.TotalDistinctEvaluations(),
            priv.TotalDistinctEvaluations());
  ASSERT_EQ(shared.shared_caches.size(), 1u);
  EXPECT_EQ(shared.shared_caches.front().jobs, 4u);
  EXPECT_EQ(shared.shared_caches.front().stats.rejected, 0u);
}

/// Fresh scratch directory under the system temp dir.
std::filesystem::path ScratchDir(const std::string& name) {
  return testsupport::FreshTempPath(name);
}

bool DirectoryHasFiles(const std::filesystem::path& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return false;
  return std::filesystem::directory_iterator(dir, ec) !=
         std::filesystem::directory_iterator();
}

TEST(EngineDeterminism, KilledAndResumedBatchIsByteIdenticalToUninterrupted) {
  // The checkpoint subsystem's acceptance bar: kill a batch mid-run (twice,
  // via the cooperative step budget), resume it from the checkpoint
  // directory, and the finished payload AND the full JSON/CSV exports —
  // cache statistics included — must be byte-identical to the same batch
  // run uninterrupted. Covers every registry kernel, both cache modes, and
  // {1, 2, 8} workers; the seeded agents cover multiple AgentKinds below.
  const std::size_t worker_counts[] = {1, 2, 8};
  std::size_t scratch = 0;
  for (const CacheMode mode : {CacheMode::kPrivate, CacheMode::kShared}) {
    const std::vector<ExplorationRequest> requests = RegistryBatch(mode);
    const BatchResult reference = Engine(EngineOptions{4}).Run(requests);
    const std::string reference_payload = PayloadOf(reference);
    const std::string reference_json = report::BatchJson(reference);
    const std::string reference_csv = report::BatchCsv(reference);

    for (const std::size_t workers : worker_counts) {
      const std::filesystem::path dir = ScratchDir(
          "resume-" + std::to_string(++scratch));
      const Engine engine(EngineOptions{workers});

      // First "kill": every job suspends after 35 new steps.
      const BatchResult first =
          engine.Run(requests, {.directory = dir.string(), .step_budget = 35});
      ASSERT_GT(first.unfinished_jobs, 0u)
          << "mode=" << dse::ToString(mode) << " workers=" << workers;
      EXPECT_FALSE(first.Complete());
      for (const RequestResult& result : first.results)
        for (const ExplorationResult& run : result.runs)
          if (run.stop_reason == rl::StopReason::kSuspended) {
            EXPECT_EQ(run.steps, 35u);  // exactly the budget, then suspended
          }
      EXPECT_TRUE(DirectoryHasFiles(dir));

      // Second "kill" from a brand-new engine (a new process, effectively).
      const BatchResult second =
          engine.Run(requests, {.directory = dir.string(), .step_budget = 35});
      EXPECT_LE(second.unfinished_jobs, first.unfinished_jobs);

      // Final resume runs everything to completion.
      const BatchResult resumed =
          engine.Run(requests, {.directory = dir.string()});
      EXPECT_TRUE(resumed.Complete());
      EXPECT_EQ(PayloadOf(resumed), reference_payload)
          << "mode=" << dse::ToString(mode) << " workers=" << workers;
      EXPECT_EQ(report::BatchJson(resumed), reference_json)
          << "mode=" << dse::ToString(mode) << " workers=" << workers;
      EXPECT_EQ(report::BatchCsv(resumed), reference_csv)
          << "mode=" << dse::ToString(mode) << " workers=" << workers;

      // Completion removes this batch's snapshots.
      EXPECT_FALSE(DirectoryHasFiles(dir));
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(EngineDeterminism, ResumedBatchCoversEveryAgentKind) {
  // One request per AgentKind over one kernel, killed and resumed: the agent
  // internals (DoubleQ's second table, Q(lambda) traces, SARSA's pending
  // update, schedule counters) must all survive the round trip.
  std::vector<ExplorationRequest> requests;
  for (const AgentKind kind :
       {AgentKind::kQLearning, AgentKind::kSarsa, AgentKind::kExpectedSarsa,
        AgentKind::kDoubleQ, AgentKind::kQLambda})
    requests.push_back({.kernel = workloads::KernelSpec("matmul", 4),
                        .kernel_seed = 7,
                        .agent_kind = kind,
                        .max_steps = 90,
                        .max_cumulative_reward = 1e18,
                        .num_seeds = 2,
                        .seed = 3,
                        .record_trace = true,
                        .epsilon_start = 1.0,
                        .epsilon_end = 0.05,
                        .epsilon_decay_steps = 60});
  const BatchResult reference = Engine(EngineOptions{4}).Run(requests);
  const std::string reference_payload = PayloadOf(reference);
  const std::string reference_json = report::BatchJson(reference);

  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const std::filesystem::path dir =
        ScratchDir("resume-agents-" + std::to_string(workers));
    const Engine engine(EngineOptions{workers});
    const BatchResult partial =
        engine.Run(requests, {.directory = dir.string(), .step_budget = 41});
    ASSERT_GT(partial.unfinished_jobs, 0u);
    const BatchResult resumed =
        engine.Run(requests, {.directory = dir.string()});
    EXPECT_TRUE(resumed.Complete());
    EXPECT_EQ(PayloadOf(resumed), reference_payload) << "workers=" << workers;
    EXPECT_EQ(report::BatchJson(resumed), reference_json)
        << "workers=" << workers;
    std::filesystem::remove_all(dir);
  }
}

TEST(EngineDeterminism, CheckpointedCompleteRunMatchesAndCleansUp) {
  // A checkpointed batch that never gets killed (interval autosaves only)
  // must behave exactly like a plain run and leave no snapshot files.
  const std::vector<ExplorationRequest> requests =
      RegistryBatch(CacheMode::kShared);
  const BatchResult reference = Engine(EngineOptions{2}).Run(requests);
  const std::filesystem::path dir = ScratchDir("resume-interval");
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.string();
  checkpoint.interval = 30;
  const BatchResult result =
      Engine(EngineOptions{2}).Run(requests, checkpoint);
  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(PayloadOf(result), PayloadOf(reference));
  EXPECT_EQ(report::BatchJson(result), report::BatchJson(reference));
  EXPECT_FALSE(DirectoryHasFiles(dir));
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminism, BatchesSharingADirectoryDoNotCrossContaminate) {
  // Cache snapshots are keyed by batch identity + kernel signature: a
  // different batch over the SAME kernel run in the same directory must
  // neither restore nor delete a suspended batch's cache state, and the
  // suspended batch must still resume byte-identically.
  const auto build = [](std::uint64_t seed, std::size_t steps) {
    return ExplorationRequest{.kernel = workloads::KernelSpec("matmul", 4),
                              .kernel_seed = 7,
                              .max_steps = steps,
                              .max_cumulative_reward = 1e18,
                              .num_seeds = 2,
                              .seed = seed,
                              .record_trace = true,
                              .cache_mode = CacheMode::kShared,
                              .epsilon_start = 1.0,
                              .epsilon_end = 0.05,
                              .epsilon_decay_steps = 60};
  };
  const std::vector<ExplorationRequest> batch_a = {build(3, 90)};
  const std::vector<ExplorationRequest> batch_b = {build(11, 70)};
  const Engine engine(EngineOptions{2});
  const std::string reference_a_json =
      report::BatchJson(engine.Run(batch_a));
  const std::string reference_b_json =
      report::BatchJson(engine.Run(batch_b));

  const std::filesystem::path dir = ScratchDir("resume-two-batches");
  // Suspend A, then run B to completion in the same directory.
  ASSERT_GT(engine.Run(batch_a, {.directory = dir.string(), .step_budget = 30})
                .unfinished_jobs,
            0u);
  const BatchResult b = engine.Run(batch_b, {.directory = dir.string()});
  EXPECT_TRUE(b.Complete());
  EXPECT_EQ(report::BatchJson(b), reference_b_json);  // A's state not seen
  // A's snapshots survived B's completion cleanup and resume intact.
  const BatchResult a = engine.Run(batch_a, {.directory = dir.string()});
  EXPECT_TRUE(a.Complete());
  EXPECT_EQ(report::BatchJson(a), reference_a_json);
  EXPECT_FALSE(DirectoryHasFiles(dir));
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminism, CrashAfterAFinishedJobRecomputesItByteIdentically) {
  // Two shared-cache jobs on one kernel, one worker, no autosaves. The copy
  // of the directory taken when job 2 first reports is what a SIGKILL at
  // that moment leaves behind: no job snapshot, so the rerun recomputes job
  // 1 against the same empty cache and reproduces the uninterrupted exports,
  // cache counters included.
  const auto build = [](std::uint64_t seed) {
    return ExplorationRequest{.kernel = workloads::KernelSpec("matmul", 4),
                              .kernel_seed = 7,
                              .max_steps = 90,
                              .max_cumulative_reward = 1e18,
                              .seed = seed,
                              .record_trace = true,
                              .cache_mode = CacheMode::kShared,
                              .epsilon_start = 1.0,
                              .epsilon_end = 0.05,
                              .epsilon_decay_steps = 60};
  };
  const std::vector<ExplorationRequest> requests = {build(3), build(11)};
  const Engine engine(EngineOptions{1});
  const BatchResult reference = engine.Run(requests);
  const std::string reference_json = report::BatchJson(reference);
  const std::string reference_csv = report::BatchCsv(reference);

  const std::filesystem::path dir = ScratchDir("crash-live");
  const std::filesystem::path crashed = ScratchDir("crash-copy");
  std::filesystem::create_directories(dir);
  bool copied = false;
  RunHooks hooks;
  hooks.interval = 16;
  hooks.on_progress = [&](const JobProgress& progress) {
    if (progress.request_index != 1 || copied) return;
    copied = true;
    std::filesystem::copy(dir, crashed,
                          std::filesystem::copy_options::recursive);
  };
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.string();
  const BatchResult live = engine.Run(requests, checkpoint, hooks);
  EXPECT_TRUE(live.Complete());
  EXPECT_EQ(report::BatchJson(live), reference_json);
  ASSERT_TRUE(copied);
  for (const auto& entry : std::filesystem::directory_iterator(crashed))
    EXPECT_NE(entry.path().filename().string().rfind("job-", 0), 0u)
        << entry.path();

  const BatchResult rerun =
      engine.Run(requests, {.directory = crashed.string()});
  EXPECT_TRUE(rerun.Complete());
  EXPECT_EQ(report::BatchJson(rerun), reference_json);
  EXPECT_EQ(report::BatchCsv(rerun), reference_csv);
  EXPECT_FALSE(DirectoryHasFiles(crashed));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crashed);
}

TEST(EngineDeterminism, SuspendWhileSiblingsRunLeavesNoSnapshotBeforeBatchEnd) {
  // Two shared-cache jobs on one kernel, one worker. should_suspend drains
  // job 0 and then lets job 1 run to completion. The copy of the directory
  // taken when job 1 first reports is what a SIGKILL at that moment leaves
  // behind. It must hold no job snapshot yet: job 0's mid-run state is only
  // consistent with the shared cache persisted at batch end. Running the
  // same suspend-then-resume sequence on the copy then reproduces the
  // sequence on a fresh directory, cache counters included.
  const auto build = [](std::uint64_t seed) {
    return ExplorationRequest{.kernel = workloads::KernelSpec("matmul", 4),
                              .kernel_seed = 7,
                              .max_steps = 90,
                              .max_cumulative_reward = 1e18,
                              .seed = seed,
                              .record_trace = true,
                              .cache_mode = CacheMode::kShared,
                              .epsilon_start = 1.0,
                              .epsilon_end = 0.05,
                              .epsilon_decay_steps = 60};
  };
  const std::vector<ExplorationRequest> requests = {build(3), build(11)};
  const Engine engine(EngineOptions{1});
  const BatchResult reference = engine.Run(requests);

  // First invocation: should_suspend holds until job 0 has suspended, so
  // job 0 suspends after one hook interval and job 1 finishes. Second
  // invocation: resume to completion. `on_job1` fires when job 1 first
  // reports in the first invocation.
  const auto suspend_then_resume = [&](const std::filesystem::path& dir,
                                       const std::function<void()>& on_job1) {
    bool job0_suspended = false;
    bool job1_reported = false;
    RunHooks hooks;
    hooks.interval = 16;
    hooks.should_suspend = [&] { return !job0_suspended; };
    hooks.on_progress = [&](const JobProgress& progress) {
      if (progress.request_index == 0 && progress.suspended)
        job0_suspended = true;
      if (progress.request_index != 1 || job1_reported) return;
      job1_reported = true;
      on_job1();
    };
    const BatchResult first =
        engine.Run(requests, {.directory = dir.string()}, hooks);
    EXPECT_EQ(first.unfinished_jobs, 1u);
    EXPECT_TRUE(job1_reported);
    const BatchResult resumed =
        engine.Run(requests, {.directory = dir.string()});
    EXPECT_TRUE(resumed.Complete());
    EXPECT_FALSE(DirectoryHasFiles(dir));
    return resumed;
  };

  const std::filesystem::path dir = ScratchDir("suspend-live");
  const std::filesystem::path crashed = ScratchDir("suspend-copy");
  std::filesystem::create_directories(dir);
  const BatchResult live = suspend_then_resume(dir, [&] {
    std::filesystem::copy(dir, crashed,
                          std::filesystem::copy_options::recursive);
  });
  EXPECT_EQ(PayloadOf(live), PayloadOf(reference));
  ASSERT_TRUE(std::filesystem::exists(crashed));
  for (const auto& entry : std::filesystem::directory_iterator(crashed))
    EXPECT_NE(entry.path().filename().string().rfind("job-", 0), 0u)
        << entry.path();

  const BatchResult rerun = suspend_then_resume(crashed, [] {});
  EXPECT_EQ(report::BatchJson(rerun), report::BatchJson(live));
  EXPECT_EQ(report::BatchCsv(rerun), report::BatchCsv(live));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crashed);
}

TEST(EngineDeterminism, CheckpointingRejectsKernelOverrideRequests) {
  workloads::KernelParams params;
  params.size = 4;
  params.seed = 7;
  std::shared_ptr<const workloads::Kernel> kernel =
      workloads::KernelRegistry::Global().Create("matmul", params);
  const ExplorationRequest request{
      .kernel = workloads::KernelSpec(kernel->Name()),
      .max_steps = 20,
      .kernel_override = kernel};
  const std::filesystem::path dir = ScratchDir("resume-override");
  EXPECT_THROW(Engine(EngineOptions{1})
                   .Run({request},
                        {.directory = dir.string(), .step_budget = 10}),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace axdse::dse
