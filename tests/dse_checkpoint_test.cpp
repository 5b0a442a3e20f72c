// Checkpoint/resume subsystem tests.
//
// The headline invariant under test: an exploration suspended at ANY step k
// and resumed from its serialized checkpoint (by replaying its steps from
// the recorded memo) finishes with byte-identical results — solution,
// trace, rewards, objective ranges, best-feasible, and every cost counter —
// to the same exploration run uninterrupted. Proven here for every
// AgentKind x several registry kernels x suspend points {1, k/2, k-1},
// through a full serialize -> parse -> replay cycle each time. On top of
// that: replay isolation (no kernel run but the golden one, no shared-cache
// traffic), corrupt-input hardening (truncated, version-mismatched,
// field-reordered, NaN-injected files and out-of-range snapshots throw
// CheckpointError and leave the explorer untouched) and golden fixtures
// pinning the on-disk format (regenerate with AXDSE_UPDATE_GOLDEN=1).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_support.hpp"
#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "dse/explorer.hpp"
#include "report/export.hpp"
#include "util/number_format.hpp"
#include "workloads/registry.hpp"

namespace axdse::dse {
namespace {

using util::ShortestDouble;

// Harness (kernel + evaluator + paper reward), deterministic small config,
// and measurement serialization come from the shared test-support library.
using Harness = testsupport::ExplorerHarness;
using testsupport::MakeExplorerHarness;
using testsupport::SmallExplorerConfig;
using testsupport::WriteMeasurement;

/// Canonical byte serialization of EVERYTHING an ExplorationResult carries
/// (counters included — private-cache runs are fully deterministic).
std::string PayloadOf(const ExplorationResult& run) {
  std::ostringstream out;
  out << "steps=" << run.steps << " stop=" << rl::ToString(run.stop_reason)
      << " cum=" << ShortestDouble(run.cumulative_reward)
      << " episodes=" << run.episodes
      << " solution=" << run.solution.ToString() << " ops="
      << run.solution_adder << "/" << run.solution_multiplier
      << " runs=" << run.kernel_runs << " hits=" << run.cache_hits
      << " executed=" << run.kernel_runs_executed
      << " shared=" << run.shared_cache_hits << "\n";
  out << "ranges " << ShortestDouble(run.delta_power.min) << " "
      << ShortestDouble(run.delta_power.max) << " "
      << ShortestDouble(run.delta_time.min) << " "
      << ShortestDouble(run.delta_time.max) << " "
      << ShortestDouble(run.delta_acc.min) << " "
      << ShortestDouble(run.delta_acc.max) << "\n";
  out << "best " << (run.has_best_feasible ? run.best_feasible.ToString()
                                           : std::string("none"));
  out << " m=";
  WriteMeasurement(out, run.best_feasible_measurement);
  out << "\nsolution-m=";
  WriteMeasurement(out, run.solution_measurement);
  out << "\nrewards";
  for (const double r : run.rewards) out << " " << ShortestDouble(r);
  out << "\n";
  for (const StepRecord& record : run.trace) {
    out << record.step << "," << record.action << ","
        << ShortestDouble(record.reward) << ","
        << ShortestDouble(record.cumulative_reward) << ","
        << record.config.ToString() << ",";
    WriteMeasurement(out, record.measurement);
    out << "\n";
  }
  return out.str();
}

/// Runs the exploration uninterrupted on a fresh harness.
ExplorationResult RunUninterrupted(const std::string& kernel,
                                   std::size_t size,
                                   const ExplorerConfig& config) {
  Harness h = MakeExplorerHarness(kernel, size);
  Explorer explorer(*h.evaluator, h.reward, config);
  return explorer.Explore();
}

/// Runs `suspend_at` steps, suspends, serializes, parses, restores into a
/// completely fresh explorer/evaluator, and finishes the run.
ExplorationResult RunWithSuspension(const std::string& kernel,
                                    std::size_t size,
                                    const ExplorerConfig& config,
                                    std::size_t suspend_at) {
  std::string serialized;
  {
    Harness h = MakeExplorerHarness(kernel, size);
    Explorer explorer(*h.evaluator, h.reward, config);
    const std::size_t taken = explorer.RunSteps(suspend_at);
    EXPECT_EQ(taken, suspend_at);
    EXPECT_FALSE(explorer.Finished());
    serialized = explorer.Suspend().Serialize();
  }  // the suspended explorer, its evaluator, and its kernel are gone
  const Checkpoint restored = Checkpoint::Deserialize(serialized);
  Harness h = MakeExplorerHarness(kernel, size);
  Explorer explorer(*h.evaluator, h.reward, config);
  explorer.ResumeFrom(restored);
  EXPECT_EQ(explorer.StepsTaken(), suspend_at);
  return explorer.Explore();
}

// ---------------------------------------------------------------------------
// Resume determinism property: every agent kind x registry kernels x
// suspend points {1, k/2, k-1}.
// ---------------------------------------------------------------------------

TEST(CheckpointResume, ByteIdenticalForEveryAgentKernelAndSuspendPoint) {
  const struct {
    const char* kernel;
    std::size_t size;
  } kernels[] = {{"matmul", 4}, {"fir", 24}, {"dot", 16}};
  const AgentKind agents[] = {AgentKind::kQLearning, AgentKind::kSarsa,
                              AgentKind::kExpectedSarsa, AgentKind::kDoubleQ,
                              AgentKind::kQLambda};
  for (const auto& [kernel, size] : kernels) {
    for (const AgentKind agent : agents) {
      const ExplorerConfig config = SmallExplorerConfig(agent, 3);
      const ExplorationResult reference =
          RunUninterrupted(kernel, size, config);
      const std::string reference_payload = PayloadOf(reference);
      ASSERT_GE(reference.steps, 3u);
      const std::size_t k = reference.steps;
      for (const std::size_t suspend_at :
           {std::size_t{1}, k / 2, k - 1}) {
        const ExplorationResult resumed =
            RunWithSuspension(kernel, size, config, suspend_at);
        EXPECT_EQ(PayloadOf(resumed), reference_payload)
            << "kernel=" << kernel << " agent=" << ToString(agent)
            << " suspend_at=" << suspend_at;
      }
    }
  }
}

TEST(CheckpointResume, SurvivesRepeatedSuspension) {
  // Preemption in practice is repeated: suspend -> resume -> suspend again.
  const ExplorerConfig config = SmallExplorerConfig(AgentKind::kQLearning, 11, 60);
  const std::string reference =
      PayloadOf(RunUninterrupted("matmul", 4, config));

  std::string serialized;
  {
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, config);
    explorer.RunSteps(7);
    serialized = explorer.Suspend().Serialize();
  }
  for (const std::size_t chunk : {std::size_t{13}, std::size_t{19}}) {
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, config);
    explorer.ResumeFrom(Checkpoint::Deserialize(serialized));
    explorer.RunSteps(chunk);
    ASSERT_FALSE(explorer.Finished());
    serialized = explorer.Suspend().Serialize();
  }
  Harness h = MakeExplorerHarness("matmul", 4);
  Explorer explorer(*h.evaluator, h.reward, config);
  explorer.ResumeFrom(Checkpoint::Deserialize(serialized));
  EXPECT_EQ(PayloadOf(explorer.Explore()), reference);
}

TEST(CheckpointResume, MultiEpisodeRunResumesAcrossEpisodeBoundary) {
  // episodes=2 with the suspension landing inside the second episode: the
  // episode counters, per-episode reward accumulator, and the agent's
  // persistent value tables must all survive the round trip.
  const ExplorerConfig config =
      SmallExplorerConfig(AgentKind::kQLearning, 5, /*max_steps=*/25, /*episodes=*/2);
  const ExplorationResult reference = RunUninterrupted("dot", 16, config);
  ASSERT_EQ(reference.episodes, 2u);
  ASSERT_GT(reference.steps, 27u);  // actually entered the second episode
  const ExplorationResult resumed =
      RunWithSuspension("dot", 16, config, reference.steps - 3);
  EXPECT_EQ(PayloadOf(resumed), PayloadOf(reference));
}

TEST(CheckpointResume, GreedyRolloutAndBestFeasibleSurviveResume) {
  ExplorerConfig config = SmallExplorerConfig(AgentKind::kExpectedSarsa, 9, 40);
  config.greedy_rollout_steps = 20;
  const ExplorationResult reference = RunUninterrupted("fir", 24, config);
  const ExplorationResult resumed =
      RunWithSuspension("fir", 24, config, reference.steps / 2);
  EXPECT_EQ(PayloadOf(resumed), PayloadOf(reference));
}

// ---------------------------------------------------------------------------
// Serialization round-trip.
// ---------------------------------------------------------------------------

TEST(CheckpointFormat, SerializeDeserializeSerializeIsIdentity) {
  Harness h = MakeExplorerHarness("matmul", 4);
  const ExplorerConfig config = SmallExplorerConfig(AgentKind::kQLambda, 13);
  Explorer explorer(*h.evaluator, h.reward, config);
  explorer.RunSteps(17);
  Checkpoint checkpoint = explorer.Suspend();
  checkpoint.request = "kernel=matmul@4";  // identity fields included
  checkpoint.seed = 13;
  const std::string first = checkpoint.Serialize();
  const std::string second = Checkpoint::Deserialize(first).Serialize();
  EXPECT_EQ(first, second);
}

TEST(CheckpointFormat, FileSaveLoadRoundTripsAndIsAtomic) {
  namespace fs = std::filesystem;
  const testsupport::ScopedTempDir scratch("checkpoint-io-test");
  const fs::path dir(scratch.Str());

  Harness h = MakeExplorerHarness("dot", 16);
  const ExplorerConfig config = SmallExplorerConfig(AgentKind::kSarsa, 21);
  Explorer explorer(*h.evaluator, h.reward, config);
  explorer.RunSteps(9);
  const Checkpoint checkpoint = explorer.Suspend();
  const std::string path = (dir / "nested" / "snapshot.ckpt").string();
  checkpoint.Save(path);  // creates parent directories
  // The temp file was renamed away: only the snapshot itself remains.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir / "nested")) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  const Checkpoint loaded = Checkpoint::Load(path);
  EXPECT_EQ(loaded.Serialize(), checkpoint.Serialize());
}

TEST(CheckpointFormat, LoadOfMissingFileThrows) {
  EXPECT_THROW(Checkpoint::Load("/nonexistent/axdse/nowhere.ckpt"),
               CheckpointError);
}

TEST(CheckpointFormat, JobFileNamesAreStableAndDistinct) {
  const std::string a = JobCheckpointFileName("kernel=matmul@4", 3);
  EXPECT_EQ(a, JobCheckpointFileName("kernel=matmul@4", 3));
  EXPECT_NE(a, JobCheckpointFileName("kernel=matmul@4", 4));
  EXPECT_NE(a, JobCheckpointFileName("kernel=matmul@5", 3));
  EXPECT_NE(JobCheckpointFileName("kernel=fir@24", 1),
            CacheCheckpointFileName("fir|size=24|seed=7"));
}

// ---------------------------------------------------------------------------
// Corrupt-input hardening. Every malformed file must raise CheckpointError
// from the PARSER — before any Explorer/Engine state is touched.
// ---------------------------------------------------------------------------

std::string ValidSerializedCheckpoint() {
  static const std::string serialized = [] {
    Harness h = MakeExplorerHarness("matmul", 4);
    const ExplorerConfig config = SmallExplorerConfig(AgentKind::kQLearning, 3);
    Explorer explorer(*h.evaluator, h.reward, config);
    explorer.RunSteps(12);
    return explorer.Suspend().Serialize();
  }();
  return serialized;
}

TEST(CheckpointCorruption, TruncatedFilesThrow) {
  const std::string full = ValidSerializedCheckpoint();
  // Cut at several depths: mid-header, mid-trace, just before "end".
  for (const double fraction : {0.02, 0.3, 0.6, 0.95}) {
    const std::string truncated =
        full.substr(0, static_cast<std::size_t>(
                           static_cast<double>(full.size()) * fraction));
    EXPECT_THROW(Checkpoint::Deserialize(truncated), CheckpointError)
        << "fraction=" << fraction;
  }
  // Dropping only the final "end" line must also be caught.
  const std::string no_end = full.substr(0, full.rfind("end\n"));
  EXPECT_THROW(Checkpoint::Deserialize(no_end), CheckpointError);
}

TEST(CheckpointCorruption, VersionMismatchThrows) {
  std::string text = ValidSerializedCheckpoint();
  const std::string header = "axdse-checkpoint v2";
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "axdse-checkpoint v3");
  EXPECT_THROW(Checkpoint::Deserialize(text), CheckpointError);
  std::string garbage = ValidSerializedCheckpoint();
  garbage.replace(0, header.size(), "not-a-checkpoint!!!");
  EXPECT_THROW(Checkpoint::Deserialize(garbage), CheckpointError);
  // A snapshot written in the v1 component-dump format is refused with an
  // error naming its version.
  std::string v1 = ValidSerializedCheckpoint();
  v1.replace(0, header.size(), "axdse-checkpoint v1");
  try {
    Checkpoint::Deserialize(v1);
    ADD_FAILURE() << "a v1 snapshot was accepted";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("'v1'"), std::string::npos)
        << error.what();
  }
}

TEST(CheckpointCorruption, ReorderedFieldsThrow) {
  const std::string text = ValidSerializedCheckpoint();
  // Swap the "seed" and "agent-kind" lines (lines 3 and 4).
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 5u);
  ASSERT_EQ(lines[2].rfind("seed ", 0), 0u);
  ASSERT_EQ(lines[3].rfind("agent-kind ", 0), 0u);
  std::swap(lines[2], lines[3]);
  std::string reordered;
  for (const std::string& line : lines) reordered += line + "\n";
  EXPECT_THROW(Checkpoint::Deserialize(reordered), CheckpointError);
}

TEST(CheckpointCorruption, NaNInjectionThrows) {
  // Replace the first reward value of a finished snapshot with nan: strict
  // parsers reject NaN in every numeric field that is not explicitly
  // non-finite-tolerant.
  std::string text = testsupport::ReadGolden(
      AXDSE_SOURCE_DIR "/tests/golden/matmul_finished_seed1.ckpt");
  const std::size_t rewards = text.find("\nrewards ");
  ASSERT_NE(rewards, std::string::npos);
  // "rewards <N> <first> ..." — replace <first>.
  std::size_t pos = text.find(' ', rewards + 9);  // after the count
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = text.find_first_of(" \n", pos + 1);
  text.replace(pos + 1, end - pos - 1, "nan");
  EXPECT_THROW(Checkpoint::Deserialize(text), CheckpointError);
}

TEST(CheckpointCorruption, TrailingGarbageAndBadValuesThrow) {
  EXPECT_THROW(Checkpoint::Deserialize(""), CheckpointError);
  EXPECT_THROW(Checkpoint::Deserialize("axdse-checkpoint v1\n"),
               CheckpointError);
  std::string trailing = ValidSerializedCheckpoint();
  trailing += "extra line after end\n";
  EXPECT_THROW(Checkpoint::Deserialize(trailing), CheckpointError);
  // A non-numeric seed.
  std::string bad_seed = ValidSerializedCheckpoint();
  const std::size_t seed_pos = bad_seed.find("\nseed ");
  const std::size_t seed_end = bad_seed.find('\n', seed_pos + 1);
  bad_seed.replace(seed_pos, seed_end - seed_pos, "\nseed soon");
  EXPECT_THROW(Checkpoint::Deserialize(bad_seed), CheckpointError);
  // An operator index wider than 32 bits must fail, not silently truncate
  // to a different in-range configuration.
  std::string wide_index = ValidSerializedCheckpoint();
  const std::size_t memo_entry = wide_index.find("\ne ");
  ASSERT_NE(memo_entry, std::string::npos);
  const std::size_t adder_start = memo_entry + 3;
  const std::size_t adder_end = wide_index.find(' ', adder_start);
  wide_index.replace(adder_start, adder_end - adder_start, "4294967296");
  EXPECT_THROW(Checkpoint::Deserialize(wide_index), CheckpointError);
  // A mid-run snapshot with no steps is no snapshot any run writes.
  std::string no_steps = ValidSerializedCheckpoint();
  const std::size_t steps_pos = no_steps.find("\nsteps ");
  ASSERT_NE(steps_pos, std::string::npos);
  const std::size_t steps_end = no_steps.find('\n', steps_pos + 1);
  no_steps.replace(steps_pos, steps_end - steps_pos, "\nsteps 0");
  EXPECT_THROW(Checkpoint::Deserialize(no_steps), CheckpointError);
}

TEST(CheckpointCorruption, FailedResumeLeavesExplorerFullyUsable) {
  // A checkpoint that parses but does not fit this explorer (wrong agent
  // kind, wrong kernel space) must throw WITHOUT mutating the explorer or
  // its evaluator: running from scratch afterwards must be byte-identical
  // to a never-touched run.
  const ExplorerConfig q_config = SmallExplorerConfig(AgentKind::kQLearning, 3);
  const std::string reference =
      PayloadOf(RunUninterrupted("matmul", 4, q_config));

  // Wrong agent kind.
  {
    const Checkpoint checkpoint =
        Checkpoint::Deserialize(ValidSerializedCheckpoint());  // q-learning
    Harness h = MakeExplorerHarness("matmul", 4);
    ExplorerConfig sarsa_config = SmallExplorerConfig(AgentKind::kSarsa, 3);
    Explorer explorer(*h.evaluator, h.reward, sarsa_config);
    EXPECT_THROW(explorer.ResumeFrom(checkpoint), CheckpointError);
    // Same evaluator, same explorer: still pristine.
    EXPECT_EQ(PayloadOf(explorer.Explore()),
              PayloadOf(RunUninterrupted("matmul", 4, sarsa_config)));
  }

  // Wrong kernel space: a row-col-granularity matmul exposes 9 variables,
  // the default per-matrix one only 3, so every configuration mismatches.
  {
    std::string foreign;
    {
      Harness h = MakeExplorerHarness("matmul", 4, {{"granularity", "row-col"}});
      Explorer explorer(*h.evaluator, h.reward, q_config);
      explorer.RunSteps(5);
      foreign = explorer.Suspend().Serialize();
    }
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, q_config);
    EXPECT_THROW(explorer.ResumeFrom(Checkpoint::Deserialize(foreign)),
                 CheckpointError);
    EXPECT_EQ(PayloadOf(explorer.Explore()), reference);
  }

  // A finished snapshot has nothing to resume.
  {
    Checkpoint finished;
    finished.finished = true;
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, q_config);
    EXPECT_THROW(explorer.ResumeFrom(finished), CheckpointError);
    EXPECT_EQ(PayloadOf(explorer.Explore()), reference);
  }

  // A step count past episodes x max_steps is rejected before any replay.
  for (const std::size_t steps :
       {q_config.max_steps + 1, std::numeric_limits<std::size_t>::max()}) {
    Checkpoint checkpoint =
        Checkpoint::Deserialize(ValidSerializedCheckpoint());
    checkpoint.steps = steps;
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, q_config);
    EXPECT_THROW(explorer.ResumeFrom(checkpoint), CheckpointError) << steps;
    EXPECT_EQ(PayloadOf(explorer.Explore()), reference);
  }

  // One memo entry outside the kernel's space (an adder index past the
  // operator set) fails the whole snapshot up front.
  {
    Checkpoint checkpoint =
        Checkpoint::Deserialize(ValidSerializedCheckpoint());
    Configuration foreign(3);
    foreign.SetAdderIndex(999);
    checkpoint.evaluator.entries.emplace_back(foreign,
                                              instrument::Measurement{});
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, q_config);
    EXPECT_THROW(explorer.ResumeFrom(checkpoint), CheckpointError);
    EXPECT_EQ(PayloadOf(explorer.Explore()), reference);
  }
}

// ---------------------------------------------------------------------------
// Replay isolation: a resume reads its log — it runs no kernel for a
// memoized configuration and never touches a shared cache.
// ---------------------------------------------------------------------------

/// Forwards to a registry kernel and counts Run() calls.
class CountingKernel final : public workloads::Kernel {
 public:
  explicit CountingKernel(std::unique_ptr<workloads::Kernel> inner)
      : inner_(std::move(inner)) {}
  const std::string& Name() const noexcept override { return inner_->Name(); }
  const axc::OperatorSet& Operators() const noexcept override {
    return inner_->Operators();
  }
  const std::vector<workloads::VariableInfo>& Variables()
      const noexcept override {
    return inner_->Variables();
  }
  std::vector<double> Run(instrument::ApproxContext& ctx) const override {
    ++runs;
    return inner_->Run(ctx);
  }
  double AccuracyError(std::span<const double> precise,
                       std::span<const double> approx) const override {
    return inner_->AccuracyError(precise, approx);
  }

  mutable std::size_t runs = 0;

 private:
  std::unique_ptr<workloads::Kernel> inner_;
};

std::unique_ptr<CountingKernel> CountingMatmul() {
  workloads::KernelParams params;
  params.size = 4;
  params.seed = 7;
  return std::make_unique<CountingKernel>(
      workloads::KernelRegistry::Global().Create("matmul", params));
}

TEST(ReplayIsolation, SharedCacheUntouchedAndOnlyTheGoldenRunExecutes) {
  const ExplorerConfig config =
      SmallExplorerConfig(AgentKind::kQLambda, 5, /*max_steps=*/60);
  std::string reference;  // uninterrupted, on a shared cache of its own
  {
    const std::unique_ptr<CountingKernel> kernel = CountingMatmul();
    Evaluator evaluator(*kernel,
                        std::make_shared<instrument::SharedEvaluationCache>());
    Explorer explorer(evaluator, MakePaperRewardConfig(evaluator), config);
    reference = PayloadOf(explorer.Explore());
  }
  // The suspended half publishes its measurements to `cache`, as a job of
  // a CacheMode::kShared batch does.
  const auto cache = std::make_shared<instrument::SharedEvaluationCache>();
  std::string serialized;
  {
    const std::unique_ptr<CountingKernel> kernel = CountingMatmul();
    Evaluator evaluator(*kernel, cache);
    Explorer explorer(evaluator, MakePaperRewardConfig(evaluator), config);
    ASSERT_EQ(explorer.RunSteps(25), 25u);
    serialized = explorer.Suspend().Serialize();
  }
  const Checkpoint checkpoint = Checkpoint::Deserialize(serialized);
  ASSERT_GT(checkpoint.evaluator.entries.size(), 1u);

  const std::unique_ptr<CountingKernel> kernel = CountingMatmul();
  Evaluator evaluator(*kernel, cache);
  ASSERT_EQ(kernel->runs, 1u);  // the golden run
  Explorer explorer(evaluator, MakePaperRewardConfig(evaluator), config);
  const std::string stats = cache->Stats().ToString();
  explorer.ResumeFrom(checkpoint);
  EXPECT_EQ(kernel->runs, 1u) << "the replay executed the kernel";
  EXPECT_EQ(cache->Stats().ToString(), stats);
  EXPECT_EQ(explorer.StepsTaken(), 25u);
  EXPECT_EQ(PayloadOf(explorer.Explore()), reference);
}

TEST(ReplayIsolation, ReplayThatFinishesWithinItsStepCountThrows) {
  const ExplorerConfig config =
      SmallExplorerConfig(AgentKind::kSarsa, 3, /*max_steps=*/40);
  Checkpoint checkpoint;
  {
    Harness h = MakeExplorerHarness("matmul", 4);
    Explorer explorer(*h.evaluator, h.reward, config);
    ASSERT_EQ(explorer.RunSteps(39), 39u);
    ASSERT_FALSE(explorer.Finished());
    checkpoint = Checkpoint::Deserialize(explorer.Suspend().Serialize());
  }
  // Within budget, but the run ends at its 40-step limit: no unfinished run
  // wrote this log.
  checkpoint.steps = config.max_steps;
  Harness h = MakeExplorerHarness("matmul", 4);
  Explorer explorer(*h.evaluator, h.reward, config);
  EXPECT_THROW(explorer.ResumeFrom(checkpoint), CheckpointError);
  // The explorer stepped during the replay and is consumed.
  EXPECT_THROW(explorer.RunSteps(1), std::logic_error);
}

TEST(CheckpointCorruption, SharedCacheCheckpointHardening) {
  SharedCacheCheckpoint snapshot;
  snapshot.signature = "matmul|size=4|seed=7";
  instrument::Measurement m;
  m.delta_acc = 0.5;
  Configuration config(3);
  config.SetVariable(1, true);
  snapshot.entries.emplace_back(config, m);
  snapshot.stats.misses = 1;
  snapshot.stats.inserts = 1;
  snapshot.stats.size = 1;
  const std::string text = snapshot.Serialize();
  const SharedCacheCheckpoint loaded =
      SharedCacheCheckpoint::Deserialize(text);
  EXPECT_EQ(loaded.Serialize(), text);
  EXPECT_EQ(loaded.signature, snapshot.signature);

  EXPECT_THROW(SharedCacheCheckpoint::Deserialize(""), CheckpointError);
  EXPECT_THROW(
      SharedCacheCheckpoint::Deserialize(text.substr(0, text.size() / 2)),
      CheckpointError);
  std::string wrong_version = text;
  wrong_version.replace(0, 14, "axdse-cache v9");
  EXPECT_THROW(SharedCacheCheckpoint::Deserialize(wrong_version),
               CheckpointError);
  // Size/entries disagreement is structural corruption.
  std::string bad_size = text;
  const std::size_t stats_pos = bad_size.find("\nstats ");
  ASSERT_NE(stats_pos, std::string::npos);
  const std::size_t stats_end = bad_size.find('\n', stats_pos + 1);
  bad_size.replace(stats_pos, stats_end - stats_pos, "\nstats 0 1 1 0 7");
  EXPECT_THROW(SharedCacheCheckpoint::Deserialize(bad_size), CheckpointError);
}

// ---------------------------------------------------------------------------
// Engine snapshot boundary: a snapshot that fails to load or validate is a
// CheckpointError; a snapshot that fails to save is its job's BatchJobError.
// ---------------------------------------------------------------------------

std::vector<ExplorationRequest> TwoMatmulRequests(std::size_t first_steps,
                                                  std::size_t second_steps) {
  const auto build = [](std::size_t steps, std::uint64_t seed) {
    return ExplorationRequest{.kernel = workloads::KernelSpec("matmul", 4),
                              .kernel_seed = 7,
                              .max_steps = steps,
                              .max_cumulative_reward = 1e18,
                              .seed = seed,
                              .epsilon_start = 1.0,
                              .epsilon_end = 0.05,
                              .epsilon_decay_steps = 20};
  };
  return {build(first_steps, 3), build(second_steps, 11)};
}

std::string JobSnapshotPath(const std::string& dir,
                            const ExplorationRequest& request) {
  return (std::filesystem::path(dir) /
          JobCheckpointFileName(request.ToString(), request.seed))
      .string();
}

TEST(EngineSnapshots, UnloadableJobSnapshotsThrowCheckpointErrorInJobOrder) {
  const std::vector<ExplorationRequest> batch = TwoMatmulRequests(60, 60);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const Engine engine(EngineOptions{workers});
    testsupport::ScopedTempDir dir("engine-corrupt-job");
    ASSERT_EQ(engine.Run(batch, {.directory = dir.Str(), .step_budget = 20})
                  .unfinished_jobs,
              2u);
    const std::string first = JobSnapshotPath(dir.Str(), batch[0]);
    const std::string second = JobSnapshotPath(dir.Str(), batch[1]);

    // Malformed: the torn second snapshot fails alone.
    const std::string second_text = ReadCheckpointFile(second, "test");
    {
      std::ofstream out(second, std::ios::binary | std::ios::trunc);
      out << second_text.substr(0, second_text.size() / 2);
    }
    EXPECT_THROW(engine.Run(batch, {.directory = dir.Str()}), CheckpointError);

    // Mismatched: the second job's snapshot copied over the first one's.
    // Both jobs now fail; the first in job order is rethrown.
    {
      std::ofstream out(first, std::ios::binary | std::ios::trunc);
      out << second_text;
    }
    try {
      engine.Run(batch, {.directory = dir.Str()});
      ADD_FAILURE() << "expected CheckpointError";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find(first), std::string::npos)
          << error.what();
    }
  }
}

TEST(EngineSnapshots, ReplayThatFinishesEarlyIsACheckpointError) {
  const std::vector<ExplorationRequest> batch = TwoMatmulRequests(60, 60);
  const Engine engine(EngineOptions{1});
  testsupport::ScopedTempDir dir("engine-replay-early");
  ASSERT_EQ(engine.Run(batch, {.directory = dir.Str(), .step_budget = 20})
                .unfinished_jobs,
            2u);
  // The first job's log now claims the run's whole 60-step budget, so its
  // replay finishes within it.
  const std::string first = JobSnapshotPath(dir.Str(), batch[0]);
  Checkpoint snapshot = Checkpoint::Load(first);
  ASSERT_EQ(snapshot.steps, 20u);
  snapshot.steps = 60;
  snapshot.Save(first);
  EXPECT_THROW(engine.Run(batch, {.directory = dir.Str()}), CheckpointError);

  // Dropping the bad snapshot recomputes that job from scratch, as the
  // shard path does, and the batch still matches an uninterrupted run.
  std::filesystem::remove(first);
  const BatchResult resumed = engine.Run(batch, {.directory = dir.Str()});
  EXPECT_TRUE(resumed.Complete());
  EXPECT_EQ(report::BatchJson(resumed), report::BatchJson(engine.Run(batch)));
}

TEST(EngineSnapshots, FailedFinishedSnapshotSaveIsTheJobsBatchJobError) {
  // The first job finishes within the budget and the second suspends, so
  // the batch ends unfinished and writes the first job's finished snapshot.
  // A non-empty directory planted at its path makes that rename fail.
  const std::vector<ExplorationRequest> batch = TwoMatmulRequests(20, 60);
  testsupport::ScopedTempDir dir("engine-finished-save");
  const std::string blocked = JobSnapshotPath(dir.Str(), batch[0]);
  RunHooks hooks;
  hooks.on_progress = [&](const JobProgress& progress) {
    if (progress.request_index != 0 || !progress.finished) return;
    std::filesystem::create_directories(blocked);
    std::ofstream(std::filesystem::path(blocked) / "occupant") << "x";
  };
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.Str();
  checkpoint.step_budget = 30;
  try {
    Engine(EngineOptions{1}).Run(batch, checkpoint, hooks);
    ADD_FAILURE() << "expected BatchJobError";
  } catch (const BatchJobError& error) {
    EXPECT_EQ(error.RequestIndex(), 0u);
    EXPECT_EQ(error.Seed(), batch[0].seed);
    try {
      std::rethrow_if_nested(error);
      ADD_FAILURE() << "expected a nested CheckpointError";
    } catch (const CheckpointError&) {
    }
  }
  // The suspended sibling still persisted its snapshot.
  EXPECT_TRUE(std::filesystem::is_regular_file(
      JobSnapshotPath(dir.Str(), batch[1])));
}

// ---------------------------------------------------------------------------
// Golden fixture: the serialized checkpoint format is pinned byte-for-byte.
// Regenerate intentionally with AXDSE_UPDATE_GOLDEN=1 and review the diff.
// ---------------------------------------------------------------------------

const char* GoldenFixturePath() {
  return AXDSE_SOURCE_DIR "/tests/golden/matmul_checkpoint_seed1.ckpt";
}

/// Same pinned exploration as the golden-trace test, suspended at step 10.
std::string PinnedCheckpointBytes() {
  workloads::KernelParams params;
  params.size = 5;
  params.seed = 2023;
  const auto kernel =
      workloads::KernelRegistry::Global().Create("matmul", params);
  Evaluator evaluator(*kernel);
  const RewardConfig reward = MakePaperRewardConfig(evaluator);
  ExplorerConfig config;
  config.max_steps = 60;
  config.max_cumulative_reward = 1e18;
  config.agent.alpha = 0.15;
  config.agent.gamma = 0.95;
  config.agent.epsilon = rl::EpsilonSchedule::Linear(1.0, 0.05, 45);
  config.seed = 1;
  config.record_trace = true;
  Explorer explorer(evaluator, reward, config);
  explorer.RunSteps(10);
  Checkpoint checkpoint = explorer.Suspend();
  checkpoint.request = "kernel=matmul@5 kernel-seed=2023";
  checkpoint.seed = 1;
  return checkpoint.Serialize();
}

TEST(GoldenCheckpoint, SerializedFormatMatchesCheckedInFixture) {
  testsupport::ExpectMatchesGolden(GoldenFixturePath(),
                                   PinnedCheckpointBytes());
}

TEST(GoldenCheckpoint, ResumingFromTheFixtureReproducesTheFullRun) {
  // Format stability in the direction that matters: a checkpoint written by
  // a previous build (the checked-in fixture) must restore in this build
  // and finish byte-identically to the uninterrupted pinned run.
  const std::string text = testsupport::ReadGolden(GoldenFixturePath());
  const Checkpoint checkpoint = Checkpoint::Deserialize(text);
  EXPECT_EQ(checkpoint.Serialize(), text);
  EXPECT_EQ(checkpoint.seed, 1u);
  EXPECT_FALSE(checkpoint.finished);

  workloads::KernelParams params;
  params.size = 5;
  params.seed = 2023;
  ExplorerConfig config;
  config.max_steps = 60;
  config.max_cumulative_reward = 1e18;
  config.agent.alpha = 0.15;
  config.agent.gamma = 0.95;
  config.agent.epsilon = rl::EpsilonSchedule::Linear(1.0, 0.05, 45);
  config.seed = 1;
  config.record_trace = true;

  const auto run_reference = [&] {
    const auto kernel =
        workloads::KernelRegistry::Global().Create("matmul", params);
    Evaluator evaluator(*kernel);
    Explorer explorer(evaluator, MakePaperRewardConfig(evaluator), config);
    return explorer.Explore();
  };
  const auto kernel =
      workloads::KernelRegistry::Global().Create("matmul", params);
  Evaluator evaluator(*kernel);
  Explorer explorer(evaluator, MakePaperRewardConfig(evaluator), config);
  explorer.ResumeFrom(checkpoint);
  EXPECT_EQ(PayloadOf(explorer.Explore()), PayloadOf(run_reference()));
}

/// A shared-cache snapshot over the pinned run's memo entries. The
/// signature carries a space and a '%' so the fixture pins text escaping.
std::string PinnedSharedCacheBytes() {
  const Checkpoint pinned = Checkpoint::Deserialize(
      testsupport::ReadGolden(GoldenFixturePath()));
  SharedCacheCheckpoint snapshot;
  snapshot.signature = "kernel=matmul@5 kernel-seed=2023 100%";
  snapshot.entries = pinned.evaluator.entries;
  snapshot.stats.hits = 3;
  snapshot.stats.misses = snapshot.entries.size();
  snapshot.stats.inserts = snapshot.entries.size();
  snapshot.stats.size = snapshot.entries.size();
  return snapshot.Serialize();
}

TEST(GoldenCheckpoint, SharedCacheFormatMatchesCheckedInFixture) {
  const std::string path =
      AXDSE_SOURCE_DIR "/tests/golden/matmul_shared_cache_seed1.cache";
  testsupport::ExpectMatchesGolden(path, PinnedSharedCacheBytes());
  const std::string text = testsupport::ReadGolden(path);
  EXPECT_EQ(SharedCacheCheckpoint::Deserialize(text).Serialize(), text);
}

/// Two matmul requests under a 40-step budget: the 30-step run finishes
/// within it and the 60-step run suspends, so the batch ends unfinished and
/// keeps the first job's finished snapshot.
std::vector<ExplorationRequest> FinishedFixtureBatch() {
  const auto build = [](std::size_t steps) {
    return ExplorationRequest{.kernel = workloads::KernelSpec("matmul", 5),
                              .kernel_seed = 2023,
                              .max_steps = steps,
                              .max_cumulative_reward = 1e18,
                              .seed = 1,
                              .record_trace = true,
                              .epsilon_start = 1.0,
                              .epsilon_end = 0.05,
                              .epsilon_decay_steps = 25};
  };
  return {build(30), build(60)};
}

constexpr std::size_t kFinishedFixtureBudget = 40;

const char* FinishedFixturePath() {
  return AXDSE_SOURCE_DIR "/tests/golden/matmul_finished_seed1.ckpt";
}

TEST(GoldenCheckpoint, FinishedSnapshotMatchesCheckedInFixture) {
  const std::vector<ExplorationRequest> batch = FinishedFixtureBatch();
  const Engine engine(EngineOptions{1});
  const BatchResult reference = engine.Run(batch);

  testsupport::ScopedTempDir dir("finished-fixture");
  const BatchResult partial =
      engine.Run(batch, {.directory = dir.Str(),
                         .step_budget = kFinishedFixtureBudget});
  ASSERT_EQ(partial.unfinished_jobs, 1u);
  const std::string path =
      (std::filesystem::path(dir.Str()) /
       JobCheckpointFileName(batch.front().ToString(), 1))
          .string();
  const std::string written = ReadCheckpointFile(path, "fixture test");
  testsupport::ExpectMatchesGolden(FinishedFixturePath(), written);
  const Checkpoint finished = Checkpoint::Deserialize(written);
  EXPECT_TRUE(finished.finished);
  EXPECT_EQ(finished.Serialize(), written);

  const BatchResult resumed = engine.Run(batch, {.directory = dir.Str()});
  EXPECT_TRUE(resumed.Complete());
  EXPECT_EQ(report::BatchJson(resumed), report::BatchJson(reference));
  EXPECT_EQ(report::BatchCsv(resumed), report::BatchCsv(reference));
}

TEST(GoldenCheckpoint, ResumingFromTheFinishedFixtureSkipsTheJob) {
  // The checked-in finished snapshot, alone in a directory, stands in for
  // its job: the batch resumes around it and matches the uninterrupted run.
  const std::vector<ExplorationRequest> batch = FinishedFixtureBatch();
  const Engine engine(EngineOptions{1});
  testsupport::ScopedTempDir dir("finished-fixture-resume");
  std::filesystem::create_directories(dir.Str());
  {
    std::ofstream out(std::filesystem::path(dir.Str()) /
                          JobCheckpointFileName(batch.front().ToString(), 1),
                      std::ios::binary);
    out << testsupport::ReadGolden(FinishedFixturePath());
  }
  std::size_t first_job_reports = 0;
  RunHooks hooks;
  hooks.on_progress = [&](const JobProgress& progress) {
    if (progress.request_index == 0) first_job_reports += 1;
  };
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.Str();
  const BatchResult resumed = engine.Run(batch, checkpoint, hooks);
  EXPECT_TRUE(resumed.Complete());
  EXPECT_EQ(first_job_reports, 1u);  // one restored report, no stepping
  EXPECT_EQ(report::BatchJson(resumed), report::BatchJson(engine.Run(batch)));
  EXPECT_TRUE(std::filesystem::is_empty(dir.Str()));
}

}  // namespace
}  // namespace axdse::dse
