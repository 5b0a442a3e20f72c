// Tests for dse/campaign: spec grammar round-trips, grid expansion,
// aggregation, report determinism (workers / chunking), and the campaign
// resume contract — suspended or mid-grid-killed campaigns finish with
// byte-identical JSON/CSV to an uninterrupted run, and the state directory
// is emptied on completion.

#include "dse/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_support.hpp"
#include "dse/checkpoint.hpp"
#include "dse/shard.hpp"
#include "report/campaign.hpp"

namespace axdse::dse {
namespace {

namespace fs = std::filesystem;
using testsupport::ScopedTempDir;

/// Small, fast grid used by the execution tests: 2 kernels x 2 agents,
/// 2 seeds, 60 steps each (8 explorations, well under a second).
CampaignSpec SmallSpec() {
  return CampaignSpec::Parse(
      "kernels=dot@32{blocks=4},kmeans1d@40{clusters=3}"
      " agents=q-learning,sarsa"
      " steps=60 seeds=2 seed=1 kernel-seed=2023 reward-cap=1e18");
}

/// Files in `dir` whose name ends in `suffix` (every file for "").
std::size_t CkptFileCount(const std::string& dir,
                          const std::string& suffix = "") {
  std::error_code ec;
  std::size_t count = 0;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(CampaignSpec, ParseToStringRoundTrip) {
  const std::string text =
      "kernels=matmul@10{granularity=row-col},matmul@50,fir@100"
      " agents=q-learning,double-q action-spaces=full,compact"
      " acc-factors=0.4,0.2 cache-modes=private,shared"
      " steps=500 seeds=3 seed=7 alpha=0.2";
  const CampaignSpec spec = CampaignSpec::Parse(text);
  EXPECT_EQ(spec.kernels.size(), 3u);
  EXPECT_EQ(spec.kernels[0].name, "matmul");
  EXPECT_EQ(spec.kernels[0].size, 10u);
  EXPECT_EQ(spec.kernels[0].extra.at("granularity"), "row-col");
  EXPECT_TRUE(spec.kernels[1].extra.empty());  // @50 carries no extras
  EXPECT_EQ(spec.agents.size(), 2u);
  EXPECT_EQ(spec.action_spaces.size(), 2u);
  EXPECT_EQ(spec.acc_factors, (std::vector<double>{0.4, 0.2}));
  EXPECT_EQ(spec.cache_modes.size(), 2u);
  EXPECT_EQ(spec.base.max_steps, 500u);
  EXPECT_EQ(spec.base.num_seeds, 3u);
  EXPECT_EQ(spec.base.seed, 7u);

  // Lossless: Parse(ToString()) reproduces the spec (string equality).
  const CampaignSpec reparsed = CampaignSpec::Parse(spec.ToString());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.ToString(), spec.ToString());
}

TEST(CampaignSpec, AgentsAllShorthandExpandsToAllFive) {
  const CampaignSpec spec = CampaignSpec::Parse("kernels=dot agents=all");
  EXPECT_EQ(spec.agents.size(), 5u);
}

TEST(CampaignSpec, ParseErrors) {
  // Missing kernels axis.
  EXPECT_THROW(CampaignSpec::Parse("agents=all steps=100"),
               std::invalid_argument);
  // Malformed token.
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot bogus"),
               std::invalid_argument);
  // Unknown agent / cache mode.
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot agents=alphago"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot cache-modes=psychic"),
               std::invalid_argument);
  // The pre-KernelSpec per-kernel override grammar is gone; its tokens
  // fall through to the base parser and fail as unknown keys.
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot kernels.fir.taps=9"),
               std::invalid_argument);
  // Malformed spec entry (unterminated extras block).
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot@32{blocks=4"),
               std::invalid_argument);
  // Unknown base key falls through to ExplorationRequest::Parse.
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot warp-speed=9"),
               std::invalid_argument);
  // Bad factor value.
  EXPECT_THROW(CampaignSpec::Parse("kernels=dot acc-factors=0.4,nan"),
               std::invalid_argument);
}

TEST(CampaignSpec, ValidateRejectsDuplicates) {
  CampaignSpec spec = CampaignSpec::Parse("kernels=dot@32 steps=100");
  spec.kernels.push_back(spec.kernels[0]);  // identical entry
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(CampaignSpec, ValidateBoundsTheGridBeforeExpandingIt) {
  // 1024 entries on each of the seven axes: the cell count (2^70) wraps a
  // 64-bit size_t to 0. Repeated axis values are only caught as duplicate
  // cells after expansion, so the size check must come first.
  std::string text = "kernels=";
  for (int k = 0; k < 1024; ++k)
    text += (k > 0 ? ",dot@" : "dot@") + std::to_string(k + 1);
  const auto axis = [&](const char* key, const char* value) {
    text += std::string(" ") + key + "=" + value;
    for (int i = 1; i < 1024; ++i) text += std::string(",") + value;
  };
  axis("agents", "q-learning");
  axis("action-spaces", "full");
  axis("acc-factors", "0.4");
  axis("power-factors", "0.5");
  axis("time-factors", "0.5");
  axis("cache-modes", "private");
  const CampaignSpec spec = CampaignSpec::Parse(text);
  EXPECT_EQ(spec.NumCells(), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(spec.NumJobs(), std::numeric_limits<std::size_t>::max());
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  // The ceiling counts cells x seeds: 16 kernels at the most seeds a request
  // may ask for reach it exactly, 17 pass it.
  const auto kernels_with_max_seeds = [](int count) {
    std::string kernels = "kernels=";
    for (int k = 0; k < count; ++k)
      kernels += (k > 0 ? ",dot@" : "dot@") + std::to_string(k + 1);
    CampaignSpec spec = CampaignSpec::Parse(kernels + " steps=10");
    spec.base.num_seeds = kMaxSeeds;
    return spec;
  };
  ASSERT_EQ(kernels_with_max_seeds(16).NumJobs(), kMaxCampaignJobs);
  EXPECT_NO_THROW(kernels_with_max_seeds(16).Validate());
  EXPECT_THROW(kernels_with_max_seeds(17).Validate(), std::invalid_argument);
}

TEST(CampaignSpec, ExpandProducesTheCartesianGrid) {
  const CampaignSpec spec = CampaignSpec::Parse(
      "kernels=dot@32,fir@60 agents=q-learning,sarsa acc-factors=0.4,0.2"
      " steps=100 seeds=3");
  EXPECT_EQ(spec.NumCells(), 8u);
  EXPECT_EQ(spec.NumJobs(), 24u);
  const std::vector<ExplorationRequest> grid = spec.Expand();
  ASSERT_EQ(grid.size(), 8u);
  // Kernel-major, then agent, then the factor axis.
  EXPECT_EQ(grid[0].label, "dot@32/q-learning/acc=0.4");
  EXPECT_EQ(grid[1].label, "dot@32/q-learning/acc=0.2");
  EXPECT_EQ(grid[2].label, "dot@32/sarsa/acc=0.4");
  EXPECT_EQ(grid[4].label, "fir@60/q-learning/acc=0.4");
  EXPECT_EQ(grid[0].kernel.name, "dot");
  EXPECT_EQ(grid[0].kernel.size, 32u);
  EXPECT_EQ(grid[1].thresholds.accuracy_factor, 0.2);
  EXPECT_EQ(grid[2].agent_kind, AgentKind::kSarsa);
  // Every cell inherits the base.
  for (const ExplorationRequest& request : grid) {
    EXPECT_EQ(request.max_steps, 100u);
    EXPECT_EQ(request.num_seeds, 3u);
  }
  // Single-valued axes leave no label suffix.
  const CampaignSpec single = CampaignSpec::Parse("kernels=dot steps=100");
  EXPECT_EQ(single.Expand()[0].label, "dot/q-learning");
}

TEST(CampaignSpec, PerKernelExtrasReachTheRequests) {
  // Per-kernel extras live inside each spec entry; extras on the base
  // `kernel=` token (a name-less spec) apply to every cell, with the
  // entry's own extras winning on conflict.
  const CampaignSpec spec = CampaignSpec::Parse(
      "kernels=matmul@10{granularity=row-col},fir@60{taps=9}"
      " kernel={cutoff=0.3} steps=50");
  const std::vector<ExplorationRequest> grid = spec.Expand();
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].kernel.extra.at("granularity"), "row-col");
  EXPECT_EQ(grid[0].kernel.extra.at("cutoff"), "0.3");
  EXPECT_EQ(grid[1].kernel.extra.at("taps"), "9");
  EXPECT_EQ(grid[1].kernel.extra.count("granularity"), 0u);
}

// ---------------------------------------------------------------------------
// Execution and aggregation
// ---------------------------------------------------------------------------

TEST(Campaign, RunAggregatesCellsFrontsAndBest) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{2});
  const CampaignResult result = Campaign(engine).Run(spec);

  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(result.num_cells, 4u);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.TotalRuns(), spec.NumJobs());
  // Cells arrive in grid order with the generated labels.
  EXPECT_EQ(result.cells[0].request.label, "dot@32{blocks=4}/q-learning");
  EXPECT_EQ(result.cells[3].request.label, "kmeans1d@40{clusters=3}/sarsa");

  // One front and one best entry per kernel, first-appearance order.
  ASSERT_EQ(result.fronts.size(), 2u);
  ASSERT_EQ(result.best.size(), 2u);
  EXPECT_EQ(result.fronts[0].kernel, "dot-32x4");
  EXPECT_EQ(result.fronts[1].kernel, "kmeans1d-40x3");
  for (const CampaignFront& front : result.fronts) {
    EXPECT_FALSE(front.front.Empty()) << front.kernel;
    // Mutually non-dominating (the front invariant).
    const auto& points = front.front.Points();
    for (const ParetoPoint& a : points) {
      for (const ParetoPoint& b : points) {
        if (&a != &b) {
          EXPECT_FALSE(Dominates(a.measurement, b.measurement))
              << front.kernel;
        }
      }
    }
    // Provenance labels name a cell of this kernel.
    for (const ParetoPoint& point : points)
      EXPECT_NE(point.label.find("#"), std::string::npos);
  }
  for (const CampaignBest& best : result.best) {
    EXPECT_FALSE(best.cell.empty());
    EXPECT_TRUE(std::isfinite(best.objective));
  }
}

TEST(Campaign, ReportsAreWorkerCountInvariant) {
  const CampaignSpec spec = SmallSpec();
  const CampaignResult one = Campaign(Engine(EngineOptions{1})).Run(spec);
  const CampaignResult four = Campaign(Engine(EngineOptions{4})).Run(spec);
  EXPECT_EQ(report::CampaignJson(one), report::CampaignJson(four));
  EXPECT_EQ(report::CampaignCsv(one), report::CampaignCsv(four));
}

TEST(Campaign, ChunkingDoesNotChangeReports) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{2});
  CampaignOptions one_chunk;
  one_chunk.chunk_cells = 0;  // whole grid at once
  CampaignOptions tiny_chunks;
  tiny_chunks.chunk_cells = 1;
  EXPECT_EQ(report::CampaignJson(Campaign(engine).Run(spec, one_chunk)),
            report::CampaignJson(Campaign(engine).Run(spec, tiny_chunks)));
}

TEST(Campaign, StepBudgetWithoutDirectoryThrows) {
  CampaignOptions options;
  options.step_budget = 10;
  EXPECT_THROW(Campaign(Engine(EngineOptions{1})).Run(SmallSpec(), options),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Resume contract
// ---------------------------------------------------------------------------

TEST(Campaign, SuspendAndResumeIsByteIdenticalAndCleansUp) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{2});
  const std::string uninterrupted =
      report::CampaignJson(Campaign(engine).Run(spec));

  const ScopedTempDir scratch("campaign-suspend");
  const std::string& dir = scratch.Str();
  CampaignOptions options;
  options.chunk_cells = 2;
  options.checkpoint_directory = dir;
  options.step_budget = 25;  // 60-step runs suspend at least twice

  CampaignResult result = Campaign(engine).Run(spec, options);
  EXPECT_FALSE(result.Complete());
  EXPECT_GT(result.unfinished_jobs, 0u);
  EXPECT_GT(CkptFileCount(dir), 0u);

  int invocations = 0;
  while (!result.Complete()) {
    ASSERT_LT(++invocations, 20) << "campaign did not converge";
    result = Campaign(engine).Run(spec, options);
  }
  EXPECT_EQ(report::CampaignJson(result), uninterrupted);
  EXPECT_EQ(CkptFileCount(dir), 0u);  // everything cleaned on completion
}

TEST(Campaign, MaxChunksSuspendsMidGridAndResumes) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{2});
  const std::string uninterrupted =
      report::CampaignJson(Campaign(engine).Run(spec));

  const ScopedTempDir scratch("campaign-midgrid");
  const std::string& dir = scratch.Str();
  CampaignOptions options;
  options.chunk_cells = 1;
  options.checkpoint_directory = dir;
  options.max_chunks = 2;

  const CampaignResult partial = Campaign(engine).Run(spec, options);
  EXPECT_FALSE(partial.Complete());
  EXPECT_EQ(partial.cells.size(), 2u);
  EXPECT_EQ(partial.pending_cells, 2u);
  EXPECT_EQ(partial.unfinished_jobs, 0u);
  // The completed chunks persisted as chunk result documents next to the
  // manifest; a max_chunks stop leaves no lease or engine job snapshot.
  EXPECT_EQ(CkptFileCount(dir, ".done"), 2u);
  EXPECT_EQ(CkptFileCount(dir), 3u);

  // Rerunning the SAME command must make forward progress: restored
  // chunks don't count against max_chunks, so the second invocation loads
  // the two finished cells and executes the remaining two.
  const CampaignResult full = Campaign(engine).Run(spec, options);
  EXPECT_TRUE(full.Complete());
  EXPECT_EQ(full.resumed_cells, 2u);
  EXPECT_EQ(report::CampaignJson(full), uninterrupted);
  EXPECT_EQ(report::CampaignCsv(full),
            report::CampaignCsv(Campaign(engine).Run(spec)));
  EXPECT_EQ(CkptFileCount(dir), 0u);
}

TEST(Campaign, ChunkSnapshotRoundTripsExactly) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{1});
  const BatchResult batch = engine.Run(spec.Expand());

  CampaignChunkCheckpoint snapshot;
  snapshot.spec_hash = StableHash64(spec.ToString());
  snapshot.chunk_index = 3;
  snapshot.first_cell = 12;
  for (const RequestResult& result : batch.results)
    snapshot.cells.push_back(CampaignAggregator::Reduce(result));

  const std::string text = snapshot.Serialize();
  const CampaignChunkCheckpoint restored =
      CampaignChunkCheckpoint::Deserialize(text);
  EXPECT_EQ(restored.Serialize(), text);
  EXPECT_EQ(restored.spec_hash, snapshot.spec_hash);
  EXPECT_EQ(restored.chunk_index, 3u);
  EXPECT_EQ(restored.first_cell, 12u);
  ASSERT_EQ(restored.cells.size(), snapshot.cells.size());

  // And the aggregates derived from restored cells match the originals:
  // same JSON whether the aggregator saw live results or restored cells.
  CampaignAggregator live;
  for (const RequestResult& result : batch.results) live.Add(result);
  CampaignAggregator resumed;
  for (const CampaignCell& cell : restored.cells) resumed.Add(cell);
  CampaignResult a, b;
  a.spec = b.spec = spec;
  a.num_cells = b.num_cells = spec.NumCells();
  a.cells = live.Cells();
  a.fronts = live.Fronts();
  a.best = live.Best();
  b.cells = resumed.Cells();
  b.fronts = resumed.Fronts();
  b.best = resumed.Best();
  EXPECT_EQ(report::CampaignJson(a), report::CampaignJson(b));
}

TEST(Campaign, TornChunkResultIsRecomputed) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{2});
  const std::string uninterrupted =
      report::CampaignJson(Campaign(engine).Run(spec));
  const ScopedTempDir scratch("campaign-corrupt");
  const std::string& dir = scratch.Str();
  CampaignOptions options;
  options.chunk_cells = 1;
  options.checkpoint_directory = dir;
  options.max_chunks = 1;
  ASSERT_FALSE(Campaign(engine).Run(spec, options).Complete());

  // Truncate the chunk's result document. Like a shard worker, the resume
  // treats it as no result and recomputes the chunk — never mis-aggregates.
  const std::string path =
      (fs::path(dir) / ShardChunkResultFileName(0)).string();
  ASSERT_TRUE(fs::exists(path));
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  CampaignOptions resume = options;
  resume.max_chunks = 0;
  const CampaignResult result = Campaign(engine).Run(spec, resume);
  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(result.resumed_cells, 0u);
  EXPECT_EQ(report::CampaignJson(result), uninterrupted);
  EXPECT_EQ(CkptFileCount(dir), 0u);
}

TEST(Campaign, MismatchedChunkingIsRejectedNotMisread) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine(EngineOptions{2});
  const ScopedTempDir scratch("campaign-chunking");
  const std::string& dir = scratch.Str();
  CampaignOptions options;
  options.chunk_cells = 1;
  options.checkpoint_directory = dir;
  options.max_chunks = 1;
  ASSERT_FALSE(Campaign(engine).Run(spec, options).Complete());

  // Resuming with a different chunk size maps result indices onto
  // different grid slices — the manifest refuses it, no silent corruption.
  CampaignOptions wrong = options;
  wrong.chunk_cells = 2;
  wrong.max_chunks = 0;
  EXPECT_THROW(Campaign(engine).Run(spec, wrong), ShardError);
}

TEST(Campaign, CallerHooksComposeWithTheLeaseHeartbeat) {
  // Several engine workers call the composed hooks at once; the caller's
  // on_progress, should_suspend and cache_provider all run, and the
  // caller's interval replaces the heartbeat's.
  const CampaignSpec spec = CampaignSpec::Parse(
      "kernels=dot@32{blocks=4},kmeans1d@40{clusters=3}"
      " agents=q-learning,sarsa cache-modes=shared"
      " steps=300 seeds=2 seed=1 kernel-seed=2023 reward-cap=1e18");
  const Engine engine(EngineOptions{4});
  const ScopedTempDir scratch("campaign-hooks");
  CampaignOptions options;
  options.chunk_cells = 2;
  options.checkpoint_directory = scratch.Str();
  std::atomic<std::size_t> progress_calls{0};
  std::atomic<std::size_t> suspend_polls{0};
  std::atomic<std::size_t> cache_requests{0};
  CampaignObserver observer;
  observer.engine.interval = 25;
  observer.engine.on_progress = [&](const JobProgress&) { ++progress_calls; };
  observer.engine.should_suspend = [&] {
    ++suspend_polls;
    return false;
  };
  observer.engine.cache_provider = [&](const std::string&, std::size_t) {
    ++cache_requests;
    return std::shared_ptr<instrument::SharedEvaluationCache>();
  };
  const CampaignResult result = Campaign(engine).Run(spec, options, observer);
  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(result.cells.size(), spec.NumCells());
  // 300-step jobs polled every 25 steps: ~12 calls each, where the
  // heartbeat's own interval of 128 would give at most 3.
  EXPECT_GE(progress_calls.load(), spec.NumJobs() * 10);
  EXPECT_GE(suspend_polls.load(), spec.NumJobs() * 10);
  EXPECT_GT(cache_requests.load(), 0u);
  EXPECT_EQ(CkptFileCount(scratch.Str()), 0u);
}

}  // namespace
}  // namespace axdse::dse
