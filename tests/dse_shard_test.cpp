// Tests for dse/shard: the crash-safe multi-process campaign contract.
// The headline property: a sharded campaign — any worker count, any
// claim interleaving, stale/torn/corrupt lease files, dead workers leaving
// mid-chunk engine snapshots — merges to JSON/CSV documents byte-identical
// to an uninterrupted single-process Campaign::Run of the same spec and
// chunk size. Campaign::Run with a checkpoint directory works the same
// state directory, so either side resumes the other. Plus the
// fault-injection layer the crash drills are built on.

#include "dse/shard.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/test_support.hpp"
#include "dse/campaign.hpp"
#include "dse/checkpoint.hpp"
#include "report/campaign.hpp"
#include "util/fault_injection.hpp"

namespace axdse::dse {
namespace {

namespace fs = std::filesystem;
using testsupport::ScopedTempDir;

/// 2 kernels x 2 agents, 2 seeds, 60 steps: 4 grid cells, sub-second.
CampaignSpec SmallSpec() {
  return CampaignSpec::Parse(
      "kernels=dot@32{blocks=4},kmeans1d@40{clusters=3}"
      " agents=q-learning,sarsa"
      " steps=60 seeds=2 seed=1 kernel-seed=2023 reward-cap=1e18");
}

constexpr std::size_t kChunkCells = 1;  // 4 chunks for SmallSpec

/// The single-process reference documents every sharded run must match.
struct Reference {
  std::string json;
  std::string csv;
};

Reference ReferenceDocuments(const CampaignSpec& spec) {
  const Engine engine;
  CampaignOptions options;
  options.chunk_cells = kChunkCells;
  const CampaignResult result = Campaign(engine).Run(spec, options);
  return {report::CampaignJson(result), report::CampaignCsv(result)};
}

ShardOptions QuickShardOptions(const std::string& dir,
                               const std::string& worker) {
  ShardOptions options;
  options.state_directory = dir;
  options.worker_id = worker;
  options.chunk_cells = kChunkCells;
  options.lease_ttl = std::chrono::milliseconds(200);
  options.heartbeat_period = std::chrono::milliseconds(20);
  options.poll_period = std::chrono::milliseconds(10);
  return options;
}

void WriteRaw(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  out << content;
}

std::string PathIn(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

void ExpectMergeMatchesReference(const std::string& dir,
                                 const Reference& reference) {
  const CampaignResult merged = MergeShardedCampaign(dir);
  EXPECT_TRUE(merged.Complete());
  EXPECT_EQ(report::CampaignJson(merged), reference.json);
  EXPECT_EQ(report::CampaignCsv(merged), reference.csv);
}

// ---------------------------------------------------------------------------
// Lease / manifest formats
// ---------------------------------------------------------------------------

TEST(ShardLease, SerializeDeserializeRoundTrip) {
  ShardLease lease;
  lease.spec_hash = 0xdeadbeef12345678ULL;
  lease.chunk_index = 42;
  lease.owner = "worker-3_b";
  lease.generation = 17;
  lease.heartbeat = 1234;
  const ShardLease back = ShardLease::Deserialize(lease.Serialize());
  EXPECT_EQ(back.spec_hash, lease.spec_hash);
  EXPECT_EQ(back.chunk_index, lease.chunk_index);
  EXPECT_EQ(back.owner, lease.owner);
  EXPECT_EQ(back.generation, lease.generation);
  EXPECT_EQ(back.heartbeat, lease.heartbeat);
  EXPECT_EQ(back.Serialize(), lease.Serialize());
}

TEST(ShardLease, MalformedInputsThrowTyped) {
  ShardLease valid;
  valid.spec_hash = 1;
  valid.owner = "w";
  valid.generation = 1;
  const std::string text = valid.Serialize();
  // Every truncation of a valid serialization must fail typed.
  for (std::size_t len = 0; len < text.size(); ++len)
    EXPECT_THROW(ShardLease::Deserialize(text.substr(0, len)), ShardError)
        << "truncation at " << len;
  EXPECT_THROW(ShardLease::Deserialize(""), ShardError);
  EXPECT_THROW(ShardLease::Deserialize(text + text), ShardError);  // doubled
  EXPECT_THROW(ShardLease::Deserialize("axdse-shard-lease v2\nlease\nend\n"),
               ShardError);
  EXPECT_THROW(
      ShardLease::Deserialize("axdse-shard-lease v1\n"
                              "lease 0000000000000001 0 w!d 1 0\nend\n"),
      ShardError);  // owner outside the identifier alphabet
  EXPECT_THROW(
      ShardLease::Deserialize("axdse-shard-lease v1\n"
                              "lease 0000000000000001 0 w 0 0\nend\n"),
      ShardError);  // generation 0 never exists on disk
}

TEST(ShardLease, FutureCountersAreRejected) {
  ShardLease lease;
  lease.spec_hash = 1;
  lease.owner = "w";
  lease.generation = ShardLease::kMaxCounter + 1;
  EXPECT_THROW(ShardLease::Deserialize(lease.Serialize()), ShardError);
  lease.generation = 1;
  lease.heartbeat = ShardLease::kMaxCounter + 1;
  EXPECT_THROW(ShardLease::Deserialize(lease.Serialize()), ShardError);
  lease.heartbeat = ShardLease::kMaxCounter;  // the bound itself is valid
  EXPECT_NO_THROW(ShardLease::Deserialize(lease.Serialize()));
}

TEST(ShardManifest, RoundTripAndMalformed) {
  ShardManifest manifest;
  manifest.spec_text = "kernels=dot@32 steps=60 seeds=2";
  manifest.chunk_cells = 2;
  manifest.num_cells = 4;
  const ShardManifest back = ShardManifest::Deserialize(manifest.Serialize());
  EXPECT_EQ(back.spec_text, manifest.spec_text);
  EXPECT_EQ(back.chunk_cells, manifest.chunk_cells);
  EXPECT_EQ(back.num_cells, manifest.num_cells);
  EXPECT_THROW(ShardManifest::Deserialize(""), ShardError);
  const std::string text = manifest.Serialize();
  EXPECT_THROW(ShardManifest::Deserialize(text.substr(0, text.size() / 2)),
               ShardError);
  EXPECT_THROW(
      ShardManifest::Deserialize("axdse-shard-campaign v1\n"
                                 "chunks 0 4\nspec x\nend\n"),
      ShardError);  // zero chunk_cells
}

// ---------------------------------------------------------------------------
// Golden fixtures: chunk documents, leases and manifests are pinned byte for
// byte, and documents written by earlier builds must still load.
// Regenerate intentionally with AXDSE_UPDATE_GOLDEN=1 and review the diff.
// ---------------------------------------------------------------------------

std::string GoldenPath(const char* name) {
  return std::string(AXDSE_SOURCE_DIR "/tests/golden/") + name;
}

/// One plain kernel and one pipeline (whose runs carry `stage` lines).
CampaignSpec GoldenSpec() {
  return CampaignSpec::Parse(
      "kernels=dot@16{blocks=4},jpeg-path@1 agents=q-learning"
      " steps=40 seeds=2 seed=1 kernel-seed=2023 reward-cap=1e18");
}

TEST(GoldenRecords, CampaignChunkDocumentMatchesFixture) {
  const CampaignSpec spec = GoldenSpec();
  const BatchResult batch = Engine(EngineOptions{1}).Run(spec.Expand());
  CampaignChunkCheckpoint chunk;
  chunk.spec_hash = StableHash64(spec.ToString());
  chunk.chunk_index = 0;
  chunk.first_cell = 0;
  for (const RequestResult& result : batch.results)
    chunk.cells.push_back(CampaignAggregator::Reduce(result));
  ASSERT_FALSE(chunk.cells.back().runs.front().stage_counts.empty());

  const std::string path = GoldenPath("campaign_chunk_seed1.done");
  testsupport::ExpectMatchesGolden(path, chunk.Serialize());
  const std::string text = testsupport::ReadGolden(path);
  EXPECT_EQ(CampaignChunkCheckpoint::Deserialize(text).Serialize(), text);
}

TEST(GoldenRecords, ShardLeaseMatchesFixture) {
  ShardLease lease;
  lease.spec_hash = 0x0123456789abcdefULL;
  lease.chunk_index = 3;
  lease.owner = "worker-a_1";
  lease.generation = 2;
  lease.heartbeat = 41;
  const std::string path = GoldenPath("shard_lease.lease");
  testsupport::ExpectMatchesGolden(path, lease.Serialize());
  const std::string text = testsupport::ReadGolden(path);
  EXPECT_EQ(ShardLease::Deserialize(text).Serialize(), text);
}

TEST(GoldenRecords, ShardManifestMatchesFixture) {
  ShardManifest manifest;
  manifest.spec_text = GoldenSpec().ToString();
  manifest.chunk_cells = 1;
  manifest.num_cells = 2;
  const std::string path = GoldenPath("shard_campaign.manifest");
  testsupport::ExpectMatchesGolden(path, manifest.Serialize());
  const std::string text = testsupport::ReadGolden(path);
  EXPECT_EQ(ShardManifest::Deserialize(text).Serialize(), text);
}

// ---------------------------------------------------------------------------
// Single- and multi-worker byte-identity
// ---------------------------------------------------------------------------

TEST(ShardWorker, SingleWorkerMatchesSingleProcessRun) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("shard-single");

  const Engine engine;
  const ShardRunReport report =
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "solo"));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_executed, 4u);
  EXPECT_EQ(report.chunks_reclaimed, 0u);
  EXPECT_EQ(report.chunks_yielded, 0u);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

TEST(ShardWorker, ConcurrentWorkersMatchSingleProcessRun) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  for (const std::size_t num_workers : {2u, 4u}) {
    ScopedTempDir dir("shard-multi-" + std::to_string(num_workers));
    std::vector<ShardRunReport> reports(num_workers);
    {
      std::vector<std::thread> threads;
      for (std::size_t w = 0; w < num_workers; ++w)
        threads.emplace_back([&, w] {
          const Engine engine(EngineOptions{2});
          reports[w] = ShardWorker(engine).Run(
              spec,
              QuickShardOptions(dir.Str(), "worker-" + std::to_string(w)));
        });
      for (std::thread& t : threads) t.join();
    }
    std::size_t executed = 0;
    for (const ShardRunReport& report : reports) {
      EXPECT_TRUE(report.complete);
      executed += report.chunks_executed;
    }
    // Benign duplicate execution is allowed by the protocol, but every
    // chunk ran at least once and the merge folds each exactly once.
    EXPECT_GE(executed, 4u);
    ExpectMergeMatchesReference(dir.Str(), reference);
  }
}

TEST(ShardWorker, SecondWorkerAfterCompletionOnlySkips) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-skip");
  const Engine engine;
  ASSERT_TRUE(
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "first"))
          .complete);
  const ShardRunReport second =
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "second"));
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.chunks_executed, 0u);
  EXPECT_EQ(second.chunks_skipped, 4u);
}

TEST(ShardWorker, MaxChunksSuspendsAndRerunFinishes) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("shard-maxchunks");
  const Engine engine;
  ShardOptions options = QuickShardOptions(dir.Str(), "budgeted");
  options.max_chunks = 1;
  const ShardRunReport first = ShardWorker(engine).Run(spec, options);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.chunks_executed, 1u);
  options.max_chunks = 0;
  EXPECT_TRUE(ShardWorker(engine).Run(spec, options).complete);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

// ---------------------------------------------------------------------------
// One state directory: Campaign::Run and shard workers resume each other
// ---------------------------------------------------------------------------

CampaignOptions RunInDirectory(const std::string& dir) {
  CampaignOptions options;
  options.chunk_cells = kChunkCells;
  options.checkpoint_directory = dir;
  return options;
}

TEST(OneStateDirectory, SuspendedRunIsFinishedByAShardWorker) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("one-dir-run-first");
  const Engine engine;
  CampaignOptions options = RunInDirectory(dir.Str());
  options.max_chunks = 1;
  const CampaignResult partial = Campaign(engine).Run(spec, options);
  ASSERT_FALSE(partial.Complete());
  EXPECT_EQ(partial.cells.size(), 1u);

  const ShardRunReport report =
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "finisher"));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_skipped, 1u);
  EXPECT_EQ(report.chunks_executed, 3u);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

TEST(OneStateDirectory, RunFinishesAShardDirectoryAndEmptiesIt) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("one-dir-shard-first");
  const Engine engine;
  ShardOptions options = QuickShardOptions(dir.Str(), "starter");
  options.max_chunks = 1;
  ASSERT_FALSE(ShardWorker(engine).Run(spec, options).complete);

  const CampaignResult result =
      Campaign(engine).Run(spec, RunInDirectory(dir.Str()));
  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(result.resumed_cells, 1u);
  EXPECT_EQ(report::CampaignJson(result), reference.json);
  EXPECT_EQ(report::CampaignCsv(result), reference.csv);
  EXPECT_TRUE(fs::is_empty(dir.Str()));
}

TEST(OneStateDirectory, StatusReadsASuspendedRunDirectory) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("one-dir-status");
  const Engine engine;
  // max_chunks: one chunk done, the rest never claimed.
  CampaignOptions options = RunInDirectory(dir.Str());
  options.max_chunks = 1;
  ASSERT_FALSE(Campaign(engine).Run(spec, options).Complete());
  ShardStatusReport status = ShardStatus(dir.Str());
  EXPECT_EQ(status.num_chunks, 4u);
  EXPECT_EQ(status.done, 1u);
  EXPECT_EQ(status.claimed + status.stale, 0u);
  EXPECT_EQ(status.unclaimed, 3u);

  // A step-budget suspension releases the suspended chunk's lease: its
  // jobs' snapshots wait for whoever claims it next.
  options.max_chunks = 0;
  options.step_budget = 25;
  ASSERT_GT(Campaign(engine).Run(spec, options).unfinished_jobs, 0u);
  status = ShardStatus(dir.Str());
  EXPECT_EQ(status.done, 1u);
  EXPECT_EQ(status.claimed + status.stale, 0u);
  EXPECT_EQ(status.unclaimed, 3u);
}

TEST(OneStateDirectory, PeerWorkerStopsWhenRunCompletesTheDirectory) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("one-dir-peer");
  const Engine engine;
  // Chunks 0-1 done by a run; chunk 3 held by a killed run's lease.
  CampaignOptions options = RunInDirectory(dir.Str());
  options.max_chunks = 2;
  ASSERT_FALSE(Campaign(engine).Run(spec, options).Complete());
  ShardLease killed_run;
  killed_run.spec_hash = StableHash64(spec.ToString());
  killed_run.chunk_index = 3;
  killed_run.owner = "campaign";
  killed_run.generation = 1;
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(3)), killed_run.Serialize());

  // The peer executes chunk 2, then polls chunk 3's lease, which it would
  // only reclaim after ten minutes.
  bool peer_threw = false;
  ShardRunReport peer_report;
  std::thread peer([&] {
    ShardOptions peer_options = QuickShardOptions(dir.Str(), "peer");
    peer_options.lease_ttl = std::chrono::minutes(10);
    const Engine peer_engine;
    try {
      peer_report = ShardWorker(peer_engine).Run(spec, peer_options);
    } catch (const ShardError&) {
      peer_threw = true;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (!fs::exists(PathIn(dir.Str(), ShardChunkResultFileName(2))) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // The run reclaims its own lease at once, completes and empties the
  // directory under the polling peer.
  const CampaignResult result =
      Campaign(engine).Run(spec, RunInDirectory(dir.Str()));
  peer.join();
  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(report::CampaignJson(result), reference.json);
  EXPECT_EQ(report::CampaignCsv(result), reference.csv);
  // The peer either saw every result before the clean-up (complete) or
  // found the manifest gone and stopped; it never recomputes a removed
  // result into the emptied directory.
  EXPECT_TRUE(peer_threw || peer_report.complete);
  EXPECT_TRUE(fs::is_empty(dir.Str()));
}

// ---------------------------------------------------------------------------
// Chunk counts near SIZE_MAX
// ---------------------------------------------------------------------------

TEST(ChunkPlan, MaximalChunkCellsMakeOneChunk) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("chunk-plan-max");
  const Engine engine;
  ShardOptions options = QuickShardOptions(dir.Str(), "solo");
  options.chunk_cells = std::numeric_limits<std::size_t>::max();
  const ShardRunReport report = ShardWorker(engine).Run(spec, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_executed, 1u);
  EXPECT_EQ(ShardStatus(dir.Str()).num_chunks, 1u);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

TEST(ChunkPlan, HandWrittenMaximalManifestMergesEveryCell) {
  // A ceiling division that wraps would count 0 chunks here and merge an
  // empty campaign.
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("chunk-plan-manifest");
  fs::create_directories(dir.Str());
  WriteRaw(PathIn(dir.Str(), ShardManifestFileName()),
           "axdse-shard-campaign v1\nchunks 18446744073709551615 4\nspec " +
               spec.ToString() + "\nend\n");
  CampaignChunkCheckpoint chunk;
  chunk.spec_hash = StableHash64(spec.ToString());
  for (const RequestResult& result : Engine().Run(spec.Expand()).results)
    chunk.cells.push_back(CampaignAggregator::Reduce(result));
  chunk.Save(PathIn(dir.Str(), ShardChunkResultFileName(0)));

  const ShardStatusReport status = ShardStatus(dir.Str());
  EXPECT_EQ(status.num_chunks, 1u);
  EXPECT_TRUE(status.Complete());
  const CampaignResult merged = MergeShardedCampaign(dir.Str());
  EXPECT_EQ(merged.cells.size(), 4u);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

// ---------------------------------------------------------------------------
// Stale, torn, and corrupt lease handling
// ---------------------------------------------------------------------------

TEST(ShardWorker, StaleLeaseOfDeadPeerIsReclaimed) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("shard-stale");
  fs::create_directories(dir.Str());
  // A dead peer's lease on chunk 0: valid bytes, never refreshed again.
  ShardLease ghost;
  ghost.spec_hash = StableHash64(spec.ToString());
  ghost.chunk_index = 0;
  ghost.owner = "ghost";
  ghost.generation = 3;
  ghost.heartbeat = 99;
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(0)), ghost.Serialize());

  const Engine engine;
  const ShardRunReport report =
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "survivor"));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_executed, 4u);
  EXPECT_EQ(report.chunks_reclaimed, 1u);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

TEST(ShardWorker, OwnStaleLeaseIsReclaimedImmediately) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-own");
  fs::create_directories(dir.Str());
  ShardLease previous_life;
  previous_life.spec_hash = StableHash64(spec.ToString());
  previous_life.chunk_index = 1;
  previous_life.owner = "phoenix";
  previous_life.generation = 5;
  previous_life.heartbeat = 7;
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(1)),
           previous_life.Serialize());

  const Engine engine;
  ShardOptions options = QuickShardOptions(dir.Str(), "phoenix");
  options.lease_ttl = std::chrono::minutes(10);  // TTL must NOT be needed
  const ShardRunReport report = ShardWorker(engine).Run(spec, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_reclaimed, 1u);
}

TEST(ShardWorker, CorruptLeaseFilesAreReclaimedNotFatal) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ShardLease valid;
  valid.spec_hash = StableHash64(spec.ToString());
  valid.chunk_index = 2;
  valid.owner = "gone";
  valid.generation = 2;
  const std::string valid_text = valid.Serialize();

  const struct {
    const char* name;
    std::string content;
  } cases[] = {
      {"zero-length", ""},
      {"truncated", valid_text.substr(0, valid_text.size() / 2)},
      {"duplicated", valid_text + valid_text},
      {"garbage", "\x7f\x00binary junk\nnot a lease\n"},
      {"future-generation",
       [] {
         ShardLease future;
         future.spec_hash = 1;  // hash is unreadable past the bound check
         future.owner = "x";
         future.generation = ShardLease::kMaxCounter + 100;
         return future.Serialize();
       }()},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    ScopedTempDir dir(std::string("shard-corrupt-") + test_case.name);
    fs::create_directories(dir.Str());
    WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(2)), test_case.content);

    const Engine engine;
    const ShardRunReport report = ShardWorker(engine).Run(
        spec, QuickShardOptions(dir.Str(), "survivor"));
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.chunks_executed, 4u);
    EXPECT_GE(report.chunks_reclaimed, 1u);
    ExpectMergeMatchesReference(dir.Str(), reference);
  }
}

TEST(ShardWorker, TornResultDocumentIsReExecuted) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("shard-torn-done");
  fs::create_directories(dir.Str());
  WriteRaw(PathIn(dir.Str(), ShardChunkResultFileName(0)),
           "axdse-campaign-chunk v2\ntruncated before any");

  const Engine engine;
  const ShardRunReport report =
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "healer"));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_executed, 4u);  // the torn chunk ran again
  ExpectMergeMatchesReference(dir.Str(), reference);
}

TEST(ShardWorker, DeadWorkersEngineSnapshotsAreResumed) {
  const CampaignSpec spec = SmallSpec();
  const Reference reference = ReferenceDocuments(spec);
  ScopedTempDir dir("shard-resume");
  fs::create_directories(dir.Str());

  // Simulate a worker that died mid-chunk: suspend chunk 0's jobs into the
  // state directory (exactly the snapshots a SIGKILLed owner leaves, since
  // autosaves are atomic), under a now-stale lease.
  const std::vector<ExplorationRequest> grid = spec.Expand();
  const Engine engine;
  const BatchResult partial =
      engine.Run({grid.begin(), grid.begin() + kChunkCells},
                 {.directory = dir.Str(), .step_budget = 20});
  ASSERT_GT(partial.unfinished_jobs, 0u);
  ShardLease dead;
  dead.spec_hash = StableHash64(spec.ToString());
  dead.chunk_index = 0;
  dead.owner = "casualty";
  dead.generation = 1;
  dead.heartbeat = 4;
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(0)), dead.Serialize());

  const ShardRunReport report =
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "survivor"));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.chunks_reclaimed, 1u);
  ExpectMergeMatchesReference(dir.Str(), reference);
}

TEST(ShardWorker, CorruptSnapshotRecoveryDropsOnlyItsOwnChunk) {
  // A cache=shared grid in two chunks, both suspended into the directory
  // with job and shared-cache snapshots. One of chunk 0's snapshots is then
  // corrupted: the worker drops and recomputes chunk 0 alone, chunk 1
  // resumes its own snapshots, and with one engine worker the merged
  // documents, cache counters included, equal Campaign::Run's.
  const CampaignSpec spec = CampaignSpec::Parse(
      "kernels=dot@32{blocks=4},kmeans1d@40{clusters=3}"
      " agents=q-learning,sarsa cache=shared"
      " steps=60 seeds=2 seed=1 kernel-seed=2023 reward-cap=1e18");
  constexpr std::size_t kCells = 2;
  const Engine engine(EngineOptions{1});
  CampaignOptions reference_options;
  reference_options.chunk_cells = kCells;
  const CampaignResult reference =
      Campaign(engine).Run(spec, reference_options);
  const std::vector<ExplorationRequest> grid = spec.Expand();
  ASSERT_EQ(grid.size(), 2 * kCells);

  // A torn cache or job snapshot, or a job snapshot of the older v1
  // format, which this build refuses by version.
  const struct {
    const char* corrupted;
    bool v1;
  } cases[] = {{"cache-", false}, {"job-", false}, {"job-", true}};
  for (const auto& [corrupted, v1] : cases) {
    ScopedTempDir dir(std::string("shard-corrupt-snapshot-") + corrupted +
                      (v1 ? "v1" : ""));
    ASSERT_GT(engine
                  .Run({grid.begin(), grid.begin() + kCells},
                       {.directory = dir.Str(), .step_budget = 20})
                  .unfinished_jobs,
              0u);
    std::string victim;  // one of chunk 0's snapshots
    for (const auto& entry : fs::directory_iterator(dir.Str())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(corrupted, 0) == 0) victim = name;
    }
    ASSERT_FALSE(victim.empty());
    ASSERT_GT(engine
                  .Run({grid.begin() + kCells, grid.end()},
                       {.directory = dir.Str(), .step_budget = 20})
                  .unfinished_jobs,
              0u);
    if (v1) {
      std::string text = util::ReadWholeFile(PathIn(dir.Str(), victim)).value();
      ASSERT_EQ(text.rfind("axdse-checkpoint v2\n", 0), 0u);
      text[text.find('2')] = '1';
      WriteRaw(PathIn(dir.Str(), victim), text);
    } else {
      WriteRaw(PathIn(dir.Str(), victim), "corrupt\n");
    }

    ShardOptions options = QuickShardOptions(dir.Str(), "recoverer");
    options.chunk_cells = kCells;
    ASSERT_TRUE(ShardWorker(engine).Run(spec, options).complete) << corrupted;
    const CampaignResult merged = MergeShardedCampaign(dir.Str());
    EXPECT_EQ(report::CampaignJson(merged), report::CampaignJson(reference))
        << corrupted;
    EXPECT_EQ(report::CampaignCsv(merged), report::CampaignCsv(reference))
        << corrupted;
  }
}

// ---------------------------------------------------------------------------
// Foreign state and strict merge
// ---------------------------------------------------------------------------

TEST(ShardWorker, ForeignManifestIsTypedError) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-foreign");
  const Engine engine;
  ASSERT_TRUE(
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "first"))
          .complete);
  const CampaignSpec other =
      CampaignSpec::Parse("kernels=dot@32 steps=60 seeds=1");
  EXPECT_THROW(
      ShardWorker(engine).Run(other, QuickShardOptions(dir.Str(), "w")),
      ShardError);
  // Same spec, different chunking: also a different campaign identity.
  ShardOptions rechunked = QuickShardOptions(dir.Str(), "w");
  rechunked.chunk_cells = 2;
  EXPECT_THROW(ShardWorker(engine).Run(spec, rechunked), ShardError);
}

TEST(ShardWorker, ForeignLeaseIsTypedError) {
  // A parsable lease naming another campaign is foreign state, not a torn
  // file to reclaim.
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-foreign-lease");
  fs::create_directories(dir.Str());
  const ShardLease foreign{StableHash64("kernels=fir@100"), 0, "stranger", 1};
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(0)), foreign.Serialize());
  const Engine engine;
  EXPECT_THROW(
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "w")),
      ShardError);
}

TEST(ShardWorker, InvalidOptionsAreTypedErrors) {
  const CampaignSpec spec = SmallSpec();
  const Engine engine;
  ScopedTempDir dir("shard-badopts");
  EXPECT_THROW(ShardWorker(engine).Run(spec, ShardOptions{}), ShardError);
  ShardOptions no_id = QuickShardOptions(dir.Str(), "ok");
  no_id.worker_id.clear();
  EXPECT_THROW(ShardWorker(engine).Run(spec, no_id), ShardError);
  ShardOptions bad_id = QuickShardOptions(dir.Str(), "has space");
  EXPECT_THROW(ShardWorker(engine).Run(spec, bad_id), ShardError);
  ShardOptions bad_ttl = QuickShardOptions(dir.Str(), "ok");
  bad_ttl.lease_ttl = std::chrono::milliseconds(0);
  EXPECT_THROW(ShardWorker(engine).Run(spec, bad_ttl), ShardError);
}

// ---------------------------------------------------------------------------
// Read-only status
// ---------------------------------------------------------------------------

TEST(ShardStatus, MissingManifestIsTypedError) {
  ScopedTempDir dir("shard-status-missing");
  EXPECT_THROW(ShardStatus(dir.Str()), ShardError);
}

TEST(ShardStatus, CategorizesEveryChunkDisjointly) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-status-mixed");
  const Engine engine;
  // One chunk done, three untouched.
  ShardOptions options = QuickShardOptions(dir.Str(), "starter");
  options.max_chunks = 1;
  options.wait_for_completion = false;
  ASSERT_EQ(ShardWorker(engine).Run(spec, options).chunks_executed, 1u);

  // Dress two of the pending chunks: one dead peer's parsable lease, one
  // torn lease; the remaining chunk stays unclaimed.
  std::vector<std::size_t> pending;
  for (std::size_t chunk = 0; chunk < 4; ++chunk)
    if (!fs::exists(PathIn(dir.Str(), ShardChunkResultFileName(chunk))))
      pending.push_back(chunk);
  ASSERT_EQ(pending.size(), 3u);
  ShardLease ghost;
  ghost.spec_hash = StableHash64(spec.ToString());
  ghost.chunk_index = pending[0];
  ghost.owner = "ghost";
  ghost.generation = 2;
  ghost.heartbeat = 57;
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(pending[0])),
           ghost.Serialize());
  WriteRaw(PathIn(dir.Str(), ShardLeaseFileName(pending[1])), "torn");

  // Instant scan: the parsable lease is presumed live.
  const ShardStatusReport instant = ShardStatus(dir.Str());
  EXPECT_EQ(instant.num_chunks, 4u);
  EXPECT_EQ(instant.done, 1u);
  EXPECT_EQ(instant.claimed, 1u);
  EXPECT_EQ(instant.stale, 1u);
  EXPECT_EQ(instant.unclaimed, 1u);
  EXPECT_FALSE(instant.Complete());

  // Probed scan: the ghost's heartbeat never advances, so it turns stale.
  const ShardStatusReport probed =
      ShardStatus(dir.Str(), std::chrono::milliseconds(50));
  EXPECT_EQ(probed.done, 1u);
  EXPECT_EQ(probed.claimed, 0u);
  EXPECT_EQ(probed.stale, 2u);
  EXPECT_EQ(probed.unclaimed, 1u);

  // Status is strictly read-only: the ghost lease survives byte-identical
  // and no chunk was claimed or reclaimed behind the workers' backs.
  std::ifstream in(PathIn(dir.Str(), ShardLeaseFileName(pending[0])),
                   std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, ghost.Serialize());
  EXPECT_FALSE(
      fs::exists(PathIn(dir.Str(), ShardLeaseFileName(pending[2]))));
}

TEST(ShardStatus, CompleteDirectoryReportsAllDone) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-status-done");
  const Engine engine;
  ASSERT_TRUE(
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "solo"))
          .complete);
  const ShardStatusReport status = ShardStatus(dir.Str());
  EXPECT_EQ(status.done, 4u);
  EXPECT_EQ(status.claimed + status.stale + status.unclaimed, 0u);
  EXPECT_TRUE(status.Complete());
}

TEST(MergeShardedCampaign, MissingStateIsTypedError) {
  ScopedTempDir dir("shard-merge-missing");
  EXPECT_THROW(MergeShardedCampaign(dir.Str()), ShardError);

  // Manifest present but chunks missing: incomplete, must not merge.
  const CampaignSpec spec = SmallSpec();
  fs::create_directories(dir.Str());
  ShardManifest manifest;
  manifest.spec_text = spec.ToString();
  manifest.chunk_cells = kChunkCells;
  manifest.num_cells = spec.NumCells();
  WriteRaw(PathIn(dir.Str(), ShardManifestFileName()), manifest.Serialize());
  EXPECT_THROW(MergeShardedCampaign(dir.Str()), ShardError);
}

TEST(MergeShardedCampaign, TornChunkResultIsTypedError) {
  const CampaignSpec spec = SmallSpec();
  ScopedTempDir dir("shard-merge-torn");
  const Engine engine;
  ASSERT_TRUE(
      ShardWorker(engine).Run(spec, QuickShardOptions(dir.Str(), "w"))
          .complete);
  // Corrupt one result AFTER completion: merge is strict where the worker
  // claim path is lenient.
  WriteRaw(PathIn(dir.Str(), ShardChunkResultFileName(1)), "torn");
  EXPECT_THROW(MergeShardedCampaign(dir.Str()), ShardError);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::SetSpecForTesting(""); }
};

TEST_F(FaultInjectionTest, UnarmedPointsAreNoOps) {
  util::fault::SetSpecForTesting("");
  EXPECT_FALSE(util::fault::Armed());
  util::fault::Point("shard.claimed");  // must not crash or throw
  EXPECT_EQ(util::fault::ShortWriteLength("checkpoint.write", 100u), 100u);
}

TEST_F(FaultInjectionTest, ShortWriteFiresOnNthHitOnly) {
  util::fault::SetSpecForTesting("checkpoint.write:2:short");
  EXPECT_TRUE(util::fault::Armed());
  EXPECT_EQ(util::fault::ShortWriteLength("checkpoint.write", 100u), 100u);
  EXPECT_EQ(util::fault::ShortWriteLength("checkpoint.write", 100u), 50u);
  EXPECT_EQ(util::fault::ShortWriteLength("checkpoint.write", 100u), 100u);
  // Other points are unaffected.
  EXPECT_EQ(util::fault::ShortWriteLength("shard.lease.write", 100u), 100u);
}

TEST_F(FaultInjectionTest, DelayActionSleepsInsteadOfKilling) {
  util::fault::SetSpecForTesting("slow.point:1:delay=30");
  const auto before = std::chrono::steady_clock::now();
  util::fault::Point("slow.point");
  EXPECT_GE(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(25));
  util::fault::Point("slow.point");  // nth passed: no further delay
}

TEST_F(FaultInjectionTest, MalformedSpecsAreDroppedSilently) {
  util::fault::SetSpecForTesting(":,bad:action:wat,:5,,");
  EXPECT_FALSE(util::fault::Armed());
}

TEST_F(FaultInjectionTest, ShortWriteTearsCheckpointFileVisibly) {
  ScopedTempDir dir("fault-shortwrite");
  fs::create_directories(dir.Str());
  const std::string path = PathIn(dir.Str(), "victim.ckpt");
  const std::string content(64, 'x');
  util::fault::SetSpecForTesting("checkpoint.write:1:short");
  AtomicWriteCheckpointFile(path, content, "test");
  EXPECT_EQ(fs::file_size(path), content.size() / 2);  // genuinely torn
  util::fault::SetSpecForTesting("");
  AtomicWriteCheckpointFile(path, content, "test");
  EXPECT_EQ(fs::file_size(path), content.size());  // atomic heal
}

}  // namespace
}  // namespace axdse::dse
