#pragma once
// The chunk loop every campaign path shares (library-internal): one grid
// slicing, result-document check and manifest load for Campaign::Run,
// ShardWorker::Run, MergeShardedCampaign and ShardStatus.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "dse/shard.hpp"

namespace axdse::dse {

/// One chunk's grid slice run through the engine and reduced to campaign
/// cells (none when jobs suspended): shared by Campaign::Run and shards.
struct CampaignSlice {
  std::vector<CampaignCell> cells;
  std::size_t unfinished_jobs = 0;
};
CampaignSlice RunCampaignSlice(const Engine& engine,
                               const std::vector<ExplorationRequest>& slice,
                               const CheckpointOptions& checkpoint,
                               const RunHooks& hooks);

/// A campaign's expanded grid cut into chunk work units.
struct ChunkPlan {
  CampaignSpec spec;
  std::string spec_text;        ///< spec.ToString()
  std::uint64_t spec_hash = 0;  ///< StableHash64(spec_text)
  std::vector<ExplorationRequest> grid;
  std::size_t chunk_cells = 0;  ///< resolved: >= 1
  std::size_t num_chunks = 0;

  /// Validates and expands `spec` (std::invalid_argument). chunk_cells 0 =
  /// the whole grid in one chunk; any value up to SIZE_MAX is valid.
  ChunkPlan(const CampaignSpec& spec, std::size_t chunk_cells);

  std::size_t FirstCell(std::size_t chunk) const { return chunk * chunk_cells; }
  /// One past the chunk's last grid cell.
  std::size_t EndCell(std::size_t chunk) const;
  std::vector<ExplorationRequest> Slice(std::size_t chunk) const;
  /// The result-document check: `result` is this campaign's chunk `chunk`
  /// (spec hash, index, first cell, cell count, and every cell's request).
  bool Accepts(const CampaignChunkCheckpoint& result, std::size_t chunk) const;
};

/// The chunk plan a state directory's manifest records. Throws ShardError
/// (prefixed with `who`) when the manifest is missing or unusable.
ChunkPlan LoadChunkPlan(const std::string& state_directory,
                        const std::string& who);

/// What Campaign::Run layers over the shard chunk loop. The caller's hooks
/// compose with the lease heartbeat: on_progress and should_suspend run
/// alongside it, cache_provider passes through, a non-zero interval wins.
struct ChunkLoopControl {
  RunHooks hooks;
  std::size_t step_budget = 0;  ///< CheckpointOptions::step_budget
  /// Each chunk's result document, as the loop finds it done (`resumed`) or
  /// commits it.
  std::function<void(CampaignChunkCheckpoint result, bool resumed)> on_result;
};

struct ChunkLoopReport {
  ShardRunReport shard;
  /// Jobs a step budget or the caller suspended: the loop ends at that
  /// chunk and releases its lease.
  std::size_t unfinished_jobs = 0;
};

/// The shard worker's chunk loop (see ShardWorker::Run) under `control`.
/// The chunking is the plan's; options.chunk_cells is not read.
ChunkLoopReport RunChunkLoop(const Engine& engine, const ChunkPlan& plan,
                             const ShardOptions& options,
                             const ChunkLoopControl& control);

}  // namespace axdse::dse
