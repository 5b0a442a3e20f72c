#pragma once
// dse::Shard — crash-safe multi-process campaign execution. A campaign's
// expanded grid is split into chunk work units; any number of ShardWorker
// processes point at one shared state directory and claim chunks through
// owner lease files. Campaign::Run with a checkpoint directory runs the same
// chunk loop in-process as the single worker "campaign", so a run's
// directory and a shard directory are one layout:
//
//   campaign.manifest   spec + chunking, written once, verified by everyone
//   chunk-<i>.lease     owner claim: worker id, generation, heartbeat
//   chunk-<i>.done      the chunk's result document (a CampaignChunkCheckpoint)
//   job-*.ckpt ...      the engine's snapshots of a chunk that stopped
//                       short (step budget, drain, lost lease): suspended
//                       and finished jobs plus shared caches. A chunk that
//                       completes writes none; one killed mid-run is
//                       recomputed from its last suspension.
//
// Claim protocol: a virgin chunk is claimed by O_EXCL-creating its lease; a
// lease whose owner stopped heartbeating for lease_ttl (observed on the
// watcher's own monotonic clock — no cross-process clock is trusted), or
// that is torn/truncated/unparsable, is reclaimed by atomically replacing
// it with generation+1. Every lease write is temp+fsync+rename, so a
// half-written lease is never visible except through external corruption —
// and corruption is handled, not fatal: an unreadable lease or result file
// counts as unclaimed work, never as a crash. A worker re-checks the result
// and the manifest after each claim and the manifest before each commit: a
// Campaign::Run that completes the directory removes the manifest first,
// so a worker whose pending result vanished throws ShardError rather than
// recompute into a finished campaign.
//
// Safety argument: chunk execution is deterministic (the engine's results
// are worker-count- and resume-independent), so even the unavoidable
// lease-race window — two workers briefly executing the same chunk after a
// reclaim — is benign: both compute byte-identical result documents, the
// atomic rename publishes one of them, and MergeShardedCampaign folds each
// chunk index exactly once. A shard SIGKILLed at ANY instruction therefore
// never loses or double-counts work: its lease goes stale, a survivor
// reclaims, resumes the dead worker's engine snapshots (or recomputes), and
// the merged axdse-campaign-v1 JSON/CSV is byte-identical to an
// uninterrupted single-process Campaign::Run of the same spec and chunk
// size. Deliberate deaths at exact hazard points are available through
// util::fault (AXDSE_FAULT=shard.executed:2 and friends).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "dse/campaign.hpp"

namespace axdse::dse {

/// Typed failure of shard coordination: invalid options, a state directory
/// belonging to a different campaign, lease/manifest parse errors, or an
/// incomplete directory handed to MergeShardedCampaign. File corruption on
/// the claim path is NOT an error (torn files are reclaimed as unclaimed
/// work); only genuinely foreign or unusable state raises this.
class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Owner lease of one chunk work unit, a util::record_io document
/// ("axdse-shard-lease v1") like every other on-disk format.
struct ShardLease {
  static constexpr unsigned kFormatVersion = 1;
  /// Generations and heartbeats beyond this bound are rejected as corrupt
  /// ("future-generation" files cannot wedge reclaim into overflow).
  static constexpr std::uint64_t kMaxCounter = 1ULL << 48;

  /// StableHash64 of CampaignSpec::ToString() — leases bind to a campaign.
  std::uint64_t spec_hash = 0;
  std::size_t chunk_index = 0;
  /// Claiming worker id (identifier alphabet: letters, digits, '-', '_').
  std::string owner;
  /// Claim count of this chunk, monotonically increasing across reclaims.
  std::uint64_t generation = 0;
  /// Refreshed by the owner while the chunk executes; a watcher that sees
  /// (generation, heartbeat) unchanged for lease_ttl declares the lease
  /// stale. A counter, not a timestamp: no cross-process clock is trusted.
  std::uint64_t heartbeat = 0;

  std::string Serialize() const;
  /// Strict inverse of Serialize(). Throws ShardError on truncated,
  /// version-mismatched, malformed, or out-of-bound input.
  static ShardLease Deserialize(const std::string& text);
};

/// The state directory's identity record: every worker (and the merge)
/// verifies its campaign spec and chunking against this before touching any
/// chunk, so two different campaigns can never interleave one directory.
struct ShardManifest {
  static constexpr unsigned kFormatVersion = 1;

  std::string spec_text;        ///< CampaignSpec::ToString()
  std::size_t chunk_cells = 0;  ///< grid cells per chunk (resolved, >= 1)
  std::size_t num_cells = 0;    ///< full grid size

  std::string Serialize() const;
  /// Throws ShardError on malformed input.
  static ShardManifest Deserialize(const std::string& text);
};

/// File names inside a shard state directory.
std::string ShardManifestFileName();
std::string ShardLeaseFileName(std::size_t chunk_index);
std::string ShardChunkResultFileName(std::size_t chunk_index);

/// Shard worker policy.
struct ShardOptions {
  /// Shared state directory (created on demand). Required.
  std::string state_directory;
  /// This worker's identity in lease files. Required; identifier alphabet
  /// (letters, digits, '-', '_'); reusing the id of a crashed worker is
  /// fine — a worker reclaims its own stale leases immediately.
  std::string worker_id;
  /// Grid cells per chunk. Part of the campaign's identity (all workers and
  /// the single-process reference must agree). 0 = the whole grid.
  std::size_t chunk_cells = 8;
  /// Engine autosave period in environment steps while executing a chunk
  /// (see CheckpointOptions::interval); snapshots land in the state
  /// directory where a reclaiming worker resumes them. 0 = save only at
  /// suspension.
  std::size_t checkpoint_interval = 0;
  /// Execute at most this many chunks, then return (0 = no limit). Chunks
  /// found already done don't count.
  std::size_t max_chunks = 0;
  /// A lease whose (generation, heartbeat) stays unchanged this long on the
  /// watcher's steady clock is stale and gets reclaimed.
  std::chrono::milliseconds lease_ttl{10000};
  /// How often the owner refreshes its heartbeat while executing.
  std::chrono::milliseconds heartbeat_period{2000};
  /// Sleep between scans while every remaining chunk is owned by live
  /// peers.
  std::chrono::milliseconds poll_period{250};
  /// When true (default), Run returns only once EVERY chunk has a result
  /// document — the worker polls peers' leases and reclaims stale ones, so
  /// any worker exiting successfully proves the directory is mergeable
  /// (until a Campaign::Run completing it removes its files). When false, Run returns as soon as no chunk is claimable.
  bool wait_for_completion = true;
};

/// What one ShardWorker::Run call did.
struct ShardRunReport {
  std::size_t chunks_executed = 0;   ///< chunks this worker completed
  std::size_t chunks_reclaimed = 0;  ///< of those, begun on a reclaimed lease
  std::size_t chunks_skipped = 0;    ///< found already done (any worker)
  std::size_t chunks_yielded = 0;    ///< abandoned after losing the lease
  /// Every chunk had a valid result document when Run returned.
  bool complete = false;
};

/// Claims and executes campaign chunks from a shared state directory.
/// Stateless between Run() calls; typically one ShardWorker per process,
/// many processes per campaign.
class ShardWorker {
 public:
  explicit ShardWorker(const Engine& engine) : engine_(&engine) {}

  /// Validates spec and options, writes-or-verifies the manifest, then
  /// loops: claim a chunk (virgin, stale, or torn lease), execute it
  /// through the engine (resuming any job snapshots a dead owner left),
  /// commit its result document, release the lease. Throws ShardError on
  /// unusable options, a foreign state directory or a manifest that
  /// vanished mid-run (another process completed the campaign); never
  /// throws on corrupt lease/result files (they are reclaimed).
  ShardRunReport Run(const CampaignSpec& spec,
                     const ShardOptions& options) const;

 private:
  const Engine* engine_;
};

/// Read-only snapshot of a shard state directory's progress. Disjoint
/// per-chunk categories: done + claimed + stale + unclaimed == num_chunks.
struct ShardStatusReport {
  std::size_t num_chunks = 0;
  /// Chunks with a valid result document for this campaign.
  std::size_t done = 0;
  /// Chunks with a parsable lease and no result — presumed live.
  std::size_t claimed = 0;
  /// Chunks with a torn/unparsable lease, or (when probed) a lease whose
  /// (generation, heartbeat) did not advance over the probe window.
  std::size_t stale = 0;
  /// Chunks with neither a lease nor a result.
  std::size_t unclaimed = 0;
  bool Complete() const noexcept { return done == num_chunks; }
};

/// Scans a shard state directory WITHOUT claiming, writing, or reclaiming
/// anything — safe to run next to live workers. With `probe` > 0 the
/// claimed leases are sampled twice, `probe` apart, and ones whose
/// heartbeat did not advance are reported stale (pick a probe longer than
/// the workers' heartbeat period, default 2000 ms, to avoid false
/// positives); with probe == 0 staleness covers only torn lease files.
/// Throws ShardError when the directory has no usable manifest.
ShardStatusReport ShardStatus(const std::string& state_directory,
                              std::chrono::milliseconds probe =
                                  std::chrono::milliseconds{0});

/// Folds every chunk result document of a completed sharded campaign into
/// one CampaignResult, in grid order — deterministic regardless of shard
/// count, interleaving, or crash/reclaim history, so
/// report::WriteCampaignJson/Csv of the merged result is byte-identical to
/// a single-process Campaign::Run of the manifest's spec and chunk size.
/// Each chunk index is folded exactly once (a chunk can never be
/// double-counted). Throws ShardError when the manifest is missing/invalid
/// or any chunk result is missing or unreadable (merge is strict where
/// workers are lenient: an incomplete campaign must not silently merge).
CampaignResult MergeShardedCampaign(const std::string& state_directory);

}  // namespace axdse::dse
