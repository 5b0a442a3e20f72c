#include "dse/shard.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/chunk_loop.hpp"
#include "util/fault_injection.hpp"
#include "util/record_io.hpp"

namespace axdse::dse {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

bool IsIdentifier(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_'))
      return false;
  return true;
}

/// O_EXCL claim of a virgin lease: kernel-level mutual exclusion between
/// racing first claimants. The content lands with write+fsync; a process
/// killed between create and write leaves a zero-length lease, which every
/// reader treats as torn (reclaimable), never as fatal.
bool TryExclusiveCreate(const std::string& path, const std::string& content) {
  const std::size_t length =
      util::fault::ShortWriteLength("shard.lease.write", content.size());
  if (WriteAndSyncFile(path, content, length, /*exclusive=*/true)) return true;
  if (errno == EEXIST) return false;
  const std::string reason = std::strerror(errno);
  std::error_code ec;
  fs::remove(path, ec);
  throw ShardError("ShardWorker: cannot write lease " + path + ": " + reason);
}

void AtomicShardWrite(const std::string& path, const std::string& content,
                      const char* what) {
  try {
    AtomicWriteCheckpointFile(path, content, what);
  } catch (const CheckpointError& e) {
    throw ShardError(e.what());
  }
}

std::string PathIn(const std::string& directory, const std::string& name) {
  return (fs::path(directory) / name).string();
}

/// Chunk `chunk`'s result document when it passes the plan's check. Anything
/// else — missing, torn, foreign, wrong slice — yields nullopt, with the
/// reason in `*problem` when asked: workers re-execute such a chunk and
/// atomically overwrite, so a corrupt file heals; the merge refuses it.
std::optional<CampaignChunkCheckpoint> ReadChunkResult(
    const ChunkPlan& plan, const std::string& directory, std::size_t chunk,
    std::string* problem = nullptr) {
  const std::string path = PathIn(directory, ShardChunkResultFileName(chunk));
  const std::optional<std::string> text = util::ReadWholeFile(path);
  std::string why = "chunk " + std::to_string(chunk) +
                    " has no result document (" + path +
                    ") — run a shard worker to completion first";
  if (text) {
    try {
      CampaignChunkCheckpoint result =
          CampaignChunkCheckpoint::Deserialize(*text);
      if (plan.Accepts(result, chunk)) return result;
      why = path + " belongs to a different campaign or chunking";
    } catch (const CheckpointError& e) {
      why = path + ": " + e.what();
    }
  }
  if (problem != nullptr) *problem = std::move(why);
  return std::nullopt;
}

}  // namespace

// --- on-disk formats --------------------------------------------------------

std::string ShardLease::Serialize() const {
  util::RecordWriter out("shard-lease", kFormatVersion);
  out.Line("lease")
      .Hex64(spec_hash)
      .U64(chunk_index)
      .Word(owner)
      .U64(generation)
      .U64(heartbeat);
  return out.End();
}

ShardLease ShardLease::Deserialize(const std::string& text) {
  return util::ParseRecords<ShardError>(
      text, "ShardLease", [](util::RecordReader& reader) {
        reader.ExpectHeader("shard-lease", kFormatVersion);
        util::RecordCursor cursor = reader.Expect("lease", 5);
        ShardLease lease;
        lease.spec_hash = cursor.Hex64("spec hash");
        lease.chunk_index = cursor.Size("chunk index");
        lease.owner = std::string(cursor.Word("owner"));
        if (!IsIdentifier(lease.owner)) cursor.Fail("malformed owner id");
        lease.generation = cursor.U64("generation");
        lease.heartbeat = cursor.U64("heartbeat");
        // "Future" counters beyond any value a real claim history can
        // produce are corruption; reject them so generation+1 arithmetic
        // can never overflow.
        if (lease.generation == 0 || lease.generation > kMaxCounter)
          cursor.Fail("generation out of bounds");
        if (lease.heartbeat > kMaxCounter) cursor.Fail("heartbeat out of bounds");
        reader.ExpectEnd();
        return lease;
      });
}

std::string ShardManifest::Serialize() const {
  util::RecordWriter out("shard-campaign", kFormatVersion);
  out.Line("chunks").U64(chunk_cells).U64(num_cells);
  out.Line("spec").Word(spec_text);
  return out.End();
}

ShardManifest ShardManifest::Deserialize(const std::string& text) {
  return util::ParseRecords<ShardError>(
      text, "ShardManifest", [](util::RecordReader& reader) {
        reader.ExpectHeader("shard-campaign", kFormatVersion);
        util::RecordCursor cursor = reader.Expect("chunks", 2);
        ShardManifest manifest;
        manifest.chunk_cells = cursor.Size("chunk cells");
        manifest.num_cells = cursor.Size("cell count");
        if (manifest.chunk_cells == 0) cursor.Fail("chunk cells must be >= 1");
        manifest.spec_text = std::string(reader.ExpectRest("spec"));
        reader.ExpectEnd();
        return manifest;
      });
}

std::string ShardManifestFileName() { return "campaign.manifest"; }

std::string ShardLeaseFileName(std::size_t chunk_index) {
  return "chunk-" + std::to_string(chunk_index) + ".lease";
}

std::string ShardChunkResultFileName(std::size_t chunk_index) {
  return "chunk-" + std::to_string(chunk_index) + ".done";
}

// --- chunk plan -------------------------------------------------------------

ChunkPlan::ChunkPlan(const CampaignSpec& campaign, std::size_t cells_per_chunk)
    : spec(campaign) {
  spec.Validate();
  grid = spec.Expand();
  spec_text = spec.ToString();
  spec_hash = StableHash64(spec_text);
  chunk_cells = cells_per_chunk == 0 ? grid.size() : cells_per_chunk;
  // A ceiling division that cannot wrap, whatever chunk_cells is.
  num_chunks = grid.size() / chunk_cells + (grid.size() % chunk_cells != 0);
}

std::size_t ChunkPlan::EndCell(std::size_t chunk) const {
  const std::size_t first = FirstCell(chunk);
  return first + std::min(chunk_cells, grid.size() - first);
}

std::vector<ExplorationRequest> ChunkPlan::Slice(std::size_t chunk) const {
  return {grid.begin() + static_cast<std::ptrdiff_t>(FirstCell(chunk)),
          grid.begin() + static_cast<std::ptrdiff_t>(EndCell(chunk))};
}

bool ChunkPlan::Accepts(const CampaignChunkCheckpoint& result,
                        std::size_t chunk) const {
  const std::size_t first = FirstCell(chunk);
  if (result.spec_hash != spec_hash || result.chunk_index != chunk ||
      result.first_cell != first ||
      result.cells.size() != EndCell(chunk) - first)
    return false;
  for (std::size_t i = 0; i < result.cells.size(); ++i)
    if (result.cells[i].request.ToString() != grid[first + i].ToString())
      return false;
  return true;
}

ChunkPlan LoadChunkPlan(const std::string& state_directory,
                        const std::string& who) {
  const std::string path = PathIn(state_directory, ShardManifestFileName());
  const std::optional<std::string> text = util::ReadWholeFile(path);
  if (!text) throw ShardError(who + ": cannot read manifest " + path);
  const ShardManifest manifest = ShardManifest::Deserialize(*text);
  try {
    ChunkPlan plan(CampaignSpec::Parse(manifest.spec_text),
                   manifest.chunk_cells);
    if (plan.grid.size() == manifest.num_cells) return plan;
  } catch (const std::invalid_argument& e) {
    throw ShardError(who + ": manifest spec does not parse: " + e.what());
  }
  throw ShardError(who + ": manifest cell count does not match its spec");
}

// --- worker -----------------------------------------------------------------

namespace {

/// Everything the chunk loop resolves once up front and its helpers share.
struct ShardContext {
  const Engine& engine;
  const ChunkPlan& plan;
  const ShardOptions& options;
  const ChunkLoopControl& control;
  std::string manifest;  ///< the serialized manifest the directory must hold

  std::string Path(const std::string& name) const {
    return PathIn(options.state_directory, name);
  }
};

bool ManifestIntact(const ShardContext& ctx) {
  return util::ReadWholeFile(ctx.Path(ShardManifestFileName())) ==
         ctx.manifest;
}

/// Checked on every claim and before every commit. A Campaign::Run that
/// completes the campaign removes the manifest before the result documents,
/// so a worker that finds a result gone and then the manifest gone knows
/// the campaign finished: it releases `lease_path` and stops instead of
/// recomputing into a directory nobody will merge.
void RequireManifest(const ShardContext& ctx, const std::string& lease_path) {
  if (ManifestIntact(ctx)) return;
  std::error_code ec;
  fs::remove(lease_path, ec);
  throw ShardError("ShardWorker: the manifest of " +
                   ctx.options.state_directory +
                   " vanished or changed — another process completed and "
                   "removed the campaign");
}

/// Last observation of a peer-owned lease, for staleness detection on this
/// process's steady clock.
struct LeaseObservation {
  bool observed = false;
  std::uint64_t generation = 0;
  std::uint64_t heartbeat = 0;
  Clock::time_point last_change;
};

enum class ClaimOutcome { kClaimed, kReclaimed, kOwnedByPeer };

/// One claim attempt on `chunk`. Never throws on corrupt files; throws
/// ShardError only on real IO failures and genuinely foreign leases.
ClaimOutcome TryClaim(const ShardContext& ctx, std::size_t chunk,
                      LeaseObservation& observation,
                      std::uint64_t& my_generation) {
  const std::string lease_path = ctx.Path(ShardLeaseFileName(chunk));
  const std::optional<std::string> text = util::ReadWholeFile(lease_path);
  if (!text) {
    ShardLease lease;
    lease.spec_hash = ctx.plan.spec_hash;
    lease.chunk_index = chunk;
    lease.owner = ctx.options.worker_id;
    lease.generation = 1;
    lease.heartbeat = 0;
    if (TryExclusiveCreate(lease_path, lease.Serialize())) {
      util::fault::Point("shard.claimed");
      my_generation = 1;
      return ClaimOutcome::kClaimed;
    }
    // Lost the O_EXCL race this instant; observe the winner next pass.
    return ClaimOutcome::kOwnedByPeer;
  }

  std::uint64_t next_generation = 0;
  bool stale = false;
  bool foreign = false;
  try {
    const ShardLease lease = ShardLease::Deserialize(*text);
    if (lease.spec_hash != ctx.plan.spec_hash || lease.chunk_index != chunk) {
      foreign = true;
      throw ShardError(
          "ShardWorker: lease " + lease_path +
          " belongs to a different campaign or chunk — the state directory "
          "is not this campaign's");
    }
    if (lease.owner == ctx.options.worker_id) {
      // Our own id on a lease we don't hold in this incarnation: a previous
      // process with this worker id died. Reclaim immediately — one live
      // process per worker id is the operator contract.
      next_generation = lease.generation + 1;
      stale = true;
    } else if (!observation.observed ||
               observation.generation != lease.generation ||
               observation.heartbeat != lease.heartbeat) {
      observation.observed = true;
      observation.generation = lease.generation;
      observation.heartbeat = lease.heartbeat;
      observation.last_change = Clock::now();
      return ClaimOutcome::kOwnedByPeer;
    } else if (Clock::now() - observation.last_change <
               ctx.options.lease_ttl) {
      return ClaimOutcome::kOwnedByPeer;
    } else {
      next_generation = lease.generation + 1;
      stale = true;
    }
  } catch (const ShardError&) {
    if (foreign) throw;  // the foreign-lease diagnosis above
    // Torn/truncated/zero-length/garbage lease: atomic writes make this
    // impossible from our own protocol, so treat it as external damage and
    // reclaim right away.
    next_generation = observation.generation + 1;
    stale = true;
  }
  if (!stale) return ClaimOutcome::kOwnedByPeer;

  ShardLease claim;
  claim.spec_hash = ctx.plan.spec_hash;
  claim.chunk_index = chunk;
  claim.owner = ctx.options.worker_id;
  claim.generation = next_generation;
  claim.heartbeat = 0;
  AtomicShardWrite(lease_path, claim.Serialize(), "ShardLease::Save");
  // Read-back: another reclaimer may have renamed over us in the same
  // window. Losing here is harmless (we simply don't execute); even the
  // residual both-read-back-success race only costs duplicate deterministic
  // work, never a wrong merge (results are committed atomically and folded
  // once per chunk index).
  const std::optional<std::string> confirm = util::ReadWholeFile(lease_path);
  if (!confirm) return ClaimOutcome::kOwnedByPeer;
  try {
    const ShardLease now_on_disk = ShardLease::Deserialize(*confirm);
    if (now_on_disk.owner != ctx.options.worker_id ||
        now_on_disk.generation != claim.generation)
      return ClaimOutcome::kOwnedByPeer;
  } catch (const ShardError&) {
    return ClaimOutcome::kOwnedByPeer;
  }
  util::fault::Point("shard.claimed");
  observation = LeaseObservation{};
  my_generation = claim.generation;
  return ClaimOutcome::kReclaimed;
}

/// Removes `slice`'s engine snapshots — its jobs' and its shared-cache
/// groups', never another chunk's. Used once when a resume hits a snapshot
/// that fails to load: drop and recompute beats dying, and determinism
/// makes the recomputed chunk byte-identical.
void RemoveEngineSnapshots(const ShardContext& ctx,
                           const std::vector<ExplorationRequest>& slice) {
  std::error_code ec;
  for (const std::string& name : BatchSnapshotFileNames(slice))
    fs::remove(ctx.Path(name), ec);
}

/// What ExecuteChunk did: committed the chunk's `result`, yielded the chunk
/// to the new owner of a lease lost mid-run, or suspended it on a step
/// budget or the caller's request (`unfinished_jobs`, lease released).
struct ChunkRun {
  std::optional<CampaignChunkCheckpoint> result;
  std::size_t unfinished_jobs = 0;
};

ChunkRun ExecuteChunk(const ShardContext& ctx, std::size_t chunk,
                      std::uint64_t my_generation) {
  const std::vector<ExplorationRequest> slice = ctx.plan.Slice(chunk);
  const std::string lease_path = ctx.Path(ShardLeaseFileName(chunk));

  std::mutex heartbeat_mutex;
  Clock::time_point last_refresh = Clock::now();
  std::atomic<bool> lost{false};

  const auto heartbeat = [&] {
    // Called from several engine workers; one refresher at a time, the
    // rest skip. Rate-limited to heartbeat_period even when a refresh
    // fails, so a wedged filesystem can't busy-loop us.
    std::unique_lock<std::mutex> lock(heartbeat_mutex, std::try_to_lock);
    if (!lock.owns_lock()) return;
    const Clock::time_point now = Clock::now();
    if (now - last_refresh < ctx.options.heartbeat_period) return;
    last_refresh = now;
    const std::optional<std::string> text = util::ReadWholeFile(lease_path);
    if (text) {
      try {
        const ShardLease on_disk = ShardLease::Deserialize(*text);
        if (on_disk.owner != ctx.options.worker_id ||
            on_disk.generation != my_generation) {
          lost.store(true, std::memory_order_relaxed);
          return;
        }
        ShardLease refreshed = on_disk;
        refreshed.heartbeat = on_disk.heartbeat + 1;
        util::fault::Point("shard.heartbeat");
        AtomicShardWrite(lease_path, refreshed.Serialize(),
                         "ShardLease::Save");
        return;
      } catch (const ShardError&) {
        // Torn or unwritable lease: fall through and rewrite our claim —
        // if a peer actually took it over, the next refresh sees them.
      }
    }
    ShardLease rewrite;
    rewrite.spec_hash = ctx.plan.spec_hash;
    rewrite.chunk_index = chunk;
    rewrite.owner = ctx.options.worker_id;
    rewrite.generation = my_generation;
    rewrite.heartbeat = 1;
    try {
      AtomicShardWrite(lease_path, rewrite.Serialize(), "ShardLease::Save");
    } catch (const ShardError&) {
      // Heartbeats are best-effort; a failed one only risks an early
      // reclaim, which is safe.
    }
  };

  const RunHooks& caller = ctx.control.hooks;
  RunHooks hooks = caller;  // cache_provider passes through
  if (hooks.interval == 0) hooks.interval = 128;
  hooks.on_progress = [&](const JobProgress& progress) {
    heartbeat();
    if (caller.on_progress) caller.on_progress(progress);
  };
  hooks.should_suspend = [&] {
    return lost.load(std::memory_order_relaxed) ||
           (caller.should_suspend && caller.should_suspend());
  };

  CheckpointOptions engine_checkpoint;
  engine_checkpoint.directory = ctx.options.state_directory;
  engine_checkpoint.interval = ctx.options.checkpoint_interval;
  engine_checkpoint.step_budget = ctx.control.step_budget;

  CampaignSlice run;
  try {
    run = RunCampaignSlice(ctx.engine, slice, engine_checkpoint, hooks);
  } catch (const CheckpointError&) {
    // A dead owner can't leave torn snapshots (writes are atomic+durable),
    // but external corruption can. Drop the chunk's snapshots and compute
    // it from scratch — determinism makes the result identical.
    RemoveEngineSnapshots(ctx, slice);
    run = RunCampaignSlice(ctx.engine, slice, engine_checkpoint, hooks);
  }
  ChunkRun outcome;
  std::error_code ec;
  if (run.unfinished_jobs != 0) {
    // A lost lease belongs to its new owner, who resumes the snapshots. A
    // budget or caller suspension leaves the chunk to whoever claims next.
    if (!lost.load(std::memory_order_relaxed)) {
      fs::remove(lease_path, ec);
      outcome.unfinished_jobs = run.unfinished_jobs;
    }
    return outcome;
  }

  util::fault::Point("shard.executed");

  RequireManifest(ctx, lease_path);
  CampaignChunkCheckpoint& snapshot = outcome.result.emplace();
  snapshot.spec_hash = ctx.plan.spec_hash;
  snapshot.chunk_index = chunk;
  snapshot.first_cell = ctx.plan.FirstCell(chunk);
  snapshot.cells = std::move(run.cells);
  AtomicShardWrite(ctx.Path(ShardChunkResultFileName(chunk)),
                   snapshot.Serialize(), "CampaignChunkCheckpoint::Save");
  util::fault::Point("shard.committed");

  fs::remove(lease_path, ec);  // best-effort; done-file checks win anyway
  return outcome;
}

void InitOrVerifyManifest(const ShardContext& ctx) {
  const std::string path = ctx.Path(ShardManifestFileName());
  if (!fs::exists(path))
    AtomicShardWrite(path, ctx.manifest, "ShardManifest::Save");
  // Read back what actually won (racing writers of the SAME campaign write
  // identical bytes; a different campaign loses here, deterministically).
  if (!ManifestIntact(ctx))
    throw ShardError(
        "ShardWorker: state directory " + ctx.options.state_directory +
        " belongs to a different campaign or chunking (manifest spec/chunk "
        "mismatch) — use a fresh directory or the original spec and "
        "chunk_cells");
}

}  // namespace

ChunkLoopReport RunChunkLoop(const Engine& engine, const ChunkPlan& plan,
                             const ShardOptions& options,
                             const ChunkLoopControl& control) {
  if (options.state_directory.empty())
    throw ShardError("ShardWorker: state_directory is required");
  if (!IsIdentifier(options.worker_id))
    throw ShardError(
        "ShardWorker: worker_id must be a non-empty identifier (letters, "
        "digits, '-', '_')");
  if (options.lease_ttl <= std::chrono::milliseconds::zero() ||
      options.heartbeat_period <= std::chrono::milliseconds::zero() ||
      options.poll_period <= std::chrono::milliseconds::zero())
    throw ShardError(
        "ShardWorker: lease_ttl, heartbeat_period, and poll_period must be "
        "positive");

  std::error_code ec;
  fs::create_directories(options.state_directory, ec);
  if (ec)
    throw ShardError("ShardWorker: cannot create state directory " +
                     options.state_directory + ": " + ec.message());
  ShardManifest manifest;
  manifest.spec_text = plan.spec_text;
  manifest.chunk_cells = plan.chunk_cells;
  manifest.num_cells = plan.grid.size();
  const ShardContext ctx{engine, plan, options, control, manifest.Serialize()};
  InitOrVerifyManifest(ctx);

  ChunkLoopReport loop;
  ShardRunReport& report = loop.shard;
  std::vector<bool> done(plan.num_chunks, false);
  std::vector<LeaseObservation> observations(plan.num_chunks);
  const auto budget_spent = [&] {
    return options.max_chunks != 0 &&
           report.chunks_executed >= options.max_chunks;
  };

  bool progressed = false;
  const auto found_done = [&](std::size_t chunk,
                              CampaignChunkCheckpoint result) {
    done[chunk] = true;
    ++report.chunks_skipped;
    progressed = true;
    if (control.on_result) control.on_result(std::move(result), true);
  };

  while (true) {
    bool all_done = true;
    progressed = false;
    for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
      if (done[chunk]) continue;
      if (std::optional<CampaignChunkCheckpoint> result =
              ReadChunkResult(plan, options.state_directory, chunk)) {
        found_done(chunk, std::move(*result));
        continue;
      }
      all_done = false;
      if (budget_spent()) continue;
      std::uint64_t my_generation = 0;
      const ClaimOutcome claim =
          TryClaim(ctx, chunk, observations[chunk], my_generation);
      if (claim != ClaimOutcome::kClaimed &&
          claim != ClaimOutcome::kReclaimed)
        continue;
      // Look again now that we hold the lease: the chunk's owner may have
      // committed it since the read above. A result missing now was never
      // written or went with a finished campaign, whose manifest went first.
      const std::string lease_path = ctx.Path(ShardLeaseFileName(chunk));
      if (std::optional<CampaignChunkCheckpoint> result =
              ReadChunkResult(plan, options.state_directory, chunk)) {
        fs::remove(lease_path, ec);
        found_done(chunk, std::move(*result));
        continue;
      }
      RequireManifest(ctx, lease_path);
      ChunkRun run = ExecuteChunk(ctx, chunk, my_generation);
      progressed = true;
      if (run.unfinished_jobs != 0) {
        loop.unfinished_jobs = run.unfinished_jobs;
        return loop;
      }
      if (!run.result) {
        ++report.chunks_yielded;
        continue;
      }
      done[chunk] = true;
      ++report.chunks_executed;
      if (claim == ClaimOutcome::kReclaimed) ++report.chunks_reclaimed;
      if (control.on_result) control.on_result(std::move(*run.result), false);
    }
    if (all_done) {
      report.complete = true;
      break;
    }
    if (budget_spent()) break;
    if (!progressed) {
      if (!options.wait_for_completion) break;
      const RunHooks& caller = control.hooks;
      if (caller.should_suspend && caller.should_suspend()) break;
      std::this_thread::sleep_for(options.poll_period);
    }
  }
  return loop;
}

ShardRunReport ShardWorker::Run(const CampaignSpec& spec,
                                const ShardOptions& options) const {
  return RunChunkLoop(*engine_, ChunkPlan(spec, options.chunk_cells), options,
                      ChunkLoopControl{})
      .shard;
}

// --- merge ------------------------------------------------------------------

CampaignResult MergeShardedCampaign(const std::string& state_directory) {
  const ChunkPlan plan = LoadChunkPlan(state_directory, "MergeShardedCampaign");
  CampaignAggregator aggregator;
  for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
    std::string problem;
    std::optional<CampaignChunkCheckpoint> result =
        ReadChunkResult(plan, state_directory, chunk, &problem);
    if (!result) throw ShardError("MergeShardedCampaign: " + problem);
    for (CampaignCell& cell : result->cells) aggregator.Add(std::move(cell));
  }

  CampaignResult result;
  result.spec = plan.spec;
  result.num_cells = plan.grid.size();
  result.cells = aggregator.Cells();
  result.fronts = aggregator.Fronts();
  result.best = aggregator.Best();
  return result;
}

// --- status -----------------------------------------------------------------

ShardStatusReport ShardStatus(const std::string& state_directory,
                              std::chrono::milliseconds probe) {
  const ChunkPlan plan = LoadChunkPlan(state_directory, "ShardStatus");
  ShardStatusReport report;
  report.num_chunks = plan.num_chunks;

  // One read-only pass; claimed leases keep their counters for the probe.
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> claimed;
  for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
    if (ReadChunkResult(plan, state_directory, chunk)) {
      ++report.done;
      continue;
    }
    const std::optional<std::string> text = util::ReadWholeFile(
        PathIn(state_directory, ShardLeaseFileName(chunk)));
    if (!text) {
      ++report.unclaimed;
      continue;
    }
    try {
      const ShardLease lease = ShardLease::Deserialize(*text);
      claimed.emplace(chunk,
                      std::make_pair(lease.generation, lease.heartbeat));
    } catch (const ShardError&) {
      ++report.stale;  // torn lease: reclaimable work
    }
  }

  if (probe.count() > 0 && !claimed.empty()) {
    // A claimed lease whose (generation, heartbeat) did not move over the
    // probe window has an owner that stopped heartbeating.
    std::this_thread::sleep_for(probe);
    for (const auto& [chunk, counters] : claimed) {
      const std::optional<std::string> text = util::ReadWholeFile(
          PathIn(state_directory, ShardLeaseFileName(chunk)));
      bool alive = false;
      if (text) {
        try {
          const ShardLease lease = ShardLease::Deserialize(*text);
          alive =
              std::make_pair(lease.generation, lease.heartbeat) != counters;
        } catch (const ShardError&) {
        }
      } else {
        // The lease vanished mid-probe: its owner just released it.
        alive = true;
      }
      if (alive)
        ++report.claimed;
      else
        ++report.stale;
    }
  } else {
    report.claimed = claimed.size();
  }
  return report;
}

}  // namespace axdse::dse
