#include "dse/shard.hpp"

#include <fcntl.h>
#include <unistd.h>

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
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return false;
    throw ShardError("ShardWorker: cannot create lease " + path + ": " +
                     std::strerror(errno));
  }
  const std::size_t length =
      util::fault::ShortWriteLength("shard.lease.write", content.size());
  bool ok = true;
  std::size_t offset = 0;
  while (offset < length) {
    const ::ssize_t n = ::write(fd, content.data() + offset, length - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    offset += static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    std::error_code ec;
    fs::remove(path, ec);
    throw ShardError("ShardWorker: write failed for lease " + path);
  }
  return true;
}

void AtomicShardWrite(const std::string& path, const std::string& content,
                      const char* what) {
  try {
    AtomicWriteCheckpointFile(path, content, what);
  } catch (const CheckpointError& e) {
    throw ShardError(e.what());
  }
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

// --- worker -----------------------------------------------------------------

namespace {

/// Everything Run() resolves once up front and the per-chunk helpers share.
struct ShardContext {
  const Engine* engine = nullptr;
  ShardOptions options;
  std::vector<ExplorationRequest> grid;
  std::size_t chunk_cells = 0;
  std::size_t num_chunks = 0;
  std::string spec_text;
  std::uint64_t spec_hash = 0;

  std::string Path(const std::string& name) const {
    return (fs::path(options.state_directory) / name).string();
  }
  std::size_t FirstCell(std::size_t chunk) const {
    return chunk * chunk_cells;
  }
  std::vector<ExplorationRequest> Slice(std::size_t chunk) const {
    const std::size_t begin = FirstCell(chunk);
    const std::size_t end = std::min(begin + chunk_cells, grid.size());
    return {grid.begin() + static_cast<std::ptrdiff_t>(begin),
            grid.begin() + static_cast<std::ptrdiff_t>(end)};
  }
};

/// Last observation of a peer-owned lease, for staleness detection on this
/// process's steady clock.
struct LeaseObservation {
  bool observed = false;
  std::uint64_t generation = 0;
  std::uint64_t heartbeat = 0;
  Clock::time_point last_change;
};

enum class ClaimOutcome { kClaimed, kReclaimed, kOwnedByPeer, kForeign };

/// True when `path` holds a valid result document for `chunk` of THIS
/// campaign. Anything else — missing, torn, foreign, wrong slice — counts
/// as "no result": the worker re-executes and atomically overwrites, so a
/// corrupt file heals instead of wedging the campaign.
bool HasValidChunkResult(const ShardContext& ctx, std::size_t chunk) {
  const std::optional<std::string> text =
      util::ReadWholeFile(ctx.Path(ShardChunkResultFileName(chunk)));
  if (!text) return false;
  try {
    const CampaignChunkCheckpoint snapshot =
        CampaignChunkCheckpoint::Deserialize(*text);
    if (snapshot.spec_hash != ctx.spec_hash ||
        snapshot.chunk_index != chunk ||
        snapshot.first_cell != ctx.FirstCell(chunk))
      return false;
    const std::vector<ExplorationRequest> slice = ctx.Slice(chunk);
    if (snapshot.cells.size() != slice.size()) return false;
    for (std::size_t i = 0; i < slice.size(); ++i)
      if (snapshot.cells[i].request.ToString() != slice[i].ToString())
        return false;
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

/// One claim attempt on `chunk`. Never throws on corrupt files; throws
/// ShardError only on real IO failures and genuinely foreign leases.
ClaimOutcome TryClaim(const ShardContext& ctx, std::size_t chunk,
                      LeaseObservation& observation,
                      std::uint64_t& my_generation) {
  const std::string lease_path = ctx.Path(ShardLeaseFileName(chunk));
  const std::optional<std::string> text = util::ReadWholeFile(lease_path);
  if (!text) {
    ShardLease lease;
    lease.spec_hash = ctx.spec_hash;
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
  try {
    const ShardLease lease = ShardLease::Deserialize(*text);
    if (lease.spec_hash != ctx.spec_hash || lease.chunk_index != chunk)
      throw ShardError(
          "ShardWorker: lease " + lease_path +
          " belongs to a different campaign or chunk — the state directory "
          "is not this campaign's");
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
    if (stale) throw;  // the foreign-lease diagnosis above
    // Torn/truncated/zero-length/garbage lease: atomic writes make this
    // impossible from our own protocol, so treat it as external damage and
    // reclaim right away.
    next_generation = observation.generation + 1;
    stale = true;
  }
  if (!stale) return ClaimOutcome::kOwnedByPeer;

  ShardLease claim;
  claim.spec_hash = ctx.spec_hash;
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

/// Removes every engine snapshot of `slice`'s jobs (and their shared-cache
/// groups are keyed per run, so chunk re-execution regenerates them). Used
/// once when a resume hits a corrupt snapshot: drop and recompute beats
/// dying, and determinism makes the recomputed chunk byte-identical.
void RemoveEngineSnapshots(const ShardContext& ctx,
                           const std::vector<ExplorationRequest>& slice) {
  std::error_code ec;
  for (const ExplorationRequest& request : slice) {
    const std::string request_text = request.ToString();
    for (std::size_t s = 0; s < request.num_seeds; ++s)
      fs::remove(ctx.Path(JobCheckpointFileName(request_text,
                                                request.seed + s)),
                 ec);
  }
  for (const auto& entry :
       fs::directory_iterator(ctx.options.state_directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cache-", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".ckpt")
      fs::remove(entry.path(), ec);
  }
}

/// Executes one claimed chunk. Returns true when the chunk's result
/// document was committed; false when the lease was lost mid-run and the
/// chunk was cooperatively suspended for its new owner.
bool ExecuteChunk(const ShardContext& ctx, std::size_t chunk,
                  std::uint64_t my_generation) {
  const std::vector<ExplorationRequest> slice = ctx.Slice(chunk);
  const std::string lease_path = ctx.Path(ShardLeaseFileName(chunk));

  std::mutex heartbeat_mutex;
  Clock::time_point last_refresh = Clock::now();
  std::atomic<bool> lost{false};

  RunHooks hooks;
  hooks.interval = 128;
  hooks.on_progress = [&](const JobProgress&) {
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
    rewrite.spec_hash = ctx.spec_hash;
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
  hooks.should_suspend = [&] { return lost.load(std::memory_order_relaxed); };

  CheckpointOptions engine_checkpoint;
  engine_checkpoint.directory = ctx.options.state_directory;
  engine_checkpoint.interval = ctx.options.checkpoint_interval;

  BatchResult batch;
  try {
    batch = ctx.engine->Run(slice, engine_checkpoint, hooks);
  } catch (const CheckpointError&) {
    // A dead owner can't leave torn snapshots (writes are atomic+durable),
    // but external corruption can. Drop the chunk's snapshots and compute
    // it from scratch — determinism makes the result identical.
    RemoveEngineSnapshots(ctx, slice);
    batch = ctx.engine->Run(slice, engine_checkpoint, hooks);
  }
  if (!batch.Complete()) return false;  // lease lost, suspended for new owner

  util::fault::Point("shard.executed");

  CampaignChunkCheckpoint snapshot;
  snapshot.spec_hash = ctx.spec_hash;
  snapshot.chunk_index = chunk;
  snapshot.first_cell = ctx.FirstCell(chunk);
  snapshot.cells.reserve(batch.results.size());
  for (const RequestResult& result : batch.results)
    snapshot.cells.push_back(CampaignAggregator::Reduce(result));
  try {
    snapshot.Save(ctx.Path(ShardChunkResultFileName(chunk)));
  } catch (const CheckpointError& e) {
    throw ShardError(e.what());
  }
  util::fault::Point("shard.committed");

  std::error_code ec;
  fs::remove(lease_path, ec);  // best-effort; done-file checks win anyway
  return true;
}

void InitOrVerifyManifest(const ShardContext& ctx) {
  const std::string path = ctx.Path(ShardManifestFileName());
  ShardManifest mine;
  mine.spec_text = ctx.spec_text;
  mine.chunk_cells = ctx.chunk_cells;
  mine.num_cells = ctx.grid.size();
  if (!fs::exists(path))
    AtomicShardWrite(path, mine.Serialize(), "ShardManifest::Save");
  // Read back what actually won (racing writers of the SAME campaign write
  // identical bytes; a different campaign loses here, deterministically).
  const std::optional<std::string> text = util::ReadWholeFile(path);
  if (!text)
    throw ShardError("ShardWorker: cannot read manifest " + path);
  const ShardManifest on_disk = ShardManifest::Deserialize(*text);
  if (on_disk.spec_text != mine.spec_text ||
      on_disk.chunk_cells != mine.chunk_cells ||
      on_disk.num_cells != mine.num_cells)
    throw ShardError(
        "ShardWorker: state directory " + ctx.options.state_directory +
        " belongs to a different campaign or chunking (manifest spec/chunk "
        "mismatch) — use a fresh directory or the original spec and "
        "chunk_cells");
}

}  // namespace

ShardRunReport ShardWorker::Run(const CampaignSpec& spec,
                                const ShardOptions& options) const {
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
  spec.Validate();

  ShardContext ctx;
  ctx.engine = engine_;
  ctx.options = options;
  ctx.grid = spec.Expand();
  ctx.chunk_cells =
      options.chunk_cells == 0 ? ctx.grid.size() : options.chunk_cells;
  ctx.num_chunks = (ctx.grid.size() + ctx.chunk_cells - 1) / ctx.chunk_cells;
  ctx.spec_text = spec.ToString();
  ctx.spec_hash = StableHash64(ctx.spec_text);

  std::error_code ec;
  fs::create_directories(options.state_directory, ec);
  if (ec)
    throw ShardError("ShardWorker: cannot create state directory " +
                     options.state_directory + ": " + ec.message());
  InitOrVerifyManifest(ctx);

  ShardRunReport report;
  std::vector<bool> done(ctx.num_chunks, false);
  std::vector<LeaseObservation> observations(ctx.num_chunks);

  while (true) {
    bool all_done = true;
    bool progressed = false;
    for (std::size_t chunk = 0; chunk < ctx.num_chunks; ++chunk) {
      if (done[chunk]) continue;
      if (HasValidChunkResult(ctx, chunk)) {
        done[chunk] = true;
        ++report.chunks_skipped;
        progressed = true;
        continue;
      }
      all_done = false;
      if (options.max_chunks != 0 &&
          report.chunks_executed >= options.max_chunks)
        continue;
      std::uint64_t my_generation = 0;
      const ClaimOutcome claim =
          TryClaim(ctx, chunk, observations[chunk], my_generation);
      if (claim != ClaimOutcome::kClaimed &&
          claim != ClaimOutcome::kReclaimed)
        continue;
      if (ExecuteChunk(ctx, chunk, my_generation)) {
        done[chunk] = true;
        ++report.chunks_executed;
        if (claim == ClaimOutcome::kReclaimed) ++report.chunks_reclaimed;
      } else {
        ++report.chunks_yielded;
      }
      progressed = true;
    }
    if (all_done) {
      report.complete = true;
      break;
    }
    if (options.max_chunks != 0 &&
        report.chunks_executed >= options.max_chunks)
      break;
    if (!options.wait_for_completion && !progressed) break;
    if (!progressed) std::this_thread::sleep_for(options.poll_period);
  }
  return report;
}

// --- merge ------------------------------------------------------------------

CampaignResult MergeShardedCampaign(const std::string& state_directory) {
  const std::string manifest_path =
      (fs::path(state_directory) / ShardManifestFileName()).string();
  const std::optional<std::string> manifest_text =
      util::ReadWholeFile(manifest_path);
  if (!manifest_text)
    throw ShardError("MergeShardedCampaign: cannot read manifest " +
                     manifest_path);
  const ShardManifest manifest = ShardManifest::Deserialize(*manifest_text);

  CampaignSpec spec;
  try {
    spec = CampaignSpec::Parse(manifest.spec_text);
    spec.Validate();
  } catch (const std::invalid_argument& e) {
    throw ShardError(std::string("MergeShardedCampaign: manifest spec does "
                                 "not parse: ") +
                     e.what());
  }
  const std::vector<ExplorationRequest> grid = spec.Expand();
  if (grid.size() != manifest.num_cells)
    throw ShardError(
        "MergeShardedCampaign: manifest cell count does not match its spec");
  const std::uint64_t spec_hash = StableHash64(spec.ToString());
  const std::size_t num_chunks =
      (grid.size() + manifest.chunk_cells - 1) / manifest.chunk_cells;

  CampaignResult result;
  result.spec = spec;
  result.num_cells = grid.size();

  CampaignAggregator aggregator;
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const std::string path =
        (fs::path(state_directory) / ShardChunkResultFileName(chunk))
            .string();
    const std::optional<std::string> text = util::ReadWholeFile(path);
    if (!text)
      throw ShardError("MergeShardedCampaign: chunk " +
                       std::to_string(chunk) +
                       " has no result document (" + path +
                       ") — run a shard worker to completion first");
    CampaignChunkCheckpoint snapshot;
    try {
      snapshot = CampaignChunkCheckpoint::Deserialize(*text);
    } catch (const CheckpointError& e) {
      throw ShardError("MergeShardedCampaign: " + path + ": " + e.what());
    }
    const std::size_t first = chunk * manifest.chunk_cells;
    const std::size_t end =
        std::min(first + manifest.chunk_cells, grid.size());
    if (snapshot.spec_hash != spec_hash || snapshot.chunk_index != chunk ||
        snapshot.first_cell != first ||
        snapshot.cells.size() != end - first)
      throw ShardError("MergeShardedCampaign: " + path +
                       " belongs to a different campaign or chunking");
    for (std::size_t i = 0; i < snapshot.cells.size(); ++i)
      if (snapshot.cells[i].request.ToString() !=
          grid[first + i].ToString())
        throw ShardError("MergeShardedCampaign: " + path +
                         " does not match the expanded grid");
    for (CampaignCell& cell : snapshot.cells) aggregator.Add(std::move(cell));
  }

  result.cells = aggregator.Cells();
  result.fronts = aggregator.Fronts();
  result.best = aggregator.Best();
  return result;
}

// --- status -----------------------------------------------------------------

ShardStatusReport ShardStatus(const std::string& state_directory,
                              std::chrono::milliseconds probe) {
  const std::string manifest_path =
      (fs::path(state_directory) / ShardManifestFileName()).string();
  const std::optional<std::string> manifest_text =
      util::ReadWholeFile(manifest_path);
  if (!manifest_text)
    throw ShardError("ShardStatus: cannot read manifest " + manifest_path);
  const ShardManifest manifest = ShardManifest::Deserialize(*manifest_text);

  ShardContext ctx;
  ctx.options.state_directory = state_directory;
  try {
    CampaignSpec spec = CampaignSpec::Parse(manifest.spec_text);
    spec.Validate();
    ctx.grid = spec.Expand();
    ctx.spec_text = spec.ToString();
  } catch (const std::invalid_argument& e) {
    throw ShardError(
        std::string("ShardStatus: manifest spec does not parse: ") +
        e.what());
  }
  if (ctx.grid.size() != manifest.num_cells)
    throw ShardError(
        "ShardStatus: manifest cell count does not match its spec");
  ctx.chunk_cells = manifest.chunk_cells;
  ctx.num_chunks =
      (ctx.grid.size() + manifest.chunk_cells - 1) / manifest.chunk_cells;
  ctx.spec_hash = StableHash64(ctx.spec_text);

  ShardStatusReport report;
  report.num_chunks = ctx.num_chunks;

  // One read-only pass; claimed leases keep their counters for the probe.
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> claimed;
  for (std::size_t chunk = 0; chunk < ctx.num_chunks; ++chunk) {
    if (HasValidChunkResult(ctx, chunk)) {
      ++report.done;
      continue;
    }
    const std::optional<std::string> text =
        util::ReadWholeFile(ctx.Path(ShardLeaseFileName(chunk)));
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
      const std::optional<std::string> text =
          util::ReadWholeFile(ctx.Path(ShardLeaseFileName(chunk)));
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
