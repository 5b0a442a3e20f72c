#pragma once
// dse::Checkpoint — versioned, deterministic text snapshot of one
// (request, seed) exploration job. Exploration is a pure function of the
// request, the seed and the measurements the kernel returns, and
// measurements are a pure function of the configuration, so a snapshot is
// the job's input log rather than a dump of its components: the identity
// (request, seed, agent kind), whether the run had finished, the number of
// steps taken, and how many evaluations the shared cache answered. Mid-run
// and finished jobs write the same few lines, whatever their length.
//
// Explorer::ResumeFrom replays the steps on a fresh explorer with the
// evaluator's shared cache detached, so every distinct configuration the
// run met is executed once more on the job's private cache. The agent's
// values and RNG, the environment's interning order, the trace, rewards,
// the surrogate model and the private hit/miss counters come back through
// the replay itself; the shared-hit count is the one number a private
// replay cannot reproduce, so it is re-applied from the log. The headline
// invariant: a run suspended at ANY step k and resumed from its checkpoint
// produces byte-identical solutions, traces, rewards, and JSON/CSV exports
// to the uninterrupted run — for every agent kind, cache mode, and worker
// count. The price is resume time: a replay re-executes at most the work
// done before the snapshot.
//
// Format: a util::record_io document ("axdse-checkpoint v3"), strict field
// order. Anything unexpected — truncation, another version (v1 and v2
// snapshots included), reordered fields, bad values — raises
// CheckpointError from the parser, BEFORE any Explorer/Engine state is
// touched.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/configuration.hpp"
#include "instrument/shared_evaluation_cache.hpp"
#include "util/record_io.hpp"

namespace axdse::dse {

/// Typed failure of checkpoint parsing, validation, replay, or file IO.
/// Parsing and validation throw before any exploration state is mutated: a
/// failed load leaves the Explorer/Engine exactly as it was. Only a replay
/// that diverges from its log throws after mutating (see
/// Explorer::ResumeFrom).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One job's suspend/resume snapshot: the input log of a mid-run or a
/// finished job.
struct Checkpoint {
  /// Bumped on any incompatible format change; loading another version
  /// throws CheckpointError naming it (format drift is pinned by the golden
  /// fixtures under tests/golden/).
  static constexpr unsigned kFormatVersion = 3;

  /// ExplorationRequest::ToString() of the run this snapshot belongs to
  /// (empty for standalone Explorer use; the Engine always fills and
  /// verifies it).
  std::string request;
  /// Absolute agent seed of the job (request seed + seed index).
  std::uint64_t seed = 0;
  /// ToString(AgentKind) of the run; verified on resume.
  std::string agent_kind;
  /// True when the run had finished (taken after Explorer::Finish()).
  bool finished = false;
  /// Environment steps taken (across episodes); the replay length.
  std::size_t steps = 0;
  /// Evaluations the shared cache answered (Evaluator::SharedHits()).
  std::size_t shared_hits = 0;

  /// Deterministic text serialization: identical state => identical bytes.
  std::string Serialize() const;

  /// Strict inverse of Serialize(). Throws CheckpointError (with a line
  /// number) on truncated, version-mismatched, reordered, or otherwise
  /// malformed input, and on a snapshot of zero steps.
  static Checkpoint Deserialize(const std::string& text);

  /// Atomically writes Serialize() to `path` (temp file + rename), creating
  /// parent directories. Throws CheckpointError on IO failure.
  void Save(const std::string& path) const;

  /// Reads and Deserializes `path`. Throws CheckpointError if the file is
  /// missing, unreadable, or malformed.
  static Checkpoint Load(const std::string& path);
};

/// Persisted state of one shared evaluation cache group, saved alongside the
/// job snapshots of a suspended batch so resumed cache statistics stay
/// byte-identical to the uninterrupted run's.
struct SharedCacheCheckpoint {
  static constexpr unsigned kFormatVersion = 1;

  /// The Engine's cache-group signature (see SharedCacheReport::signature).
  std::string signature;
  std::vector<std::pair<Configuration, instrument::Measurement>> entries;
  instrument::CacheStats stats;

  std::string Serialize() const;
  static SharedCacheCheckpoint Deserialize(const std::string& text);
  void Save(const std::string& path) const;
  static SharedCacheCheckpoint Load(const std::string& path);
};

/// The Configuration token layout every record format shares: adder index,
/// multiplier index, variable count, then the mask words. The reader fails
/// (through the cursor) on 32-bit overflow, a short mask, or a bit past the
/// variable count.
void WriteConfigRecord(util::RecordWriter& out, const Configuration& config);
Configuration ReadConfigRecord(util::RecordCursor& cursor);

/// Writes the first `length` bytes of `content` to `path` and fsyncs them.
/// `exclusive` fails with errno EEXIST instead of replacing a file. Returns
/// false on any IO failure; the caller unlinks what was left.
bool WriteAndSyncFile(const std::string& path, const std::string& content,
                      std::size_t length, bool exclusive = false);

/// Atomically AND durably writes `content` to `path`: unique temp file,
/// fsync of the temp fd BEFORE the rename (so the published file can never
/// be empty or truncated after a crash), rename, then fsync of the parent
/// directory (so power loss cannot forget the rename). Parent directories
/// are created on demand; partial temp files are unlinked on failure (e.g.
/// ENOSPC) before the CheckpointError surfaces. Shared by every snapshot
/// writer — job checkpoints, shared-cache state, campaign chunks, shard
/// leases — so they cannot diverge on durability protocol. `what` prefixes
/// CheckpointError messages.
void AtomicWriteCheckpointFile(const std::string& path,
                               const std::string& content, const char* what);

/// Reads `path` whole; throws CheckpointError (prefixed with `what`) when
/// the file is missing or unreadable.
std::string ReadCheckpointFile(const std::string& path, const char* what);

/// Stable (process- and platform-independent) FNV-1a 64-bit hash, used to
/// derive checkpoint file names from request serializations.
std::uint64_t StableHash64(const std::string& text) noexcept;

/// Snapshot file name of one job inside a checkpoint directory:
/// "job-<16 hex digits>.ckpt" over (request serialization, absolute seed).
std::string JobCheckpointFileName(const std::string& request_text,
                                  std::uint64_t seed);

/// Snapshot file name of one shared-cache group:
/// "cache-<16 hex digits>.ckpt" over the group signature.
std::string CacheCheckpointFileName(const std::string& signature);

}  // namespace axdse::dse
