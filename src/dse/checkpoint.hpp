#pragma once
// dse::Checkpoint — versioned, deterministic text snapshot of one
// (request, seed) exploration job. Exploration is a pure function of the
// request, the seed and the measurements the kernel returns, and the kernel
// runs are the only expensive part of a step, so a mid-run snapshot is the
// job's input log rather than a dump of its components: the identity
// (request, seed, agent kind), the number of steps taken, the evaluator's
// private memo (every ground-truth measurement seen) and its four cost
// counters. Explorer::ResumeFrom replays the steps on a fresh explorer,
// answering every ground-truth miss from the memo instead of the kernel or
// any shared cache; the agent's values and RNG, the environment's interning
// order, the trace, rewards and the surrogate model come back through the
// replay itself. The headline invariant: a run suspended at ANY step k and
// resumed from its checkpoint produces byte-identical solutions, traces,
// rewards, and JSON/CSV exports to the uninterrupted run — for every agent
// kind, cache mode, and worker count.
//
// A finished snapshot (Engine batch resume) holds the final
// ExplorationResult instead of the log, so a finished job is never run
// again.
//
// Format: a util::record_io document ("axdse-checkpoint v2"), strict field
// order, shortest-round-trip doubles. Anything unexpected — truncation,
// another version (a v1 snapshot included), reordered fields, NaN-injected
// values — raises CheckpointError from the parser, BEFORE any
// Explorer/Engine state is touched.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
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

/// One job's suspend/resume snapshot: the input log of a mid-run job, or
/// the result of a finished one.
struct Checkpoint {
  /// Bumped on any incompatible format change; loading another version
  /// throws CheckpointError naming it (format drift is pinned by the golden
  /// fixtures under tests/golden/).
  static constexpr unsigned kFormatVersion = 2;

  // --- identity ------------------------------------------------------------
  /// ExplorationRequest::ToString() of the run this snapshot belongs to
  /// (empty for standalone Explorer use; the Engine always fills and
  /// verifies it).
  std::string request;
  /// Absolute agent seed of the job (request seed + seed index).
  std::uint64_t seed = 0;
  /// ToString(AgentKind) of the suspended run; verified on resume.
  std::string agent_kind;
  /// True for a completed run persisted for batch resume: `result` is final
  /// and the mid-run fields below are empty.
  bool finished = false;

  // --- mid-run log -----------------------------------------------------------
  /// Environment steps taken (across episodes); the replay length.
  std::size_t steps = 0;
  /// The evaluator's private memo entries and counters.
  Evaluator::CacheState evaluator;

  // --- finished result -------------------------------------------------------
  ExplorationResult result;

  /// Deterministic text serialization: identical state => identical bytes
  /// (all unordered containers are sorted on the way out).
  std::string Serialize() const;

  /// Strict inverse of Serialize(). Throws CheckpointError (with a line
  /// number) on truncated, version-mismatched, reordered, NaN-injected, or
  /// otherwise malformed input.
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
