#include "dse/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <limits>

#include <fcntl.h>
#include <unistd.h>

#include "util/fault_injection.hpp"

namespace axdse::dse {

namespace {

// --------------------------------------------------------------------------
// Schema pieces of shared-cache snapshots: the Measurement token layout and
// the sorted cache-entry lines.
// --------------------------------------------------------------------------

void WriteMeasurement(util::RecordWriter& out,
                      const instrument::Measurement& m) {
  out.Double(m.delta_acc)
      .Double(m.delta_power_mw)
      .Double(m.delta_time_ns)
      .Double(m.precise_power_mw)
      .Double(m.precise_time_ns)
      .Double(m.approx_power_mw)
      .Double(m.approx_time_ns)
      .U64(m.counts.precise_adds)
      .U64(m.counts.approx_adds)
      .U64(m.counts.precise_muls)
      .U64(m.counts.approx_muls);
}

// Raw measurement fields take Any(): a kernel with undefined outputs can
// legitimately produce NaN (and the writer then emits it), so the reader
// must accept exactly what the writer wrote.
instrument::Measurement ReadMeasurement(util::RecordCursor& cursor) {
  instrument::Measurement m;
  m.delta_acc = cursor.Any("measurement delta_acc");
  m.delta_power_mw = cursor.Any("measurement delta_power_mw");
  m.delta_time_ns = cursor.Any("measurement delta_time_ns");
  m.precise_power_mw = cursor.Any("measurement precise_power_mw");
  m.precise_time_ns = cursor.Any("measurement precise_time_ns");
  m.approx_power_mw = cursor.Any("measurement approx_power_mw");
  m.approx_time_ns = cursor.Any("measurement approx_time_ns");
  m.counts.precise_adds = cursor.U64("measurement precise_adds");
  m.counts.approx_adds = cursor.U64("measurement approx_adds");
  m.counts.precise_muls = cursor.U64("measurement precise_muls");
  m.counts.approx_muls = cursor.U64("measurement approx_muls");
  return m;
}

/// Deterministic order for cache entries: by (adder, multiplier, mask).
bool ConfigLess(const Configuration& a, const Configuration& b) {
  if (a.AdderIndex() != b.AdderIndex()) return a.AdderIndex() < b.AdderIndex();
  if (a.MultiplierIndex() != b.MultiplierIndex())
    return a.MultiplierIndex() < b.MultiplierIndex();
  if (a.NumVariables() != b.NumVariables())
    return a.NumVariables() < b.NumVariables();
  return a.MaskWords() < b.MaskWords();
}

using Entries = std::vector<std::pair<Configuration, instrument::Measurement>>;

/// Writes `entries` sorted, one "<tag> <config> <measurement>" line each.
void WriteEntries(util::RecordWriter& out, const char* tag, Entries entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return ConfigLess(a.first, b.first);
            });
  for (const auto& [config, measurement] : entries) {
    WriteConfigRecord(out.Line(tag), config);
    WriteMeasurement(out, measurement);
  }
}

Entries ReadEntries(util::RecordReader& reader, const char* tag,
                    std::size_t count) {
  Entries entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::RecordCursor cursor = reader.Expect(tag);
    Configuration config = ReadConfigRecord(cursor);
    const instrument::Measurement measurement = ReadMeasurement(cursor);
    cursor.Done("cache entry");
    entries.emplace_back(std::move(config), measurement);
  }
  return entries;
}

}  // namespace

// --------------------------------------------------------------------------
// Configuration token codec
// --------------------------------------------------------------------------

void WriteConfigRecord(util::RecordWriter& out, const Configuration& config) {
  out.U64(config.AdderIndex())
      .U64(config.MultiplierIndex())
      .U64(config.NumVariables());
  for (const std::uint64_t word : config.MaskWords()) out.U64(word);
}

Configuration ReadConfigRecord(util::RecordCursor& cursor) {
  const std::uint64_t adder = cursor.U64("config adder index");
  const std::uint64_t multiplier = cursor.U64("config multiplier index");
  // Operator indices are stored as 32-bit values; a wider token is
  // corruption and must fail loudly, not truncate to a different (and
  // possibly in-range) configuration.
  if (adder > std::numeric_limits<std::uint32_t>::max() ||
      multiplier > std::numeric_limits<std::uint32_t>::max())
    cursor.Fail("config operator index exceeds 32 bits");
  const std::size_t num_variables = cursor.Size("config variable count");
  // Checked before constructing: a corrupt count must not size the mask.
  const std::size_t num_words = num_variables / 64 + (num_variables % 64 != 0);
  if (num_words > cursor.Remaining()) cursor.Fail("config mask is truncated");
  Configuration config(num_variables);
  config.SetAdderIndex(static_cast<std::uint32_t>(adder));
  config.SetMultiplierIndex(static_cast<std::uint32_t>(multiplier));
  for (std::size_t w = 0; w < num_words; ++w) {
    const std::uint64_t word = cursor.U64("config mask word");
    for (std::size_t b = 0; b < 64; ++b) {
      if ((word >> b) & 1ULL) {
        const std::size_t variable = w * 64 + b;
        if (variable >= num_variables)
          cursor.Fail("config mask sets a bit beyond the variable count");
        config.SetVariable(variable, true);
      }
    }
  }
  return config;
}

// --------------------------------------------------------------------------
// File IO: durable atomic write (temp + fsync + rename + directory fsync),
// whole-file read.
// --------------------------------------------------------------------------

bool WriteAndSyncFile(const std::string& path, const std::string& content,
                      std::size_t length, bool exclusive) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC |
                            (exclusive ? O_EXCL : O_TRUNC),
                        0644);
  if (fd < 0) return false;
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
  // A snapshot is only "committed" once its bytes are on stable storage:
  // without this fsync a crash after the rename could publish an empty or
  // truncated file under the final name.
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

namespace {

/// Flushes a directory entry (the rename) to stable storage; without it a
/// power cut can forget that the snapshot file exists at all.
bool SyncDirectory(const std::filesystem::path& directory) {
  const int fd = ::open(directory.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

void AtomicWriteCheckpointFile(const std::string& path,
                               const std::string& content, const char* what) {
  namespace fs = std::filesystem;
  // Unique temp name per write: concurrent saves of the same target must
  // not clobber each other's temp file — each rename then atomically
  // installs a complete snapshot and the last writer wins. The pid keeps
  // the name unique across PROCESSES too (shard workers racing on one
  // state directory), the counter within a process (e.g. duplicate
  // (request, seed) jobs in one batch).
  static std::atomic<std::uint64_t> counter{0};
  try {
    const fs::path target(path);
    if (target.has_parent_path()) fs::create_directories(target.parent_path());
    const fs::path temp(path + ".tmp" + std::to_string(::getpid()) + "." +
                        std::to_string(counter.fetch_add(1)));
    try {
      // Fault-injection hook: a `:short` action on "checkpoint.write"
      // truncates this write, modeling the torn file a crash mid-write (or
      // a missing fsync) would have left visible under the final name.
      const std::size_t length =
          util::fault::ShortWriteLength("checkpoint.write", content.size());
      if (!WriteAndSyncFile(temp.string(), content, length)) {
        throw CheckpointError(std::string(what) + ": write failed for " +
                              temp.string());
      }
      util::fault::Point("checkpoint.before-rename");
      fs::rename(temp, target);
      util::fault::Point("checkpoint.after-rename");
      if (!SyncDirectory(target.has_parent_path() ? target.parent_path()
                                                  : fs::path("."))) {
        throw CheckpointError(std::string(what) +
                              ": cannot sync parent directory of " + path);
      }
    } catch (...) {
      // Never leave a partial temp file behind (e.g. disk full mid-write);
      // the completion cleanup only knows the real snapshot names.
      std::error_code ec;
      fs::remove(temp, ec);
      throw;
    }
  } catch (const fs::filesystem_error& error) {
    throw CheckpointError(std::string(what) + ": " + error.what());
  }
}

std::string ReadCheckpointFile(const std::string& path, const char* what) {
  std::optional<std::string> content = util::ReadWholeFile(path);
  if (!content)
    throw CheckpointError(std::string(what) + ": cannot read " + path);
  return std::move(*content);
}

// --------------------------------------------------------------------------
// Checkpoint
// --------------------------------------------------------------------------

std::string Checkpoint::Serialize() const {
  util::RecordWriter out("checkpoint", kFormatVersion);
  out.Line("request").Text(request);
  out.Line("seed").U64(seed);
  out.Line("agent-kind").Text(agent_kind);
  out.Line("finished").Flag(finished);
  out.Line("steps").U64(steps);
  out.Line("shared-hits").U64(shared_hits);
  return out.End();
}

Checkpoint Checkpoint::Deserialize(const std::string& text) {
  Checkpoint checkpoint = util::ParseRecords<CheckpointError>(
      text, "checkpoint", [](util::RecordReader& reader) {
        Checkpoint c;
        reader.ExpectHeader("checkpoint", kFormatVersion);
        c.request = reader.Expect("request", 1).Text("request");
        c.seed = reader.Expect("seed", 1).U64("seed");
        c.agent_kind = reader.Expect("agent-kind", 1).Text("agent kind");
        c.finished = reader.Expect("finished", 1).Flag("finished flag");
        c.steps = reader.Expect("steps", 1).Size("steps");
        c.shared_hits = reader.Expect("shared-hits", 1).Size("shared hits");
        reader.ExpectEnd();
        return c;
      });
  // Every run a snapshot is taken of has stepped at least once.
  if (checkpoint.steps == 0)
    throw CheckpointError("checkpoint inconsistent: snapshot has taken no steps");
  return checkpoint;
}

void Checkpoint::Save(const std::string& path) const {
  AtomicWriteCheckpointFile(path, Serialize(), "Checkpoint::Save");
}

Checkpoint Checkpoint::Load(const std::string& path) {
  return Deserialize(ReadCheckpointFile(path, "Checkpoint::Load"));
}

// --------------------------------------------------------------------------
// SharedCacheCheckpoint
// --------------------------------------------------------------------------

std::string SharedCacheCheckpoint::Serialize() const {
  util::RecordWriter out("cache", kFormatVersion);
  out.Line("signature").Text(signature);
  out.Line("stats")
      .U64(stats.hits)
      .U64(stats.misses)
      .U64(stats.inserts)
      .U64(stats.rejected)
      .U64(stats.size);
  out.Line("entries").U64(entries.size());
  WriteEntries(out, "e", entries);
  return out.End();
}

SharedCacheCheckpoint SharedCacheCheckpoint::Deserialize(
    const std::string& text) {
  SharedCacheCheckpoint checkpoint = util::ParseRecords<CheckpointError>(
      text, "cache checkpoint", [](util::RecordReader& reader) {
        SharedCacheCheckpoint c;
        reader.ExpectHeader("cache", kFormatVersion);
        c.signature = reader.Expect("signature", 1).Text("signature");
        {
          util::RecordCursor cursor = reader.Expect("stats", 5);
          c.stats.hits = cursor.Size("cache stats hits");
          c.stats.misses = cursor.Size("cache stats misses");
          c.stats.inserts = cursor.Size("cache stats inserts");
          c.stats.rejected = cursor.Size("cache stats rejected");
          c.stats.size = cursor.Size("cache stats size");
        }
        const std::size_t count =
            reader.Expect("entries", 1).Count("cache entry count");
        c.entries = ReadEntries(reader, "e", count);
        reader.ExpectEnd();
        return c;
      });
  if (checkpoint.stats.size != checkpoint.entries.size())
    throw CheckpointError(
        "cache checkpoint inconsistent: stored size does not match entries");
  return checkpoint;
}

void SharedCacheCheckpoint::Save(const std::string& path) const {
  AtomicWriteCheckpointFile(path, Serialize(), "SharedCacheCheckpoint::Save");
}

SharedCacheCheckpoint SharedCacheCheckpoint::Load(const std::string& path) {
  return SharedCacheCheckpoint::Deserialize(
      ReadCheckpointFile(path, "SharedCacheCheckpoint::Load"));
}

// --------------------------------------------------------------------------
// File naming
// --------------------------------------------------------------------------

std::uint64_t StableHash64(const std::string& text) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

std::string JobCheckpointFileName(const std::string& request_text,
                                  std::uint64_t seed) {
  return "job-" +
         util::Hex16(StableHash64(request_text + "#" + std::to_string(seed))) +
         ".ckpt";
}

std::string CacheCheckpointFileName(const std::string& signature) {
  return "cache-" + util::Hex16(StableHash64(signature)) + ".ckpt";
}

}  // namespace axdse::dse
