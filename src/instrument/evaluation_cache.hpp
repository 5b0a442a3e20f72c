#pragma once
// Memoizes configuration -> Measurement. The environment is deterministic
// per configuration (fixed kernel inputs, behavioral operators), so repeat
// visits during exploration — extremely common under ±1 / toggle actions —
// cost a hash lookup instead of a kernel run.
//
// Entries are nodes that never move: a pointer returned by Find() or
// Insert() stays valid until Clear() or the cache's destruction, and an
// Insert() over an existing key overwrites that entry in place. Callers
// may keep such pointers as handles (the DSE environment keeps one per
// interned state, so a revisit reads its measurement without hashing).

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "instrument/approx_selection.hpp"
#include "instrument/measurement.hpp"

namespace axdse::instrument {

/// Unbounded memo table with hit/miss statistics.
class EvaluationCache {
 public:
  /// The stored measurement, or nullptr on miss; counts a hit or a miss.
  const Measurement* Find(const ApproxSelection& key);

  /// Find() by value: a copy of the stored measurement, or std::nullopt.
  std::optional<Measurement> Lookup(const ApproxSelection& key);

  /// Inserts (or overwrites) the measurement for `key` and returns the
  /// stored entry. One hash; never counts a hit or a miss.
  const Measurement& Insert(const ApproxSelection& key,
                            const Measurement& value);

  /// Counts a hit that a caller served through a kept entry pointer
  /// instead of Find() — keeps Hits() what Find() would have made it.
  void CountHit() noexcept { ++hits_; }

  /// Number of distinct configurations stored.
  std::size_t Size() const noexcept { return map_.size(); }

  /// Lookup statistics.
  std::size_t Hits() const noexcept { return hits_; }
  std::size_t Misses() const noexcept { return misses_; }

  /// Drops all entries (invalidating every entry pointer) and statistics.
  void Clear() noexcept;

  /// Read access to the stored entries (for checkpointing; iteration order
  /// is unspecified — sort before serializing).
  const std::unordered_map<ApproxSelection, Measurement, ApproxSelection::Hash>&
  Entries() const noexcept {
    return map_;
  }

  /// Overwrites the hit/miss statistics (checkpoint restore: Insert() never
  /// touches them, so prewarming plus this call reproduces a suspended
  /// cache's observable state exactly).
  void RestoreStats(std::size_t hits, std::size_t misses) noexcept {
    hits_ = hits;
    misses_ = misses;
  }

 private:
  std::unordered_map<ApproxSelection, Measurement, ApproxSelection::Hash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace axdse::instrument
