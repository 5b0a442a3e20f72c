#pragma once
// Sharded concurrent configuration -> Measurement store, shared by every
// exploration job of one kernel identity inside a dse::Engine batch. The
// paper's RL explorer revisits configurations constantly (±1 / toggle
// actions walk a small neighborhood), and a multi-seed batch walks largely
// overlapping neighborhoods per seed — sharing one memo table across the
// batch removes almost all repeated kernel executions.
//
// Concurrency model: N shards, one mutex each, selected by a mixed key hash,
// so workers exploring disjoint regions rarely contend. FetchOrCompute() is
// the engine's hot path: it guarantees each missing key is computed by
// exactly ONE thread (others block until the value is published), which both
// avoids duplicate kernel runs and keeps the aggregate hit/miss/insert
// statistics deterministic for any worker count when the cache is unbounded.
//
// Capacity bound: optional, split evenly across shards, with deterministic
// admission — a full shard REJECTS new keys instead of evicting old ones.
// Entries are therefore immutable once admitted: because measurements are a
// pure function of the key, a bounded cache can only change *cost* (extra
// kernel runs), never *values*. With a bound, which keys win admission is
// scheduling-dependent, so only unbounded caches report scheduling-
// independent statistics (values stay identical either way).

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "instrument/approx_selection.hpp"
#include "instrument/measurement.hpp"

namespace axdse::instrument {

/// Aggregate cache statistics, summed over all shards.
struct CacheStats {
  std::size_t hits = 0;      ///< lookups answered from the store
  std::size_t misses = 0;    ///< lookups that found nothing (or computed)
  std::size_t inserts = 0;   ///< keys admitted into the store
  std::size_t rejected = 0;  ///< keys refused by the capacity bound
  std::size_t size = 0;      ///< entries currently stored

  std::string ToString() const;
};

/// Thread-safe sharded memo table. All public members may be called
/// concurrently from any number of threads.
class SharedEvaluationCache {
 public:
  struct Options {
    /// Shard count (>= 1; silently raised to 1). More shards = less mutex
    /// contention; 16 comfortably serves typical worker-pool sizes.
    std::size_t num_shards = 16;
    /// Total entry bound, distributed across shards so the per-shard bounds
    /// sum to exactly this value (0 = unbounded). Because keys hash to
    /// shards, an unlucky shard can fill (and reject) before the cache as a
    /// whole reaches the bound — the total is a hard ceiling, not a
    /// guarantee of reaching it.
    std::size_t capacity = 0;
  };

  /// Default options: 16 shards, unbounded.
  SharedEvaluationCache();
  explicit SharedEvaluationCache(const Options& options);

  /// Returns the cached measurement, or std::nullopt on miss. Counts one
  /// hit or miss.
  std::optional<Measurement> Lookup(const ApproxSelection& key);

  /// Stores `value` for `key`. An already-present key is overwritten in
  /// place (measurements are pure, so this never changes what readers see).
  /// A new key is admitted unless its shard is at capacity. Returns true
  /// when the value is stored, false when rejected by the capacity bound.
  bool Insert(const ApproxSelection& key, const Measurement& value);

  /// Returns the value for `key`, running `compute` to produce it on a miss.
  /// At most one thread computes a given key at a time; concurrent callers
  /// of the same key block until the value is published and then read it as
  /// a hit. If `compute` throws, the key is released and the exception
  /// propagates — to the computing caller directly, and to every caller
  /// already blocked on that key (each rethrows the same exception instead
  /// of silently recomputing; a value published concurrently by Insert()
  /// wins over the failure). Callers arriving after the failure retry the
  /// computation. `computed`, when non-null, is set to whether THIS call ran
  /// `compute`.
  Measurement FetchOrCompute(const ApproxSelection& key,
                             const std::function<Measurement()>& compute,
                             bool* computed = nullptr);

  /// Number of entries, summed over shards.
  std::size_t Size() const;

  /// Number of FetchOrCompute callers blocked on `key`'s in-flight
  /// computation (0 when none is in flight). A caller counted here
  /// receives that computation's value or its error.
  std::size_t Waiters(const ApproxSelection& key) const;

  /// Statistics aggregated across shards. Deterministic for any worker
  /// count when the cache is unbounded and populated via FetchOrCompute.
  CacheStats Stats() const;

  std::size_t NumShards() const noexcept { return shards_.size(); }
  std::size_t Capacity() const noexcept { return capacity_; }

  /// Drops all entries and statistics. Do not call concurrently with
  /// FetchOrCompute computations still in flight.
  void Clear();

  /// Copies out every stored entry (for checkpointing). Iteration order is
  /// unspecified — sort before serializing. Do not call with computations
  /// in flight.
  std::vector<std::pair<ApproxSelection, Measurement>> Entries() const;

  /// Replaces contents and counter statistics with a snapshot previously
  /// taken via Entries()/Stats(). Entries are admitted unconditionally
  /// (they were admitted once; re-applying the capacity bound here could
  /// silently drop them) and the aggregate counters are restored exactly
  /// (CacheStats::size is always recomputed from the stored entries). Only
  /// for quiescent caches — never call concurrently with other members.
  void Restore(const std::vector<std::pair<ApproxSelection, Measurement>>&
                   entries,
               const CacheStats& stats);

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable ready;
    std::unordered_map<ApproxSelection, Measurement, ApproxSelection::Hash>
        map;
    /// Keys currently being computed by some FetchOrCompute caller, mapped
    /// to the number of callers blocked waiting on the publish.
    std::unordered_map<ApproxSelection, std::size_t, ApproxSelection::Hash>
        in_flight;
    /// A computation that threw, pending delivery to the `remaining`
    /// callers that were blocked on it when it failed. Records are consumed
    /// (and erased once drained) by the woken waiters, so callers arriving
    /// later retry the computation instead of seeing a stale error.
    struct Failure {
      std::exception_ptr error;
      std::size_t remaining = 0;
    };
    std::unordered_map<ApproxSelection, Failure, ApproxSelection::Hash>
        failures;
    /// This shard's entry bound (0 = unbounded); shard bounds sum to the
    /// cache capacity.
    std::size_t capacity = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t inserts = 0;
    std::size_t rejected = 0;
  };

  Shard& ShardFor(const ApproxSelection& key) const;

  std::size_t capacity_ = 0;
  // unique_ptr: shards hold a mutex and must stay address-stable.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace axdse::instrument
