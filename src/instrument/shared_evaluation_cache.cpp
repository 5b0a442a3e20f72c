#include "instrument/shared_evaluation_cache.hpp"

#include <sstream>

namespace axdse::instrument {

std::string CacheStats::ToString() const {
  std::ostringstream out;
  out << "hits=" << hits << " misses=" << misses << " inserts=" << inserts
      << " rejected=" << rejected << " size=" << size;
  return out.str();
}

SharedEvaluationCache::SharedEvaluationCache()
    : SharedEvaluationCache(Options{}) {}

SharedEvaluationCache::SharedEvaluationCache(const Options& options)
    : capacity_(options.capacity) {
  const std::size_t num_shards =
      options.num_shards == 0 ? 1 : options.num_shards;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // Distribute the bound so the per-shard bounds sum to exactly
    // capacity_ (the first capacity_ % num_shards shards take the
    // remainder; with capacity_ < num_shards some shards admit nothing).
    if (capacity_ > 0)
      shards_.back()->capacity =
          capacity_ / num_shards + (i < capacity_ % num_shards ? 1 : 0);
  }
}

SharedEvaluationCache::Shard& SharedEvaluationCache::ShardFor(
    const ApproxSelection& key) const {
  // The per-shard unordered_map uses ApproxSelection::Hash for its buckets;
  // remix the same hash (splitmix64 finalizer) so shard choice and bucket
  // choice stay decorrelated.
  std::uint64_t h = static_cast<std::uint64_t>(ApproxSelection::Hash{}(key));
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return *shards_[static_cast<std::size_t>(h % shards_.size())];
}

std::optional<Measurement> SharedEvaluationCache::Lookup(
    const ApproxSelection& key) {
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  return it->second;
}

bool SharedEvaluationCache::Insert(const ApproxSelection& key,
                                   const Measurement& value) {
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second = value;
    return true;
  }
  if (capacity_ > 0 && shard.map.size() >= shard.capacity) {
    ++shard.rejected;
    return false;
  }
  shard.map.emplace(key, value);
  ++shard.inserts;
  return true;
}

Measurement SharedEvaluationCache::FetchOrCompute(
    const ApproxSelection& key, const std::function<Measurement()>& compute,
    bool* computed) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mutex);
  bool waited = false;
  while (true) {
    // A computation we were blocked on may have failed: take our share of
    // its failure record first (so the record drains), but let a published
    // value win — measurements are pure, an Insert() racing the failure
    // carries exactly the bytes the failed computation was after.
    std::exception_ptr pending_error;
    if (waited) {
      if (const auto fit = shard.failures.find(key);
          fit != shard.failures.end()) {
        pending_error = fit->second.error;
        if (--fit->second.remaining == 0) shard.failures.erase(fit);
      }
    }
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      ++shard.hits;
      if (computed) *computed = false;
      return it->second;
    }
    if (pending_error) std::rethrow_exception(pending_error);
    if (capacity_ > 0 && shard.map.size() >= shard.capacity) {
      // The shard is full and entries are never evicted, so this key can
      // never be published: compute without in-flight coordination (waiting
      // on another computer would serialize callers for no benefit). Counts
      // as a miss only — `rejected` tracks admission refusals, and no
      // admission is attempted here.
      ++shard.misses;
      lock.unlock();
      const Measurement value = compute();
      if (computed) *computed = true;
      return value;
    }
    const auto flight = shard.in_flight.find(key);
    if (flight == shard.in_flight.end()) break;
    // Another thread is computing this key; its publish (or failure) wakes
    // us and we re-check. Register so a failure knows how many blocked
    // callers expect the error; deregister on wake (the entry may be gone —
    // or replaced by a later computation's — when the computer finished,
    // hence the guarded decrement).
    ++flight->second;
    waited = true;
    shard.ready.wait(lock);
    if (const auto after = shard.in_flight.find(key);
        after != shard.in_flight.end() && after->second > 0)
      --after->second;
  }
  ++shard.misses;
  shard.in_flight.emplace(key, 0);
  lock.unlock();

  Measurement value;
  try {
    value = compute();
  } catch (...) {
    lock.lock();
    // Leave the error for every caller currently blocked on this key —
    // they rethrow it instead of silently recomputing. Callers arriving
    // from now on find the key released and retry.
    std::size_t waiters = 0;
    if (const auto flight = shard.in_flight.find(key);
        flight != shard.in_flight.end()) {
      waiters = flight->second;
      shard.in_flight.erase(flight);
    }
    if (waiters > 0)
      shard.failures[key] = Shard::Failure{std::current_exception(), waiters};
    shard.ready.notify_all();
    throw;
  }

  lock.lock();
  shard.in_flight.erase(key);
  if (capacity_ > 0 && shard.map.size() >= shard.capacity) {
    // Full shard: the value is returned but not stored; a waiter finding
    // neither value nor in-flight marker recomputes (cost, never values).
    ++shard.rejected;
  } else if (shard.map.emplace(key, value).second) {
    // (emplace can be a no-op if a plain Insert raced us mid-compute; the
    // stored value is identical either way — measurements are pure.)
    ++shard.inserts;
  }
  shard.ready.notify_all();
  if (computed) *computed = true;
  return value;
}

std::size_t SharedEvaluationCache::Size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

std::size_t SharedEvaluationCache::Waiters(const ApproxSelection& key) const {
  const Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto flight = shard.in_flight.find(key);
  return flight == shard.in_flight.end() ? 0 : flight->second;
}

CacheStats SharedEvaluationCache::Stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.inserts += shard->inserts;
    stats.rejected += shard->rejected;
    stats.size += shard->map.size();
  }
  return stats;
}

std::vector<std::pair<ApproxSelection, Measurement>>
SharedEvaluationCache::Entries() const {
  std::vector<std::pair<ApproxSelection, Measurement>> entries;
  entries.reserve(Size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, value] : shard->map)
      entries.emplace_back(key, value);
  }
  return entries;
}

void SharedEvaluationCache::Restore(
    const std::vector<std::pair<ApproxSelection, Measurement>>& entries,
    const CacheStats& stats) {
  Clear();
  for (const auto& [key, value] : entries) {
    Shard& shard = ShardFor(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.emplace(key, value);
  }
  // The aggregate counters live in shard 0; Stats() sums over shards, so
  // the restored totals read back exactly.
  Shard& first = *shards_.front();
  const std::lock_guard<std::mutex> lock(first.mutex);
  first.hits = stats.hits;
  first.misses = stats.misses;
  first.inserts = stats.inserts;
  first.rejected = stats.rejected;
}

void SharedEvaluationCache::Clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
    shard->failures.clear();
    shard->hits = 0;
    shard->misses = 0;
    shard->inserts = 0;
    shard->rejected = 0;
  }
}

}  // namespace axdse::instrument
