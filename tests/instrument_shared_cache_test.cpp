// Tests for instrument/shared_evaluation_cache: single-thread semantics,
// sharded statistics aggregation, deterministic capacity admission, the
// compute-once FetchOrCompute contract, and multi-threaded stress runs
// (8 threads, overlapping key sets) written to be ThreadSanitizer-friendly —
// plain std::thread + std::atomic, no sleeps or timing assumptions: a test
// that needs a caller blocked on an in-flight key waits until Waiters()
// counts it.

#include "instrument/shared_evaluation_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

namespace axdse::instrument {
namespace {

constexpr std::size_t kNumVariables = 70;  // spans two mask words

/// Deterministic distinct key for index `i` (< 256): bits 0-7 encode `i`
/// directly (injective), higher bits add pseudo-random spread across both
/// mask words so shard/bucket distribution is realistic.
ApproxSelection KeyOf(std::size_t i) {
  ApproxSelection key(kNumVariables);
  key.SetAdderIndex(static_cast<std::uint32_t>(i % 4));
  key.SetMultiplierIndex(static_cast<std::uint32_t>(i % 5));
  for (std::size_t bit = 0; bit < 8; ++bit)
    key.SetVariable(bit, (i >> bit) & 1ULL);
  for (std::size_t bit = 8; bit < kNumVariables; ++bit)
    key.SetVariable(bit, ((i * 2654435761ULL) >> (bit % 32)) & 1ULL);
  return key;
}

/// The (pure) value every thread stores for key `i` — integrity-checkable.
Measurement ValueOf(std::size_t i) {
  Measurement m;
  m.delta_acc = static_cast<double>(i) * 1.5;
  m.delta_power_mw = static_cast<double>(i) + 0.25;
  return m;
}

TEST(SharedEvaluationCache, MissesThenHitsAndAggregatesStats) {
  SharedEvaluationCache cache;
  EXPECT_EQ(cache.NumShards(), 16u);
  EXPECT_EQ(cache.Capacity(), 0u);
  EXPECT_FALSE(cache.Lookup(KeyOf(1)).has_value());
  EXPECT_TRUE(cache.Insert(KeyOf(1), ValueOf(1)));
  const auto hit = cache.Lookup(KeyOf(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->delta_acc, 1.5);

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(stats.ToString(),
            "hits=1 misses=1 inserts=1 rejected=0 size=1");
}

TEST(SharedEvaluationCache, KeysSpreadAcrossMultipleShards) {
  // Not a hard guarantee of uniformity — just that sharding is real: many
  // distinct keys must not all collapse into one shard's map.
  SharedEvaluationCache one_shard(SharedEvaluationCache::Options{1, 0});
  SharedEvaluationCache sharded(SharedEvaluationCache::Options{16, 64});
  for (std::size_t i = 0; i < 256; ++i) {
    one_shard.Insert(KeyOf(i), ValueOf(i));
    sharded.Insert(KeyOf(i), ValueOf(i));
  }
  EXPECT_EQ(one_shard.Size(), 256u);
  // 256 keys over 16 shards with a per-shard bound of 64/16 = 4: if all
  // keys landed in one shard only 4 would survive; a spread cache stores
  // far more — and never exceeds the exact total bound.
  EXPECT_GT(sharded.Size(), 16u);
  EXPECT_LE(sharded.Size(), sharded.Capacity());
}

TEST(SharedEvaluationCache, InsertOverwritesInPlaceWithoutGrowth) {
  SharedEvaluationCache cache;
  cache.Insert(KeyOf(3), ValueOf(3));
  cache.Insert(KeyOf(3), ValueOf(9));
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Stats().inserts, 1u);  // overwrite is not a new admission
  EXPECT_DOUBLE_EQ(cache.Lookup(KeyOf(3))->delta_acc, ValueOf(9).delta_acc);
}

TEST(SharedEvaluationCache, BoundedAdmissionRejectsInsteadOfEvicting) {
  // 1 shard + capacity 2: third distinct key is rejected, first two stay.
  SharedEvaluationCache cache(SharedEvaluationCache::Options{1, 2});
  EXPECT_TRUE(cache.Insert(KeyOf(0), ValueOf(0)));
  EXPECT_TRUE(cache.Insert(KeyOf(1), ValueOf(1)));
  EXPECT_FALSE(cache.Insert(KeyOf(2), ValueOf(2)));
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Stats().rejected, 1u);
  // Admitted entries are immutable residents — never evicted...
  EXPECT_DOUBLE_EQ(cache.Lookup(KeyOf(0))->delta_acc, 0.0);
  EXPECT_DOUBLE_EQ(cache.Lookup(KeyOf(1))->delta_acc, 1.5);
  // ...and overwrite of a resident key still works at capacity.
  EXPECT_TRUE(cache.Insert(KeyOf(1), ValueOf(7)));
}

TEST(SharedEvaluationCache, ClearResetsEntriesAndStats) {
  SharedEvaluationCache cache;
  cache.Insert(KeyOf(0), ValueOf(0));
  cache.Lookup(KeyOf(0));
  cache.Lookup(KeyOf(5));
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts + stats.rejected, 0u);
  EXPECT_FALSE(cache.Lookup(KeyOf(0)).has_value());
}

TEST(SharedEvaluationCache, FetchOrComputeRunsComputeOnlyOnMiss) {
  SharedEvaluationCache cache;
  bool computed = false;
  const Measurement first =
      cache.FetchOrCompute(KeyOf(4), [] { return ValueOf(4); }, &computed);
  EXPECT_TRUE(computed);
  EXPECT_DOUBLE_EQ(first.delta_acc, ValueOf(4).delta_acc);
  const Measurement second = cache.FetchOrCompute(
      KeyOf(4),
      []() -> Measurement {
        throw std::logic_error("must not recompute a cached key");
      },
      &computed);
  EXPECT_FALSE(computed);
  EXPECT_DOUBLE_EQ(second.delta_acc, ValueOf(4).delta_acc);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(SharedEvaluationCache, FetchOrComputeReleasesKeyWhenComputeThrows) {
  SharedEvaluationCache cache;
  EXPECT_THROW(cache.FetchOrCompute(
                   KeyOf(6),
                   []() -> Measurement { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The key is released, not wedged: the next caller computes it.
  bool computed = false;
  cache.FetchOrCompute(KeyOf(6), [] { return ValueOf(6); }, &computed);
  EXPECT_TRUE(computed);
  EXPECT_DOUBLE_EQ(cache.Lookup(KeyOf(6))->delta_acc, ValueOf(6).delta_acc);
}

TEST(SharedEvaluationCache, FetchOrComputeFailurePropagatesToBlockedWaiters) {
  // Regression: callers blocked on an in-flight key used to be woken with no
  // record of the computer's failure and silently recomputed (or, worse, a
  // bare catch swallowed the error entirely). A waiter that was blocked when
  // the compute threw must rethrow that same error — without ever running
  // its own compute. The computer fails only once Waiters() counts the
  // waiter as blocked, so a regression fails on every run.
  SharedEvaluationCache cache;
  std::atomic<bool> waiter_launched{false};
  std::atomic<std::size_t> waiter_compute_runs{0};
  std::exception_ptr waiter_error;

  std::thread waiter([&] {
    while (!waiter_launched.load(std::memory_order_acquire)) {
    }
    try {
      cache.FetchOrCompute(KeyOf(8), [&]() -> Measurement {
        waiter_compute_runs.fetch_add(1, std::memory_order_relaxed);
        return ValueOf(8);
      });
    } catch (...) {
      waiter_error = std::current_exception();
    }
  });

  EXPECT_THROW(
      cache.FetchOrCompute(KeyOf(8),
                           [&]() -> Measurement {
                             // We hold the in-flight slot; release the waiter
                             // and fail once it is blocked on the key.
                             waiter_launched.store(
                                 true, std::memory_order_release);
                             while (cache.Waiters(KeyOf(8)) == 0)
                               std::this_thread::yield();
                             throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  waiter.join();

  EXPECT_EQ(cache.Waiters(KeyOf(8)), 0u);  // nothing in flight any more
  EXPECT_EQ(waiter_compute_runs.load(), 0u);
  ASSERT_TRUE(waiter_error);
  try {
    std::rethrow_exception(waiter_error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  } catch (...) {
    FAIL() << "waiter saw a different exception type";
  }
  // The failure record drains with its waiters; the key is not wedged and
  // carries no stale error for later arrivals.
  bool computed = false;
  const Measurement value =
      cache.FetchOrCompute(KeyOf(8), [] { return ValueOf(8); }, &computed);
  EXPECT_TRUE(computed);
  EXPECT_DOUBLE_EQ(value.delta_acc, ValueOf(8).delta_acc);
}

// ---------------------------------------------------------------------------
// Concurrency stress
// ---------------------------------------------------------------------------

constexpr std::size_t kThreads = 8;
constexpr std::size_t kKeys = 192;
constexpr std::size_t kRounds = 40;

TEST(SharedEvaluationCacheStress, LookupInsertFromEightThreads) {
  SharedEvaluationCache cache;
  std::atomic<std::size_t> lookups{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache, &lookups, t] {
      // Every thread sweeps the full key set from a different offset and
      // stride, so key sets overlap heavily but access orders differ.
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          const std::size_t i = (k * (2 * t + 1) + round + t) % kKeys;
          lookups.fetch_add(1, std::memory_order_relaxed);
          const auto found = cache.Lookup(KeyOf(i));
          if (found.has_value()) {
            // Value integrity: whoever inserted it, it is THE value of i.
            ASSERT_DOUBLE_EQ(found->delta_acc, ValueOf(i).delta_acc);
            ASSERT_DOUBLE_EQ(found->delta_power_mw, ValueOf(i).delta_power_mw);
          } else {
            ASSERT_TRUE(cache.Insert(KeyOf(i), ValueOf(i)));
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  // Final size: exactly the distinct key set.
  EXPECT_EQ(cache.Size(), kKeys);
  const CacheStats stats = cache.Stats();
  // Hit+miss bookkeeping is consistent: every lookup counted exactly once.
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.size, kKeys);
  EXPECT_EQ(stats.rejected, 0u);
  // Unbounded inserts only ever admit new keys; racing duplicate inserts
  // overwrite in place, so admissions == distinct keys.
  EXPECT_EQ(stats.inserts, kKeys);
  for (std::size_t i = 0; i < kKeys; ++i)
    EXPECT_DOUBLE_EQ(cache.Lookup(KeyOf(i))->delta_acc, ValueOf(i).delta_acc);
}

TEST(SharedEvaluationCacheStress, FetchOrComputeComputesEachKeyExactlyOnce) {
  SharedEvaluationCache cache;
  std::vector<std::atomic<std::size_t>> compute_counts(kKeys);
  std::atomic<std::size_t> calls{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          const std::size_t i = (k + t * 11) % kKeys;
          calls.fetch_add(1, std::memory_order_relaxed);
          const Measurement value = cache.FetchOrCompute(KeyOf(i), [&, i] {
            compute_counts[i].fetch_add(1, std::memory_order_relaxed);
            return ValueOf(i);
          });
          ASSERT_DOUBLE_EQ(value.delta_acc, ValueOf(i).delta_acc);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  // The compute-once contract, under contention: no duplicate kernel runs.
  for (std::size_t i = 0; i < kKeys; ++i)
    EXPECT_EQ(compute_counts[i].load(), 1u) << "key " << i;
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits, calls.load() - kKeys);
  EXPECT_EQ(stats.inserts, kKeys);
  EXPECT_EQ(cache.Size(), kKeys);
}

TEST(SharedEvaluationCacheStress, BoundedCacheStaysCorrectUnderContention) {
  // Tiny bound: most keys are rejected, values must still always be right.
  SharedEvaluationCache cache(SharedEvaluationCache::Options{4, 8});
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t round = 0; round < 8; ++round) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          const std::size_t i = (k + t * 17) % kKeys;
          const Measurement value =
              cache.FetchOrCompute(KeyOf(i), [i] { return ValueOf(i); });
          ASSERT_DOUBLE_EQ(value.delta_acc, ValueOf(i).delta_acc);
          if (const auto found = cache.Lookup(KeyOf(i)); found.has_value()) {
            ASSERT_DOUBLE_EQ(found->delta_acc, ValueOf(i).delta_acc);
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  // The admission bound held: per-shard bounds sum to the exact capacity.
  EXPECT_LE(cache.Size(), cache.Capacity());
  EXPECT_GT(cache.Size(), 0u);
  // Far more distinct keys than capacity: most lookups missed and
  // recomputed without ever being admitted.
  EXPECT_GT(cache.Stats().misses, cache.Stats().inserts);
}

}  // namespace
}  // namespace axdse::instrument
