// Unit tests of the service tier's stage-1 sample cache: lookup/publish
// policy (min-rows coverage, keep-the-bigger-sample), LRU capacity
// eviction, partition-key isolation (a partition's snapshot never
// serves another partition), generation matching (a hit only at the
// entry's own generation, a miss with no LRU tick at any other),
// counter reconciliation (lookups == hits + misses always), and a
// multi-threaded smoke for the internal locking.

#include "service/stage1_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

namespace fastmatch {
namespace {

constexpr uint64_t kWhole = kWholeStorePartition;
// The store generation of every snapshot the generation-agnostic tests
// publish and look up (store generations start at 1).
constexpr uint64_t kGen = 1;

std::shared_ptr<const Stage1Snapshot> MakeSnapshot(int64_t rows, int vz = 4,
                                                   int vx = 3) {
  auto snapshot = std::make_shared<Stage1Snapshot>();
  snapshot->counts = CountMatrix(vz, vx);
  snapshot->rows_drawn = rows;
  snapshot->scan.generation = kGen;
  return snapshot;
}

// A snapshot drawn at a specific store generation (its scan carries the
// generation of the pin it ran under); the entry answers only lookups
// pinned at that generation.
std::shared_ptr<const Stage1Snapshot> MakeSnapshotAt(int64_t rows,
                                                     uint64_t generation) {
  auto snapshot = std::make_shared<Stage1Snapshot>();
  snapshot->counts = CountMatrix(4, 3);
  snapshot->rows_drawn = rows;
  snapshot->scan.generation = generation;
  return snapshot;
}

TEST(Stage1CacheTest, LookupMissesThenHitsAfterPublish) {
  Stage1Cache cache;
  EXPECT_EQ(cache.Lookup(1, kWhole, 0, {1}, 100, kGen).snapshot, nullptr);
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(500));
  auto hit = cache.Lookup(1, kWhole, 0, {1}, 100, kGen).snapshot;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows_drawn, 500);

  Stage1CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stage1_lookups, 2);
  EXPECT_EQ(stats.stage1_hits, 1);
  EXPECT_EQ(stats.stage1_misses, 1);
  EXPECT_EQ(stats.stage1_inserts, 1);
  EXPECT_EQ(cache.size(), 1);
}

TEST(Stage1CacheTest, KeysSeparateStoresAndTemplates) {
  Stage1Cache cache;
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(500));
  // Different store id, z attribute, or grouping: all distinct entries.
  EXPECT_EQ(cache.Lookup(2, kWhole, 0, {1}, 1, kGen).snapshot, nullptr);
  EXPECT_EQ(cache.Lookup(1, kWhole, 2, {1}, 1, kGen).snapshot, nullptr);
  EXPECT_EQ(cache.Lookup(1, kWhole, 0, {2}, 1, kGen).snapshot, nullptr);
  EXPECT_EQ(cache.Lookup(1, kWhole, 0, {1, 2}, 1, kGen).snapshot, nullptr);
  EXPECT_NE(cache.Lookup(1, kWhole, 0, {1}, 1, kGen).snapshot, nullptr);
}

TEST(Stage1CacheTest, PartitionKeysNeverCrossServe) {
  // A partition's snapshot samples only that partition's rows: a
  // publish under partition i must never serve partition j, nor the
  // whole-store key, nor vice versa — same store id, same template.
  Stage1Cache cache;
  cache.Publish(9, /*partition_id=*/101, 0, {1}, MakeSnapshot(500));
  EXPECT_EQ(
      cache.Lookup(9, /*partition_id=*/102, 0, {1}, 1, kGen).snapshot,
      nullptr);
  EXPECT_EQ(cache.Lookup(9, kWhole, 0, {1}, 1, kGen).snapshot, nullptr);
  auto hit = cache.Lookup(9, /*partition_id=*/101, 0, {1}, 1, kGen).snapshot;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows_drawn, 500);

  // The reverse direction: a whole-store publish answers only the
  // whole-store sub-key.
  cache.Publish(9, kWhole, 0, {2}, MakeSnapshot(300));
  EXPECT_EQ(
      cache.Lookup(9, /*partition_id=*/101, 0, {2}, 1, kGen).snapshot,
      nullptr);
  EXPECT_NE(cache.Lookup(9, kWhole, 0, {2}, 1, kGen).snapshot, nullptr);

  // Publishes under two partitions of one store coexist as separate
  // entries with independent coverage.
  cache.Publish(9, /*partition_id=*/102, 0, {1}, MakeSnapshot(200));
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.Lookup(9, 102, 0, {1}, 300, kGen).snapshot,
            nullptr);  // too small
  EXPECT_NE(cache.Lookup(9, 101, 0, {1}, 300, kGen).snapshot, nullptr);
}

TEST(Stage1CacheTest, EntrySmallerThanDemandIsAMiss) {
  Stage1Cache cache;
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(500));
  // A 500-row sample cannot satisfy a 1000-row stage-1 demand; the
  // entry stays (smaller demands are still served).
  EXPECT_EQ(cache.Lookup(1, kWhole, 0, {1}, 1000, kGen).snapshot, nullptr);
  EXPECT_NE(cache.Lookup(1, kWhole, 0, {1}, 500, kGen).snapshot, nullptr);
  EXPECT_EQ(cache.size(), 1);
}

TEST(Stage1CacheTest, PublishKeepsTheBiggerSample) {
  Stage1Cache cache;
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(1000));
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(400));  // dominated: dropped
  auto hit = cache.Lookup(1, kWhole, 0, {1}, 1, kGen).snapshot;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows_drawn, 1000);
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(2000));  // bigger: replaces
  hit = cache.Lookup(1, kWhole, 0, {1}, 1, kGen).snapshot;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows_drawn, 2000);
  auto resident = hit;
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(2000));  // tie: resident wins
  hit = cache.Lookup(1, kWhole, 0, {1}, 1, kGen).snapshot;
  EXPECT_EQ(hit, resident);
  EXPECT_EQ(cache.size(), 1);
  Stage1CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stage1_publishes, 4);
  // Only real replacements count: the dominated and the tied publishes
  // were dropped.
  EXPECT_EQ(stats.stage1_inserts, 2);
}

TEST(Stage1CacheTest, InvalidSnapshotsIgnored) {
  Stage1Cache cache;
  cache.Publish(1, kWhole, 0, {1}, nullptr);
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(0));
  EXPECT_EQ(cache.size(), 0);
}

TEST(Stage1CacheTest, CapacityEvictsLeastRecentlyUsed) {
  Stage1CacheOptions options;
  options.capacity = 2;
  Stage1Cache cache(options);
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshot(100));
  cache.Publish(2, kWhole, 0, {1}, MakeSnapshot(200));
  // Touch store 1 so store 2 is the LRU entry.
  EXPECT_NE(cache.Lookup(1, kWhole, 0, {1}, 1, kGen).snapshot, nullptr);
  cache.Publish(3, kWhole, 0, {1}, MakeSnapshot(300));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_NE(cache.Lookup(1, kWhole, 0, {1}, 1, kGen).snapshot, nullptr);
  EXPECT_EQ(cache.Lookup(2, kWhole, 0, {1}, 1, kGen).snapshot,
            nullptr);  // evicted
  EXPECT_NE(cache.Lookup(3, kWhole, 0, {1}, 1, kGen).snapshot, nullptr);
  EXPECT_EQ(cache.stats().stage1_capacity_evictions, 1);
}

// ------------------------------------------------ generations

TEST(Stage1CacheGenerationTest, OlderAndNewerGenerationsBothMissNoLruTick) {
  Stage1CacheOptions options;
  options.capacity = 2;
  Stage1Cache cache(options);
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshotAt(500, 2));  // oldest tick
  cache.Publish(2, kWhole, 0, {1}, MakeSnapshotAt(500, 2));

  // At the entry's own generation: a plain hit, which renews store 2.
  Stage1LookupResult at = cache.Lookup(2, kWhole, 0, {1}, 100, 2);
  EXPECT_EQ(at.outcome, Stage1Outcome::kHit);
  ASSERT_NE(at.snapshot, nullptr);
  EXPECT_EQ(at.snapshot->rows_drawn, 500);

  // Querier pinned PAST the entry: the prior holds no appended row, so
  // it is not a uniform sample of the pinned relation — a miss.
  Stage1LookupResult older = cache.Lookup(1, kWhole, 0, {1}, 100, 5);
  EXPECT_EQ(older.outcome, Stage1Outcome::kMiss);
  EXPECT_EQ(older.snapshot, nullptr);

  // Querier pinned BEFORE the entry: the entry samples rows the pin has
  // never seen — a miss too.
  Stage1LookupResult newer = cache.Lookup(1, kWhole, 0, {1}, 100, 1);
  EXPECT_EQ(newer.outcome, Stage1Outcome::kMiss);
  EXPECT_EQ(newer.snapshot, nullptr);

  // Both entries survive the misses, and neither miss renewed store 1's
  // recency: the next insert evicts store 1, not the store hit last.
  EXPECT_EQ(cache.size(), 2);
  cache.Publish(3, kWhole, 0, {1}, MakeSnapshotAt(500, 2));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.Lookup(1, kWhole, 0, {1}, 100, 2).snapshot, nullptr);
  EXPECT_NE(cache.Lookup(2, kWhole, 0, {1}, 100, 2).snapshot, nullptr);

  Stage1CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stage1_hits, 2);
  EXPECT_EQ(stats.stage1_misses, 3);
  EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses);
}

TEST(Stage1CacheGenerationTest, CoverageOutranksRevalidation) {
  // A stale-generation entry that is also too SMALL is a miss on both
  // counts, and stays resident.
  Stage1Cache cache;
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshotAt(500, 1));
  Stage1LookupResult r = cache.Lookup(1, kWhole, 0, {1}, 1000, 4);
  EXPECT_EQ(r.outcome, Stage1Outcome::kMiss);
  EXPECT_EQ(r.snapshot, nullptr);
  EXPECT_EQ(cache.size(), 1);
}

TEST(Stage1CacheGenerationTest, PublishPrefersNewerGenerations) {
  Stage1Cache cache;
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshotAt(1000, 1));
  // A newer-generation snapshot replaces unconditionally, even when its
  // sample is smaller: it serves the frontier, and the resident could
  // only ever serve its own, older generation.
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshotAt(100, 2));
  Stage1LookupResult hit = cache.Lookup(1, kWhole, 0, {1}, 1, 2);
  ASSERT_EQ(hit.outcome, Stage1Outcome::kHit);
  EXPECT_EQ(hit.snapshot->rows_drawn, 100);
  EXPECT_EQ(hit.snapshot->scan.generation, 2u);
  // An older-generation snapshot never replaces, no matter how big.
  cache.Publish(1, kWhole, 0, {1}, MakeSnapshotAt(5000, 1));
  hit = cache.Lookup(1, kWhole, 0, {1}, 1, 2);
  ASSERT_EQ(hit.outcome, Stage1Outcome::kHit);
  EXPECT_EQ(hit.snapshot->rows_drawn, 100);
  EXPECT_EQ(cache.stats().stage1_inserts, 2);
}

TEST(Stage1CacheTest, CountersReconcileUnderConcurrentChurn) {
  // Publishers and lookers hammer one cache; afterwards
  // the books must balance: every lookup is a hit or a miss — nothing
  // double-counted. Stores 0-2 publish whole-store entries, stores 3-4
  // publish per-partition entries, so partitioned and unpartitioned
  // keys churn together, and snapshots carry generations 1-3 while
  // lookups pin generations 1-3, so hits and generation misses both
  // occur. (Run under TSan in CI via the regular suite.)
  Stage1Cache cache(Stage1CacheOptions{/*capacity=*/8});
  constexpr int kThreads = 4;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        // One store per 5-op cycle (publish and lookups all target
        // it), cycling across stores — so hits and misses both
        // occur even if the threads happen to run back-to-back instead
        // of interleaved.
        const uint64_t store = static_cast<uint64_t>((t + i / 5) % 5);
        const uint64_t partition =
            store >= 3 ? static_cast<uint64_t>(100 + i % 3) : kWhole;
        const uint64_t generation = static_cast<uint64_t>(1 + i % 3);
        switch (i % 5) {
          case 0:
            cache.Publish(store, partition, 0, {1},
                          MakeSnapshotAt(100 + i, generation));
            break;
          case 1:
          case 2:
          case 3:
            cache.Lookup(store, partition, 0, {1}, 50, generation);
            break;
          default:
            // Always a miss: no entry holds this many rows.
            cache.Lookup(store, partition, 0, {1}, 1000000, kGen);
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Stage1CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses);
  EXPECT_GT(stats.stage1_hits, 0);
  EXPECT_GT(stats.stage1_misses, 0);
  EXPECT_LE(cache.size(), 8);
}

}  // namespace
}  // namespace fastmatch
