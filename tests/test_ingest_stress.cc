// Drift-injection stress suite for streaming ingest (ctest label
// `stress` via the _stress filename; runs TSan-clean under
// FASTMATCH_SANITIZE=thread):
//
//   * deterministic drift lifecycle through the scheduler: a cached
//     stage-1 prior drawn at generation g is consulted at g' > g,
//     drift-tested, and either PROMOTED (appends that preserve the
//     candidate marginals — the prior is then served warm without being
//     re-drawn) or EVICTED (appends that flood one candidate — the
//     query runs cold), with the SchedulerStats counters proving which
//     path ran;
//   * concurrent appenders + query traffic against one scheduler with
//     the cache on: every future resolves exactly once with a terminal
//     status, and the stage-1 books balance
//     (lookups == hits + misses + revalidations) under churn.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/verify.h"
#include "engine/executor.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

constexpr int kCandidates = 12;
constexpr int kGroups = 8;

std::shared_ptr<ColumnStore> MakeStore(uint64_t seed,
                                       int64_t rows_per_candidate = 8000) {
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
                                 0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
  return MakeExactStore(
      std::vector<int64_t>(kCandidates, rows_per_candidate),
      PlantedDistributions(kCandidates, kGroups, offsets), seed,
      /*rows_per_block=*/50);
}

/// Rows that preserve the store's uniform candidate marginal: the drift
/// test must call an append of these STABLE.
std::vector<std::vector<Value>> BenignColumns(int64_t rows) {
  std::vector<std::vector<Value>> cols(2);
  for (int64_t r = 0; r < rows; ++r) {
    cols[0].push_back(static_cast<Value>(r % kCandidates));
    cols[1].push_back(static_cast<Value>(r % kGroups));
  }
  return cols;
}

/// Rows that flood candidate 0: the appended relation's candidate
/// marginal moves far from the prior's, so the drift test must reject.
std::vector<std::vector<Value>> FloodColumns(int64_t rows) {
  std::vector<std::vector<Value>> cols(2);
  for (int64_t r = 0; r < rows; ++r) {
    cols[0].push_back(0);
    cols[1].push_back(static_cast<Value>(r % kGroups));
  }
  return cols;
}

BoundQuery MakeQuery(std::shared_ptr<const ColumnStore> store,
                     std::shared_ptr<const BitmapIndex> index,
                     uint64_t seed) {
  BoundQuery q;
  q.store = std::move(store);
  q.z_index = std::move(index);
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = UniformDistribution(kGroups);
  q.params.k = 3;
  q.params.epsilon = 0.05;
  q.params.delta = 0.05;
  q.params.sigma = 0.0;
  q.params.stage1_samples = 3000;
  q.params.seed = seed;
  return q;
}

SchedulerOptions CacheOptions() {
  SchedulerOptions o;
  o.batch.num_threads = 2;
  o.batch.chunk_blocks = 64;
  o.max_batch_queries = 4;
  o.max_queue_wait_seconds = 0.001;
  o.stage1_cache = true;
  return o;
}

// ------------------------------------------------ deterministic lifecycle

TEST(IngestStressTest, StableAppendPromotesThePriorWithoutRedrawing) {
  auto store = MakeStore(401);
  auto index = BitmapIndex::Build(*store, 0).value();
  QueryScheduler scheduler(CacheOptions());

  // Cold run at generation 1 populates the cache.
  SchedulerItem first =
      scheduler.Submit(MakeQuery(store, index, 11)).value().Get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.match.diag.stage1_warm);
  ASSERT_GE(scheduler.stats().stage1_inserts, 1);

  // A marginal-preserving append: the store grows to generation 2.
  ASSERT_TRUE(store->AppendBatch(BenignColumns(12000), 77).ok());
  ASSERT_EQ(store->generation(), 2u);

  // The next query consults the cache at its pinned generation 2, finds
  // the generation-1 prior, drift-tests it, and — the marginals being
  // intact — PROMOTES and serves it: the query runs warm, stage 1 was
  // never re-drawn, nothing was evicted.
  const BoundQuery query = MakeQuery(store, index, 12);
  SchedulerItem second = scheduler.Submit(query).value().Get();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.match.diag.stage1_warm);
  std::set<int> got(second.match.topk.begin(), second.match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  // The promoted prior must still yield a sound answer for the grown
  // relation: both guarantees hold against generation-2 ground truth.
  const CountMatrix exact = ComputeExactCounts(*store, 0, {1}).value();
  const HistSimParams& p = query.params;
  const GroundTruth truth =
      ComputeGroundTruth(exact, query.target, p.metric, p.sigma, p.k);
  const GuaranteeCheck check =
      CheckGuarantees(second.match, exact, truth, query.target, p);
  EXPECT_TRUE(check.separation_ok) << check.worst_separation;
  EXPECT_TRUE(check.reconstruction_ok) << check.worst_reconstruction;

  SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.stage1_revalidations, 1);
  EXPECT_GE(stats.stage1_promotions, 1);
  EXPECT_EQ(stats.stage1_drift_evictions, 0);
  EXPECT_EQ(stats.stage1_lookups,
            stats.stage1_hits + stats.stage1_misses + stats.stage1_revalidations);
}

TEST(IngestStressTest, DriftingAppendEvictsThePriorAndRunsCold) {
  auto store = MakeStore(402);
  auto index = BitmapIndex::Build(*store, 0).value();
  QueryScheduler scheduler(CacheOptions());

  SchedulerItem first =
      scheduler.Submit(MakeQuery(store, index, 21)).value().Get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_GE(scheduler.stats().stage1_inserts, 1);

  // Flood candidate 0: its share of the relation moves from 1/12 to
  // over half — far past any sampling noise the drift test tolerates.
  ASSERT_TRUE(store->AppendBatch(FloodColumns(100000), 78).ok());
  ASSERT_EQ(store->generation(), 2u);

  // The consult finds the generation-1 prior, the drift test rejects
  // it, the entry is evicted, and the query runs cold — correctly,
  // against the grown relation.
  SchedulerItem second =
      scheduler.Submit(MakeQuery(store, index, 22)).value().Get();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(second.match.diag.stage1_warm);

  SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.stage1_revalidations, 1);
  EXPECT_GE(stats.stage1_drift_evictions, 1);
  EXPECT_EQ(stats.stage1_promotions, 0);
  EXPECT_EQ(stats.stage1_lookups,
            stats.stage1_hits + stats.stage1_misses + stats.stage1_revalidations);

  // The drifted prior is GONE, not demoted: a third query (after the
  // second's cold run republished at generation 2) must be served the
  // fresh generation-2 snapshot, not the evicted one.
  SchedulerItem third =
      scheduler.Submit(MakeQuery(store, index, 23)).value().Get();
  ASSERT_TRUE(third.status.ok()) << third.status.ToString();
  if (third.match.diag.stage1_warm) {
    EXPECT_GT(scheduler.stats().stage1_hits, 0);
  }
}

// ------------------------------------------------ concurrent churn

TEST(IngestStressTest, ConcurrentAppendsAndQueriesResolveExactlyOnce) {
  // Appender threads grow the store (benign and drifting batches mixed)
  // while submitter threads keep query traffic flowing through the
  // cache-enabled scheduler. Every accepted future must resolve exactly
  // once with a terminal status; results must be correct whenever they
  // are OK; and the stage-1 books must balance afterwards. Run under
  // TSan in CI (FASTMATCH_SANITIZE=thread) — this is the test that
  // races pinned scans, revalidations, promotions, and evictions
  // against live appends.
  auto store = MakeStore(403);
  auto index = BitmapIndex::Build(*store, 0).value();

  constexpr int kSubmitters = 3;
  constexpr int kQueriesPerSubmitter = 8;
  constexpr int kAppends = 10;

  std::atomic<int64_t> resolved{0};
  std::atomic<int64_t> ok_items{0};
  {
    QueryScheduler scheduler(CacheOptions());

    // Runs ALL its appends even if the query traffic drains first (the
    // final-state assertions depend on it); the early appends race the
    // running batches, the late ones race scheduler teardown.
    std::thread appender([&] {
      for (int i = 0; i < kAppends; ++i) {
        auto batch = (i % 3 == 2) ? FloodColumns(3000) : BenignColumns(3000);
        auto generation =
            store->AppendBatch(batch, 900 + static_cast<uint64_t>(i));
        ASSERT_TRUE(generation.ok()) << generation.status().ToString();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kQueriesPerSubmitter; ++i) {
          auto handle = scheduler.Submit(
              MakeQuery(store, index, static_cast<uint64_t>(t * 100 + i)));
          ASSERT_TRUE(handle.ok()) << handle.status().ToString();
          SchedulerItem item = handle.value().Get();
          resolved.fetch_add(1);
          // Terminal statuses only: a result or a lifecycle code.
          if (item.status.ok()) {
            ok_items.fetch_add(1);
            EXPECT_EQ(item.match.topk.size(), 3u);
          } else {
            EXPECT_TRUE(item.status.code() == StatusCode::kCancelled ||
                        item.status.code() == StatusCode::kDeadlineExceeded ||
                        item.status.code() == StatusCode::kUnavailable)
                << item.status.ToString();
          }
        }
      });
    }
    for (std::thread& thread : submitters) thread.join();
    appender.join();

    SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(resolved.load(), kSubmitters * kQueriesPerSubmitter);
    EXPECT_EQ(stats.completed, resolved.load());
    EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses +
                                        stats.stage1_revalidations);
    // No deadlines or cancels were issued, so everything completed OK.
    EXPECT_EQ(ok_items.load(), resolved.load());
  }

  // The store survived the churn coherently: generation advanced once
  // per append and the live row count matches the growth.
  EXPECT_EQ(store->generation(), 1u + kAppends);
  EXPECT_EQ(store->num_rows(),
            static_cast<int64_t>(kCandidates) * 8000 + kAppends * 3000);
}

}  // namespace
}  // namespace fastmatch
