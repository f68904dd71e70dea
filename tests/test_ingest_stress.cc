// Append stress suite for streaming ingest (ctest label `stress` via
// the _stress filename; runs TSan-clean under FASTMATCH_SANITIZE=thread):
//
//   * deterministic append lifecycle through the scheduler, one test
//     for an append that keeps the candidate marginals and one that
//     floods one candidate: a cached stage-1 prior drawn at generation
//     g is never served at g' > g. The post-append query misses, runs
//     cold and meets both guarantees against the grown relation; its
//     cold batch republishes at g', and the next query is served warm
//     from that publish;
//   * concurrent appenders + query traffic against one scheduler with
//     the cache on: every future resolves exactly once with a terminal
//     status, and the stage-1 books balance (lookups == hits + misses)
//     under churn;
//   * the Scan baseline racing appends: every answer counts one pinned
//     generation, exactly.

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

/// Rows that preserve the store's uniform candidate marginal.
std::vector<std::vector<Value>> BenignColumns(int64_t rows) {
  std::vector<std::vector<Value>> cols(2);
  for (int64_t r = 0; r < rows; ++r) {
    cols[0].push_back(static_cast<Value>(r % kCandidates));
    cols[1].push_back(static_cast<Value>(r % kGroups));
  }
  return cols;
}

/// Rows that flood candidate 0: the appended relation's candidate
/// marginal moves far from the prior's.
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

/// One append lifecycle through a cache-enabled scheduler: a cold query
/// at generation 1 publishes a prior; `columns` are appended; the next
/// query pins generation 2, misses (the generation-1 prior holds no
/// appended row), runs cold and meets both guarantees against the grown
/// relation; its cold batch republishes at generation 2, replacing the
/// old entry, so a third query is served warm from that publish.
void RunAppendLifecycle(uint64_t store_seed, uint64_t query_seed,
                        uint64_t append_seed,
                        const std::vector<std::vector<Value>>& columns) {
  auto store = MakeStore(store_seed);
  auto index = BitmapIndex::Build(*store, 0).value();
  QueryScheduler scheduler(CacheOptions());

  // Cold run at generation 1 populates the cache.
  SchedulerItem first =
      scheduler.Submit(MakeQuery(store, index, query_seed)).value().Get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.match.diag.stage1_warm);
  ASSERT_GE(scheduler.stats().stage1_inserts, 1);
  ASSERT_EQ(scheduler.stage1_cache()->size(), 1);

  ASSERT_TRUE(store->AppendBatch(columns, append_seed).ok());
  ASSERT_EQ(store->generation(), 2u);

  // The next query pins generation 2: its lookup misses and it runs
  // cold, correctly against generation-2 ground truth.
  const SchedulerStats before = scheduler.stats();
  const BoundQuery query = MakeQuery(store, index, query_seed + 1);
  SchedulerItem second = scheduler.Submit(query).value().Get();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(second.match.diag.stage1_warm);
  const CountMatrix exact = ComputeExactCounts(*store, 0, {1}).value();
  const HistSimParams& p = query.params;
  const GroundTruth truth =
      ComputeGroundTruth(exact, query.target, p.metric, p.sigma, p.k);
  const GuaranteeCheck check =
      CheckGuarantees(second.match, exact, truth, query.target, p);
  EXPECT_TRUE(check.separation_ok) << check.worst_separation;
  EXPECT_TRUE(check.reconstruction_ok) << check.worst_reconstruction;

  const SchedulerStats after = scheduler.stats();
  EXPECT_GT(after.stage1_misses, before.stage1_misses);
  EXPECT_EQ(after.stage1_hits, before.stage1_hits);
  EXPECT_EQ(after.stage1_lookups, after.stage1_hits + after.stage1_misses);
  // The republish replaced the generation-1 prior in place.
  EXPECT_GT(after.stage1_inserts, before.stage1_inserts);
  EXPECT_EQ(scheduler.stage1_cache()->size(), 1);

  SchedulerItem third =
      scheduler.Submit(MakeQuery(store, index, query_seed + 2))
          .value()
          .Get();
  ASSERT_TRUE(third.status.ok()) << third.status.ToString();
  EXPECT_TRUE(third.match.diag.stage1_warm);
  EXPECT_GT(scheduler.stats().stage1_hits, after.stage1_hits);
}

TEST(IngestStressTest, StableAppendMissesRunsColdThenServesTheNewGeneration) {
  // 1,000 more rows per candidate: the candidate marginal is unchanged,
  // and still the generation-1 prior is not served at generation 2.
  RunAppendLifecycle(401, 11, 77, BenignColumns(12000));
}

TEST(IngestStressTest, DriftingAppendEvictsThePriorAndRunsCold) {
  // Flood candidate 0: its share of the relation moves from 1/12 to
  // over half.
  RunAppendLifecycle(402, 21, 78, FloodColumns(100000));
}

// ------------------------------------------------ concurrent churn

TEST(IngestStressTest, ConcurrentAppendsAndQueriesResolveExactlyOnce) {
  // Appender threads grow the store (benign and drifting batches mixed)
  // while submitter threads keep query traffic flowing through the
  // cache-enabled scheduler. Every accepted future must resolve exactly
  // once with a terminal status; results must be correct whenever they
  // are OK; and the stage-1 books must balance afterwards. Run under
  // TSan in CI (FASTMATCH_SANITIZE=thread) — this is the test that
  // races pinned scans, cache lookups and publishes against live
  // appends.
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
    EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses);
    // No deadlines or cancels were issued, so everything completed OK.
    EXPECT_EQ(ok_items.load(), resolved.load());
  }

  // The store survived the churn coherently: generation advanced once
  // per append and the live row count matches the growth.
  EXPECT_EQ(store->generation(), 1u + kAppends);
  EXPECT_EQ(store->num_rows(),
            static_cast<int64_t>(kCandidates) * 8000 + kAppends * 3000);
}

TEST(IngestStressTest, ScanCountsOnePinnedGenerationUnderAppends) {
  // RunQuery(kScan) races AppendBatch. Every answer must describe ONE
  // generation: its rows_read is that generation's row count, its row
  // totals add up to it, and its counts equal that generation's exact
  // counts, computed after the appends through a view pinned at it.
  // Run under TSan in CI: a count read through the live chunk vector,
  // which an append may reallocate, is a data race there.
  auto store = MakeStore(404, /*rows_per_candidate=*/2000);
  BoundQuery query = MakeQuery(store, nullptr, 5);
  constexpr int kAppends = 20;
  constexpr int64_t kAppendRows = 600;

  std::atomic<bool> appending{true};
  std::vector<RunOutput> answers;
  std::thread scanner([&] {
    while (appending.load() || answers.size() < 3) {
      auto out = RunQuery(query, Approach::kScan);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      answers.push_back(std::move(*out));
    }
  });
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(store
                    ->AppendBatch(BenignColumns(kAppendRows),
                                  700 + static_cast<uint64_t>(i))
                    .ok());
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  appending.store(false);
  scanner.join();

  const int64_t base_rows = store->PinAt(1).value().num_rows;
  for (const RunOutput& out : answers) {
    const int64_t rows = out.stats.engine.rows_read;
    ASSERT_EQ((rows - base_rows) % kAppendRows, 0) << rows;
    const uint64_t generation =
        1 + static_cast<uint64_t>((rows - base_rows) / kAppendRows);
    const StoreView view = store->PinViewAt(generation).value();
    ASSERT_EQ(view.pin().num_rows, rows);
    const CountMatrix exact =
        ComputeExactCounts(store->schema(), view, 0, {1}).value();
    int64_t total = 0;
    for (int i = 0; i < kCandidates; ++i) {
      total += out.match.counts.RowTotal(i);
      for (int g = 0; g < kGroups; ++g) {
        ASSERT_EQ(out.match.counts.At(i, g), exact.At(i, g))
            << "generation " << generation << " candidate " << i;
      }
    }
    EXPECT_EQ(total, rows);
  }
}

}  // namespace
}  // namespace fastmatch
