// Anytime-query tests: the progressive top-k channel (ProgressUpdate)
// and execution budgets (SubmitOptions::budget_seconds).
//
// What is pinned here:
//   * the executor's progress stream is well-formed — sequences count
//     1, 2, ... with exactly one final update, per-candidate error bars
//     shrink weakly across updates at a fixed seed, and the final
//     update reproduces the delivered MatchResult bit-for-bit — across
//     worker counts, and end to end through the scheduler;
//   * EvictWithResult() harvests a best-effort OK result whose error
//     bars contain the exact ground-truth distance for every candidate
//     (seeded suite; deterministic at a fixed seed);
//   * the evict-vs-completion race regression: harvesting a query whose
//     machine already finished is refused with FailedPrecondition and
//     the EXACT result — not a best-effort one — is what surfaces;
//   * at the scheduler, budget expiry terminates OK with best_effort
//     set (never DeadlineExceeded / Cancelled), counts under
//     stats().budget_evicted only, and both progress consumers — the
//     QueryHandle::Progress() poll channel and the on_progress
//     callback — observe the same stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "core/verify.h"
#include "engine/batch_executor.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "test_helpers.h"
#include "util/sync.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct AnytimeFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
  CountMatrix exact;
  Distribution target;
};

/// 12 candidates at staggered planted distances from uniform, so the
/// true top-3 is {0, 1, 2} and ComputeGroundTruth is closed-form.
AnytimeFixture MakeAnytimeFixture(int64_t rows_per_candidate, uint64_t seed,
                                  int rows_per_block = 50) {
  AnytimeFixture f;
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
                                 0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
  auto dists = PlantedDistributions(12, 8, offsets);
  f.store = MakeExactStore(std::vector<int64_t>(12, rows_per_candidate),
                           dists, seed, rows_per_block);
  f.index = BitmapIndex::Build(*f.store, 0).value();
  f.exact = ComputeExactCounts(*f.store, 0, {1}).value();
  f.target = UniformDistribution(8);
  return f;
}

HistSimParams AnytimeParams(uint64_t seed = 42) {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 3000;
  p.seed = seed;
  return p;
}

BoundQuery MakeQuery(const AnytimeFixture& f, uint64_t seed = 42) {
  BoundQuery q;
  q.store = f.store;
  q.z_index = f.index;
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = f.target;
  q.params = AnytimeParams(seed);
  return q;
}

BatchOptions ExecOptions(int threads, int chunk_blocks = 8) {
  BatchOptions o;
  o.num_threads = threads;
  o.chunk_blocks = chunk_blocks;
  o.seed = 7;
  return o;
}

/// The stream contract: sequences 1..n, bars weakly shrinking per
/// candidate, rows_consumed nondecreasing, exactly the last update
/// final, and the final update equal to the delivered result
/// bit-for-bit (vector operator== on doubles — no tolerance).
void CheckUpdateStream(const std::vector<ProgressUpdate>& updates,
                       const MatchResult& match) {
  ASSERT_FALSE(updates.empty());
  for (size_t j = 0; j < updates.size(); ++j) {
    EXPECT_EQ(updates[j].sequence, j + 1) << "update " << j;
    EXPECT_EQ(updates[j].final_update, j + 1 == updates.size())
        << "update " << j;
    if (j == 0) continue;
    EXPECT_GE(updates[j].rows_consumed, updates[j - 1].rows_consumed)
        << "update " << j;
    ASSERT_EQ(updates[j].error_bars.size(), updates[j - 1].error_bars.size());
    for (size_t i = 0; i < updates[j].error_bars.size(); ++i) {
      // Weak shrinkage: the pooled per-candidate sample only grows, and
      // the Theorem-1 radius is decreasing in it (0 once exact).
      EXPECT_LE(updates[j].error_bars[i], updates[j - 1].error_bars[i])
          << "candidate " << i << " bar grew at update " << j;
    }
  }
  const ProgressUpdate& last = updates.back();
  EXPECT_EQ(last.topk, match.topk);
  EXPECT_EQ(last.topk_distances, match.topk_distances);
  EXPECT_EQ(last.distances, match.distances);
  EXPECT_EQ(last.error_bars, match.error_bars);
  EXPECT_EQ(last.exact, match.exact);
}

/// Honest-bars check against the Scan baseline: every candidate's
/// estimate within its own radius of the exact distance. Theorem 1 at
/// delta/|VZ| per candidate makes this hold jointly with probability
/// > 1 - delta; the bound is conservative enough that the fixed-seed
/// suite below passes deterministically.
void CheckBarsContainTruth(const MatchResult& match,
                           const GroundTruth& truth) {
  ASSERT_EQ(match.distances.size(), truth.distances.size());
  ASSERT_EQ(match.error_bars.size(), truth.distances.size());
  for (size_t i = 0; i < match.distances.size(); ++i) {
    EXPECT_LE(std::abs(match.distances[i] - truth.distances[i]),
              match.error_bars[i] + 1e-12)
        << "candidate " << i << " outside its error bar";
  }
}

// ------------------------------------------------ executor-level stream

TEST(AnytimeTest, ProgressStreamMonotoneAndFinalAcrossWorkerCounts) {
  for (int threads : {1, 2, 4}) {
    AnytimeFixture f = MakeAnytimeFixture(2000, 31);
    std::vector<BoundQuery> queries = {MakeQuery(f, 42), MakeQuery(f, 43)};
    auto executor =
        BatchExecutor::Create(queries, ExecOptions(threads)).value();
    std::vector<std::vector<ProgressUpdate>> streams(queries.size());
    executor->SetProgressCallback(
        [&streams](size_t index, const ProgressUpdate& update) {
          streams[index].push_back(update);
        });
    executor->Start();
    while (executor->Step()) {
    }
    std::vector<BatchItem> items = executor->TakeItems();
    ASSERT_EQ(items.size(), queries.size());
    for (size_t i = 0; i < items.size(); ++i) {
      ASSERT_TRUE(items[i].status.ok()) << items[i].status.ToString();
      EXPECT_FALSE(items[i].match.best_effort);
      // chunk_blocks = 8 (400 rows) against a 3000-row stage-1 demand:
      // at least one intermediate update precedes the final one.
      ASSERT_GE(streams[i].size(), 2u) << "threads=" << threads;
      CheckUpdateStream(streams[i], items[i].match);
      // The first update is published before the final one has consumed
      // its rows: anytime progress arrives strictly ahead of the answer.
      EXPECT_LT(streams[i].front().rows_consumed,
                streams[i].back().rows_consumed)
          << "threads=" << threads;
    }
  }
}

// --------------------------------------------- executor-level harvest

TEST(AnytimeTest, HarvestedResultBarsContainGroundTruth) {
  // Seeded suite: harvest after a couple of chunks, well before the
  // three stages complete, and check the best-effort answer is honest
  // about its uncertainty. Deterministic at fixed seeds.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    AnytimeFixture f = MakeAnytimeFixture(4000, seed);
    const GroundTruth truth =
        ComputeGroundTruth(f.exact, f.target, AnytimeParams().metric,
                           /*sigma=*/0.0, /*k=*/3);
    auto executor =
        BatchExecutor::Create({MakeQuery(f, 100 + seed)}, ExecOptions(2))
            .value();
    executor->Start();
    executor->Step();
    executor->Step();
    ASSERT_TRUE(executor->EvictWithResult(0).ok());
    EXPECT_TRUE(executor->finished());
    EXPECT_EQ(executor->stats().harvested_queries, 1);
    std::vector<BatchItem> items = executor->TakeItems();
    ASSERT_EQ(items.size(), 1u);
    ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    const MatchResult& match = items[0].match;
    EXPECT_TRUE(match.best_effort) << "seed " << seed;
    EXPECT_EQ(static_cast<int>(match.topk.size()), 3);
    CheckBarsContainTruth(match, truth);
    // Two chunks of a 480-block scan cannot have enumerated anyone:
    // the bars must confess, not claim exactness.
    for (size_t i = 0; i < match.error_bars.size(); ++i) {
      EXPECT_GT(match.error_bars[i], 0.0) << "candidate " << i;
    }
  }
}

TEST(AnytimeTest, HarvestAfterCompletionIsRefusedAndExactResultSurvives) {
  // Satellite regression: EvictWithResult on a query whose machine
  // completed in the same chunk must NOT clobber the exact result.
  AnytimeFixture f = MakeAnytimeFixture(1500, 17);
  auto executor =
      BatchExecutor::Create({MakeQuery(f, 42)}, ExecOptions(2, 64)).value();
  executor->Start();
  while (executor->Step()) {
  }
  const Status refused = executor->EvictWithResult(0);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.ToString();
  EXPECT_EQ(executor->stats().harvested_queries, 0);
  std::vector<BatchItem> items = executor->TakeItems();
  ASSERT_EQ(items.size(), 1u);
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  EXPECT_FALSE(items[0].match.best_effort);
  std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(AnytimeTest, EvictWithResultContract) {
  AnytimeFixture f = MakeAnytimeFixture(1500, 19);
  auto executor =
      BatchExecutor::Create({MakeQuery(f, 42)}, ExecOptions(2)).value();
  // Before Start: structural misuse.
  EXPECT_EQ(executor->EvictWithResult(0).code(),
            StatusCode::kFailedPrecondition);
  executor->Start();
  EXPECT_EQ(executor->EvictWithResult(9).code(), StatusCode::kOutOfRange);
  executor->Step();
  ASSERT_TRUE(executor->EvictWithResult(0).ok());
  // Harvesting twice: the query is no longer active.
  EXPECT_EQ(executor->EvictWithResult(0).code(),
            StatusCode::kFailedPrecondition);
  (void)executor->TakeItems();
}

// ------------------------------------------------- scheduler lifecycle

SchedulerOptions AnytimeSchedOptions() {
  SchedulerOptions options;
  options.batch.num_threads = 2;
  options.batch.chunk_blocks = 4;
  options.max_batch_queries = 8;
  options.max_queue_wait_seconds = 0.002;
  options.min_join_suffix_fraction = 0.0;
  return options;
}

TEST(AnytimeTest, BudgetExpiryDeliversBestEffortOkResult) {
  AnytimeFixture f = MakeAnytimeFixture(2000, 23);
  const GroundTruth truth = ComputeGroundTruth(
      f.exact, f.target, AnytimeParams().metric, /*sigma=*/0.0, /*k=*/3);
  QueryScheduler scheduler(AnytimeSchedOptions());
  Mutex mu;
  std::vector<ProgressUpdate> stream;
  SubmitOptions submit;
  // A 0.1ms execution budget against a 480-block scan in 4-block
  // chunks: expiry is certain long before the three stages complete.
  submit.budget_seconds = 1e-4;
  submit.track_progress = true;
  submit.on_progress = [&mu, &stream](const ProgressUpdate& update) {
    MutexLock lock(&mu);
    stream.push_back(update);
  };
  auto handle = scheduler.Submit(MakeQuery(f, 42), submit);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  SchedulerItem item = handle->Get();
  ASSERT_TRUE(item.status.ok()) << item.status.ToString();
  EXPECT_TRUE(item.match.best_effort);
  CheckBarsContainTruth(item.match, truth);

  // Both consumers observed the stream, ending in the delivered result.
  {
    MutexLock lock(&mu);
    CheckUpdateStream(stream, item.match);
  }
  std::optional<ProgressUpdate> latest = handle->Progress();
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->final_update);
  EXPECT_EQ(latest->distances, item.match.distances);
  EXPECT_EQ(latest->error_bars, item.match.error_bars);

  // Accounting: a budget expiry is a delivered answer, not an error.
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.budget_evicted, 1);
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.submitted, 1);
  scheduler.Shutdown();
}

TEST(AnytimeTest, BudgetRaceNeverLosesAnExactResult) {
  // Sweep budgets across the completion time of a SMALL scan so expiry
  // and completion genuinely race. Whichever side wins, the contract
  // holds: the future resolves OK, a non-best-effort result is the
  // exact one, and only harvested queries count under budget_evicted.
  AnytimeFixture f = MakeAnytimeFixture(300, 29);
  QueryScheduler scheduler(AnytimeSchedOptions());
  int64_t best_effort_seen = 0;
  int64_t submitted = 0;
  for (double budget : {0.0, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SubmitOptions submit;
      submit.budget_seconds = budget;
      auto handle = scheduler.Submit(MakeQuery(f, seed), submit);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      ++submitted;
      SchedulerItem item = handle->Get();
      ASSERT_TRUE(item.status.ok())
          << "budget " << budget << " seed " << seed << ": "
          << item.status.ToString();
      if (item.match.best_effort) {
        ++best_effort_seen;
        ASSERT_GT(budget, 0.0) << "no budget, yet harvested";
      } else {
        std::set<int> got(item.match.topk.begin(), item.match.topk.end());
        EXPECT_EQ(got, (std::set<int>{0, 1, 2}))
            << "budget " << budget << " seed " << seed;
      }
    }
  }
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.budget_evicted, best_effort_seen);
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_EQ(stats.completed, submitted);
  EXPECT_EQ(stats.submitted, submitted);
  scheduler.Shutdown();
}

TEST(AnytimeTest, SchedulerProgressStreamEndsInDeliveredResult) {
  AnytimeFixture f = MakeAnytimeFixture(2000, 41);
  QueryScheduler scheduler(AnytimeSchedOptions());
  Mutex mu;
  std::vector<ProgressUpdate> stream;
  SubmitOptions submit;
  submit.track_progress = true;
  submit.on_progress = [&mu, &stream](const ProgressUpdate& update) {
    MutexLock lock(&mu);
    stream.push_back(update);
  };
  auto handle = scheduler.Submit(MakeQuery(f, 42), submit);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  SchedulerItem item = handle->Get();
  ASSERT_TRUE(item.status.ok()) << item.status.ToString();
  EXPECT_FALSE(item.match.best_effort);
  {
    MutexLock lock(&mu);
    ASSERT_GE(stream.size(), 2u);
    CheckUpdateStream(stream, item.match);
  }
  std::optional<ProgressUpdate> latest = handle->Progress();
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->final_update);
  scheduler.Shutdown();
}

TEST(AnytimeTest, UntrackedHandleHasNoProgressChannel) {
  AnytimeFixture f = MakeAnytimeFixture(300, 43);
  QueryScheduler scheduler(AnytimeSchedOptions());
  auto handle = scheduler.Submit(MakeQuery(f, 42), SubmitOptions{});
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(handle->Progress().has_value());
  SchedulerItem item = handle->Get();
  ASSERT_TRUE(item.status.ok());
  EXPECT_FALSE(handle->Progress().has_value());
  scheduler.Shutdown();
}

}  // namespace
}  // namespace fastmatch
