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
//     callback — observe the same stream;
//   * progress cost follows subscribers: the scheduler builds snapshots
//     only for queries with a progress consumer (none for a batch
//     nobody subscribed to) without changing any result or block count,
//     and a tracked query whose join completes instantly still
//     receives its final update.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
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

// ------------------------------------------- subscription at scheduler

/// What one scheduler batch of three queries produced.
struct SubscriptionRun {
  std::vector<SchedulerItem> items;
  /// Updates each query's consumers saw (0 for an unsubscribed query).
  std::vector<int64_t> updates;
  SchedulerStats stats;
};

enum class Consumer { kNone, kChannel, kCallback };

SubscriptionRun RunSubscriptionBatch(const AnytimeFixture& f,
                                     const std::vector<Consumer>& consumers) {
  SchedulerOptions options = AnytimeSchedOptions();
  // One closed batch holding every query, launched once it is full.
  options.max_batch_queries = static_cast<int>(consumers.size());
  options.max_queue_wait_seconds = 3600;
  options.allow_joins = false;
  QueryScheduler scheduler(options);
  Mutex mu;
  std::vector<int64_t> callback_updates(consumers.size(), 0);
  std::vector<QueryHandle> handles;
  for (size_t i = 0; i < consumers.size(); ++i) {
    SubmitOptions submit;
    submit.track_progress = consumers[i] == Consumer::kChannel;
    if (consumers[i] == Consumer::kCallback) {
      submit.on_progress = [&mu, &callback_updates, i](const ProgressUpdate&) {
        MutexLock lock(&mu);
        ++callback_updates[i];
      };
    }
    auto handle = scheduler.Submit(MakeQuery(f, 42 + i), submit);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(std::move(*handle));
  }
  SubscriptionRun run;
  for (size_t i = 0; i < handles.size(); ++i) {
    run.items.push_back(handles[i].Get());
    int64_t updates = 0;
    if (consumers[i] == Consumer::kChannel) {
      // Sequences count 1, 2, ... per delivered update.
      std::optional<ProgressUpdate> latest = handles[i].Progress();
      EXPECT_TRUE(latest.has_value() && latest->final_update);
      if (latest.has_value()) updates = static_cast<int64_t>(latest->sequence);
    } else if (consumers[i] == Consumer::kCallback) {
      MutexLock lock(&mu);
      updates = callback_updates[i];
    } else {
      EXPECT_FALSE(handles[i].Progress().has_value());
    }
    run.updates.push_back(updates);
  }
  // Retire the batch so its counters are summed into the stats.
  scheduler.Shutdown();
  run.stats = scheduler.stats();
  return run;
}

TEST(AnytimeTest, SchedulerBuildsSnapshotsOnlyForSubscribedQueries) {
  AnytimeFixture f = MakeAnytimeFixture(2000, 47);
  const SubscriptionRun mixed = RunSubscriptionBatch(
      f, {Consumer::kChannel, Consumer::kCallback, Consumer::kNone});
  const SubscriptionRun all = RunSubscriptionBatch(
      f, {Consumer::kChannel, Consumer::kChannel, Consumer::kChannel});
  const SubscriptionRun none = RunSubscriptionBatch(
      f, {Consumer::kNone, Consumer::kNone, Consumer::kNone});

  for (const SubscriptionRun* run : {&mixed, &all, &none}) {
    EXPECT_EQ(run->stats.batches_launched, 1);
    EXPECT_EQ(run->stats.completed, 3);
    int64_t delivered = 0;
    for (int64_t n : run->updates) delivered += n;
    EXPECT_EQ(run->stats.batch_progress_snapshots, delivered);
  }
  // The subscribed queries of the mixed run got their full streams: the
  // same count as when every query is tracked.
  EXPECT_GE(mixed.updates[0], 2);
  EXPECT_EQ(mixed.updates[0], all.updates[0]);
  EXPECT_EQ(mixed.updates[1], all.updates[1]);
  EXPECT_EQ(mixed.updates[2], 0);
  EXPECT_EQ(mixed.stats.batch_progress_snapshots,
            all.stats.batch_progress_snapshots - all.updates[2]);
  EXPECT_EQ(none.stats.batch_progress_snapshots, 0);

  // Subscription changes no answer and no I/O.
  for (const SubscriptionRun* run : {&all, &none}) {
    EXPECT_EQ(run->stats.batch_blocks_read, mixed.stats.batch_blocks_read);
    for (size_t i = 0; i < mixed.items.size(); ++i) {
      const SchedulerItem& a = mixed.items[i];
      const SchedulerItem& b = run->items[i];
      ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      ASSERT_TRUE(b.status.ok()) << b.status.ToString();
      EXPECT_EQ(b.match.topk, a.match.topk) << "query " << i;
      EXPECT_EQ(b.match.distances, a.match.distances) << "query " << i;
      EXPECT_EQ(b.match.error_bars, a.match.error_bars) << "query " << i;
      EXPECT_EQ(b.match.exact, a.match.exact) << "query " << i;
      EXPECT_EQ(b.match.diag.stage2_samples, a.match.diag.stage2_samples)
          << "query " << i;
    }
  }
}

TEST(AnytimeTest, InstantWarmJoinStreamsItsFinalUpdate) {
  // A tracked query joins a running batch of another template and is
  // served by a stage-1 cache entry covering the whole store, so its
  // machine completes inside Join(). Its final update must still reach
  // its channel. The join window is probabilistic on a single-core
  // host: bounded retries, like the scheduler's streaming-admission
  // tests.
  AnytimeFixture f = MakeAnytimeFixture(2000, 59);
  const int64_t num_rows = f.store->num_rows();
  // Template (Z = column 1, X = column 0): 8 candidates over 12 groups.
  const auto swapped_query = [&f, num_rows](uint64_t seed) {
    BoundQuery q;
    q.store = f.store;
    q.z_attr = 1;
    q.x_attrs = {0};
    q.target = UniformDistribution(12);
    q.params = AnytimeParams(seed);
    q.params.stage1_samples = num_rows;
    return q;
  };
  bool joined = false;
  for (int attempt = 0; attempt < 40 && !joined; ++attempt) {
    SchedulerOptions options = AnytimeSchedOptions();
    options.stage1_cache = true;
    QueryScheduler scheduler(options);
    // Donor: its stage 1 draws every row, so the published snapshot
    // covers the whole store.
    auto donor = scheduler.Submit(swapped_query(1));
    ASSERT_TRUE(donor.ok());
    ASSERT_TRUE(donor->Get().status.ok());
    ASSERT_GE(scheduler.stats().stage1_inserts, 1);

    BoundQuery slow = MakeQuery(f, 2);
    slow.params.epsilon = 0.03;
    auto running = scheduler.Submit(std::move(slow));
    ASSERT_TRUE(running.ok());
    for (int spin = 0; scheduler.stats().batches_launched < 2 && spin < 10000;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    SubmitOptions submit;
    submit.track_progress = true;
    auto tracked = scheduler.Submit(swapped_query(3), submit);
    ASSERT_TRUE(tracked.ok());
    SchedulerItem item = tracked->Get();
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    ASSERT_TRUE(running->Get().status.ok());
    EXPECT_TRUE(item.match.diag.stage1_warm);
    EXPECT_TRUE(item.match.diag.data_exhausted);

    std::optional<ProgressUpdate> latest = tracked->Progress();
    ASSERT_TRUE(latest.has_value()) << "attempt " << attempt;
    EXPECT_TRUE(latest->final_update);
    EXPECT_EQ(latest->topk, item.match.topk);
    EXPECT_EQ(latest->topk_distances, item.match.topk_distances);
    EXPECT_EQ(latest->distances, item.match.distances);
    EXPECT_EQ(latest->error_bars, item.match.error_bars);
    EXPECT_EQ(latest->exact, item.match.exact);
    // Served by the running batch (no batch of its own): the join path.
    // A join that its warm prior completes at bind still counts as one.
    joined = scheduler.stats().batches_launched == 2;
    EXPECT_EQ(item.joined_midflight, joined);
    EXPECT_EQ(scheduler.stats().joined_midflight, joined ? 1 : 0);
    scheduler.Shutdown();
  }
  EXPECT_TRUE(joined) << "the tracked query never joined in 40 attempts";
}

}  // namespace
}  // namespace fastmatch
