// Tests of the service-tier QueryScheduler: per-store routing, admission
// policy (timeout flush of partial batches, bounded-queue back-pressure),
// late arrivals waiting for the next batch, drain-on-shutdown, and the
// per-query lifecycle — deadlines, cancellation (queued and running),
// abandoned handles, eager delivery, and idle-pipeline reaping. The
// randomized concurrency torture test lives in test_lifecycle_stress.cc.

#include "service/query_scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "core/verify.h"
#include "engine/batch_executor.h"
#include "index/bitmap_index.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct SchedFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
  CountMatrix exact;
  Distribution target;
};

/// Same planted shape as the batch-executor tests: true top-3 is
/// {0, 1, 2} under the uniform target.
SchedFixture MakeSchedFixture(int64_t rows_per_candidate, uint64_t seed,
                              int rows_per_block = 50) {
  SchedFixture f;
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

HistSimParams SchedParams() {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 2000;
  p.seed = 42;
  return p;
}

BoundQuery MakeQuery(const SchedFixture& f, uint64_t seed = 42) {
  BoundQuery q;
  q.store = f.store;
  q.z_index = f.index;
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = f.target;
  q.params = SchedParams();
  q.params.seed = seed;
  return q;
}

SchedulerOptions FastOptions() {
  SchedulerOptions o;
  o.batch.num_threads = 2;
  o.batch.chunk_blocks = 64;
  o.max_batch_queries = 8;
  o.max_queue_wait_seconds = 0.002;
  return o;
}

void ExpectTop3(const SchedulerItem& item) {
  ASSERT_TRUE(item.status.ok()) << item.status.ToString();
  std::set<int> got(item.match.topk.begin(), item.match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(QuerySchedulerTest, CompletesQueriesAcrossStores) {
  SchedFixture f1 = MakeSchedFixture(8000, 1);
  SchedFixture f2 = MakeSchedFixture(8000, 2);
  QueryScheduler scheduler(FastOptions());

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 3; ++i) {
    auto a = scheduler.Submit(MakeQuery(f1, 100 + i));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    handles.push_back(std::move(*a));
    auto b = scheduler.Submit(MakeQuery(f2, 200 + i));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    handles.push_back(std::move(*b));
  }
  for (auto& handle : handles) ExpectTop3(handle.Get());

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.pipelines, 2);
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GE(stats.batches_launched, 2);
}

TEST(QuerySchedulerTest, TimeoutFlushLaunchesPartialBatch) {
  // Two queries against an 8-wide batch: only the queue-wait deadline
  // can launch them.
  SchedFixture f = MakeSchedFixture(4000, 3);
  QueryScheduler scheduler(FastOptions());
  auto a = scheduler.Submit(MakeQuery(f, 1));
  auto b = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectTop3(a->Get());
  ExpectTop3(b->Get());
  SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.timeout_flushes, 1);
  EXPECT_GE(stats.batches_launched, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(QuerySchedulerTest, EmptyTimeoutNeverLaunchesABatch) {
  // The flush timer only starts once a query is pending: an idle
  // scheduler must not launch (or crash on) empty batches.
  SchedFixture f = MakeSchedFixture(2000, 4);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.001;
  QueryScheduler scheduler(options);
  // Create the store's pipeline, drain it, then leave it idle.
  auto warm = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(warm.ok());
  ExpectTop3(warm->Get());
  const int64_t batches_after_warm = scheduler.stats().batches_launched;
  // Condition-driven negative check: watch the counter across many
  // multiples of the 1 ms flush window and fail fast on any spurious
  // launch, instead of asserting once after a blind sleep (which on a
  // loaded box can elapse before the flush timer ever runs).
  const auto watch_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  while (std::chrono::steady_clock::now() < watch_until) {
    ASSERT_EQ(scheduler.stats().batches_launched, batches_after_warm);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  // And the pipeline still accepts work afterwards.
  auto late = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(late.ok());
  ExpectTop3(late->Get());
}

TEST(QuerySchedulerTest, BackPressureRejectsWhenSaturated) {
  SchedFixture f = MakeSchedFixture(2000, 5);
  SchedulerOptions options = FastOptions();
  options.max_pending_per_store = 2;
  options.max_batch_queries = 8;
  // A long flush deadline keeps the first two queries pending while the
  // third arrives, so the rejection is deterministic.
  options.max_queue_wait_seconds = 5.0;
  QueryScheduler scheduler(options);

  auto a = scheduler.Submit(MakeQuery(f, 1));
  auto b = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = scheduler.Submit(MakeQuery(f, 3));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().rejected, 1);

  // Shutdown drains the pending queue; the accepted queries complete.
  scheduler.Shutdown();
  ExpectTop3(a->Get());
  ExpectTop3(b->Get());
  EXPECT_EQ(scheduler.stats().completed, 2);
}

TEST(QuerySchedulerTest, LateArrivalAfterScanEndGetsFreshBatch) {
  // Tiny store: each batch consumes every block, so a query submitted
  // after a batch retires gets a fresh batch.
  SchedFixture f = MakeSchedFixture(200, 7, /*rows_per_block=*/25);
  SchedulerOptions options = FastOptions();
  QueryScheduler scheduler(options);

  auto a = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(a.ok());
  SchedulerItem first = a->Get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();

  auto b = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(b.ok());
  SchedulerItem second = b->Get();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_launched, 2);
  EXPECT_EQ(stats.completed, 2);
}

TEST(QuerySchedulerTest, LateArrivalWaitsForTheNextBatch) {
  // Every batch is closed at launch: a follower submitted while the
  // first batch is scanning waits in the queue and launches in a batch
  // of its own.
  SchedFixture f = MakeSchedFixture(30000, 8);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.001;
  QueryScheduler scheduler(options);

  BoundQuery slow = MakeQuery(f, 1);
  slow.params.epsilon = 0.03;
  SubmitOptions track;
  track.track_progress = true;
  auto first = scheduler.Submit(std::move(slow), track);
  ASSERT_TRUE(first.ok());
  // A ProgressUpdate is published only at a chunk boundary, so the
  // first batch has launched (and may have finished) once one exists.
  for (int spin = 0; !first->Progress().has_value() && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(first->Progress().has_value())
      << "scan never reached a chunk boundary";
  auto follower = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(follower.ok());
  ExpectTop3(follower->Get());
  ExpectTop3(first->Get());
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_launched, 2);
  EXPECT_EQ(stats.completed, 2);
}

TEST(QuerySchedulerTest, SubmitValidation) {
  SchedFixture f = MakeSchedFixture(2000, 9);
  QueryScheduler scheduler(FastOptions());
  BoundQuery no_store = MakeQuery(f, 1);
  no_store.store = nullptr;
  EXPECT_EQ(scheduler.Submit(std::move(no_store)).status().code(),
            StatusCode::kInvalidArgument);
  // Priors come from the scheduler's own stage-1 cache, never the
  // caller.
  BoundQuery carries_prior = MakeQuery(f, 3);
  carries_prior.stage1_warm = std::make_shared<Stage1Snapshot>();
  EXPECT_EQ(scheduler.Submit(std::move(carries_prior)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.stats().submitted, 0);
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.Submit(MakeQuery(f, 2)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QuerySchedulerTest, PerQueryFailuresArriveThroughTheFuture) {
  SchedFixture f = MakeSchedFixture(4000, 10);
  QueryScheduler scheduler(FastOptions());
  BoundQuery bad = MakeQuery(f, 1);
  bad.target = UniformDistribution(5);  // |VX| is 8
  auto bad_future = scheduler.Submit(std::move(bad));
  ASSERT_TRUE(bad_future.ok());  // Submit accepts; execution reports
  auto good_future = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(good_future.ok());
  SchedulerItem bad_item = bad_future->Get();
  EXPECT_EQ(bad_item.status.code(), StatusCode::kInvalidArgument);
  ExpectTop3(good_future->Get());
}

TEST(QueryLifecycleTest, DeadlineExceededWhileQueued) {
  // A 5-second flush window would normally hold the lone query for the
  // whole wait; its 5 ms queue deadline must shed it long before that,
  // with DeadlineExceeded, and without launching any batch.
  SchedFixture f = MakeSchedFixture(2000, 20);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 5.0;
  QueryScheduler scheduler(options);

  SubmitOptions submit;
  submit.deadline_seconds = 0.005;
  auto handle = scheduler.Submit(MakeQuery(f, 1), submit);
  ASSERT_TRUE(handle.ok());
  SchedulerItem item = handle->Get();
  EXPECT_EQ(item.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(item.queue_seconds, 0.005);

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.batches_launched, 0);
}

TEST(QueryLifecycleTest, MixedDeadlinesShedOnlyTheExpired) {
  // Two queries gathered together: the one with a generous deadline
  // runs, the one with a tiny deadline is shed at the same boundary.
  SchedFixture f = MakeSchedFixture(2000, 21);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.05;
  QueryScheduler scheduler(options);

  SubmitOptions tight;
  tight.deadline_seconds = 0.002;
  SubmitOptions loose;
  loose.deadline_seconds = 60.0;
  auto doomed = scheduler.Submit(MakeQuery(f, 1), tight);
  auto fine = scheduler.Submit(MakeQuery(f, 2), loose);
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(doomed->Get().status.code(), StatusCode::kDeadlineExceeded);
  ExpectTop3(fine->Get());
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1);
}

TEST(QueryLifecycleTest, UnboundedDeadlineAndBudgetNeverExpire) {
  // A deadline or budget too long for the clock (1e10 s is past its
  // int64 nanosecond range; +inf) saturates to "never" instead of
  // wrapping into the past and expiring at once.
  SchedFixture f = MakeSchedFixture(2000, 25);
  QueryScheduler scheduler(FastOptions());
  for (double seconds : {1e10, std::numeric_limits<double>::infinity()}) {
    SubmitOptions deadline;
    deadline.deadline_seconds = seconds;
    SubmitOptions budget;
    budget.budget_seconds = seconds;
    SubmitOptions both = deadline;
    both.budget_seconds = seconds;
    for (const SubmitOptions& submit : {deadline, budget, both}) {
      auto handle = scheduler.Submit(MakeQuery(f, 3), submit);
      ASSERT_TRUE(handle.ok());
      SchedulerItem item = handle->Get();
      ExpectTop3(item);
      EXPECT_FALSE(item.match.best_effort);
    }
  }
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 0);
  EXPECT_EQ(scheduler.stats().budget_evicted, 0);
}

TEST(QueryLifecycleTest, CancelWhileQueuedShedsBeforeLaunch) {
  // Cancel lands while the query is still queued (its batch is waiting
  // to fill): the flush boundary sheds it with Cancelled and never
  // runs it.
  SchedFixture f = MakeSchedFixture(2000, 22);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.05;
  QueryScheduler scheduler(options);

  auto handle = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(handle.ok());
  handle->Cancel();
  SchedulerItem item = handle->Get();
  EXPECT_EQ(item.status.code(), StatusCode::kCancelled);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.evicted, 0);
  EXPECT_EQ(stats.batches_launched, 0);
}

TEST(QueryLifecycleTest, CancelDoorbellShedsLongBeforeFlushDeadline) {
  // The cancel doorbell: Cancel() on a queued query rings the
  // pipeline's cv, so the shed happens at the ring — not at the flush
  // deadline. With a 60-second queue window, a future that resolves in
  // milliseconds is only explainable by the doorbell (pre-doorbell, the
  // gather slept the full window before noticing the cancel flag).
  SchedFixture f = MakeSchedFixture(2000, 29);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 60.0;
  QueryScheduler scheduler(options);

  auto handle = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(handle.ok());
  const auto start = std::chrono::steady_clock::now();
  handle->Cancel();
  SchedulerItem item = handle->Get();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(item.status.code(), StatusCode::kCancelled);
  // Generous bound for loaded CI machines; still 6x below the only
  // other wake-up the gather has.
  EXPECT_LT(seconds, 10.0);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.batches_launched, 0);
}

TEST(QueryLifecycleTest, CancelRunningQueryEvictsFromBatch) {
  // A slow scan (tight epsilon over a larger store) cancelled
  // mid-flight: the query is evicted at a chunk boundary and its future
  // resolves Cancelled well before the scan could have finished.
  SchedFixture f = MakeSchedFixture(30000, 23);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.001;
  QueryScheduler scheduler(options);

  BoundQuery slow = MakeQuery(f, 1);
  slow.params.epsilon = 0.03;
  auto handle = scheduler.Submit(std::move(slow));
  ASSERT_TRUE(handle.ok());
  for (int spin = 0; scheduler.stats().batches_launched < 1 && spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GE(scheduler.stats().batches_launched, 1);

  handle->Cancel();
  SchedulerItem item = handle->Get();
  // The cancel usually wins (the scan has 100+ chunks to go), but a
  // completion racing it is legal — then the result must be intact.
  if (item.status.code() == StatusCode::kCancelled) {
    EXPECT_EQ(scheduler.stats().evicted, 1);
    EXPECT_EQ(scheduler.stats().cancelled, 1);
  } else {
    ExpectTop3(item);
  }
}

TEST(QueryLifecycleTest, AbandonedHandleCancelsTheQuery) {
  // Destroying a handle without taking its result abandons the query;
  // the scheduler stops spending scan work on it (evicts it) instead of
  // running it to completion for nobody.
  SchedFixture f = MakeSchedFixture(30000, 24);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.001;
  QueryScheduler scheduler(options);
  {
    BoundQuery slow = MakeQuery(f, 1);
    slow.params.epsilon = 0.03;
    auto handle = scheduler.Submit(std::move(slow));
    ASSERT_TRUE(handle.ok());
    for (int spin = 0; scheduler.stats().batches_launched < 1 && spin < 10000;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }  // handle dropped here without Get(): abandoned
  // The pipeline observes the cancel at the next chunk boundary.
  for (int spin = 0; scheduler.stats().completed < 1 && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 1);
  // Cancelled unless the machine won the race (then it completed OK).
  EXPECT_LE(stats.cancelled, 1);
  EXPECT_EQ(stats.cancelled, stats.evicted);
}

TEST(QueryLifecycleTest, EagerDeliveryFulfillsBeforeBatchRetire) {
  // Two queries in one batch: a loose-epsilon query finishes its
  // machine long before a tight-epsilon one. With eager delivery the
  // fast query's future resolves while the batch is still in flight,
  // so only it counts as completed when its Get() returns. The slow
  // machine needs only a few more milliseconds, which a loaded host can
  // sleep through before the check: bounded retries.
  SchedFixture f = MakeSchedFixture(30000, 25);
  SchedulerOptions options = FastOptions();
  options.max_batch_queries = 2;  // launch as soon as both are queued
  options.max_queue_wait_seconds = 5.0;
  bool eager = false;
  for (int attempt = 0; attempt < 20 && !eager; ++attempt) {
    QueryScheduler scheduler(options);
    BoundQuery slow = MakeQuery(f, 1);
    slow.params.epsilon = 0.03;
    BoundQuery fast = MakeQuery(f, 2);
    fast.params.epsilon = 0.2;
    auto slow_handle = scheduler.Submit(std::move(slow));
    auto fast_handle = scheduler.Submit(std::move(fast));
    ASSERT_TRUE(slow_handle.ok());
    ASSERT_TRUE(fast_handle.ok());

    ExpectTop3(fast_handle->Get());
    eager = scheduler.stats().completed == 1;
    ExpectTop3(slow_handle->Get());
    EXPECT_EQ(scheduler.stats().completed, 2);
  }
  EXPECT_TRUE(eager)
      << "the fast future never resolved before the slow query finished";
}

TEST(QueryLifecycleTest, IdlePipelineIsReapedAndStoreRecovers) {
  // A pipeline idle past the timeout is reaped (driver joined, counter
  // ticks); the same store transparently gets a fresh pipeline on its
  // next Submit.
  SchedFixture f = MakeSchedFixture(2000, 27);
  SchedulerOptions options = FastOptions();
  options.idle_pipeline_timeout_seconds = 0.02;
  QueryScheduler scheduler(options);

  auto warm = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(warm.ok());
  ExpectTop3(warm->Get());
  EXPECT_EQ(scheduler.stats().pipelines, 1);

  for (int spin = 0; scheduler.stats().pipelines_reaped < 1 && spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_EQ(scheduler.stats().pipelines_reaped, 1);

  auto late = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(late.ok());
  ExpectTop3(late->Get());
  EXPECT_EQ(scheduler.stats().pipelines, 2);
}

TEST(QueryLifecycleTest, FreedStoreAddressReuseDoesNotAliasDeadPipeline) {
  // Pipelines are keyed by ColumnStore::id(), not the store pointer:
  // even if a new store lands at a freed store's exact address, it must
  // get its own pipeline, not the dead store's.
  SchedulerOptions options = FastOptions();
  options.idle_pipeline_timeout_seconds = 0.02;
  QueryScheduler scheduler(options);

  const ColumnStore* first_address = nullptr;
  {
    SchedFixture f = MakeSchedFixture(2000, 28);
    first_address = f.store.get();
    auto handle = scheduler.Submit(MakeQuery(f, 1));
    ASSERT_TRUE(handle.ok());
    ExpectTop3(handle->Get());
  }  // the store (and every query referencing it) is freed here
  for (int spin = 0; scheduler.stats().pipelines_reaped < 1 && spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_EQ(scheduler.stats().pipelines_reaped, 1);

  // A new store — same address or not, its id() differs, so it must
  // route to a fresh pipeline and complete normally.
  SchedFixture g = MakeSchedFixture(2000, 29);
  auto handle = scheduler.Submit(MakeQuery(g, 2));
  ASSERT_TRUE(handle.ok());
  ExpectTop3(handle->Get());
  EXPECT_EQ(scheduler.stats().pipelines, 2);
  // Not asserted (the allocator decides), but the scenario is real:
  // address reuse is why the key is the id.
  (void)first_address;
}

TEST(QueryLifecycleTest, FreshPipelineIsNotReapedBeforeItsFirstQuery) {
  // Submit enqueues under the scheduler lock the janitor claims
  // pipelines under, so even a sub-millisecond idle timeout cannot reap
  // a store's new pipeline before its first query is pending: one query
  // on each of N fresh stores makes exactly N pipelines.
  SchedulerOptions options = FastOptions();
  options.idle_pipeline_timeout_seconds = 1e-4;
  QueryScheduler scheduler(options);
  constexpr int kStores = 16;
  std::vector<SchedFixture> stores;
  for (int i = 0; i < kStores; ++i) {
    stores.push_back(MakeSchedFixture(500, 300 + static_cast<uint64_t>(i)));
  }
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kStores; ++i) {
    auto handle = scheduler.Submit(MakeQuery(stores[static_cast<size_t>(i)],
                                             static_cast<uint64_t>(i) + 1));
    ASSERT_TRUE(handle.ok());
    handles.push_back(std::move(*handle));
  }
  for (QueryHandle& handle : handles) {
    EXPECT_TRUE(handle.Get().status.ok());
  }
  EXPECT_EQ(scheduler.stats().pipelines, kStores);
}

TEST(QueryLifecycleTest, ShutdownResolvesEveryAcceptedQuery) {
  // Queries parked behind a 5-second flush window when Shutdown hits:
  // the drain must resolve every accepted future exactly once, each in
  // a terminal state from {result, DeadlineExceeded, Cancelled,
  // Unavailable} — no hangs, no leaks.
  SchedFixture f = MakeSchedFixture(2000, 30);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 5.0;
  options.max_batch_queries = 16;
  QueryScheduler scheduler(options);

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 6; ++i) {
    auto handle = scheduler.Submit(MakeQuery(f, 100 + i));
    ASSERT_TRUE(handle.ok());
    handles.push_back(std::move(*handle));
  }
  handles[1].Cancel();
  SubmitOptions tight;
  tight.deadline_seconds = 1e-9;  // already expired at the drain
  auto doomed = scheduler.Submit(MakeQuery(f, 200), tight);
  ASSERT_TRUE(doomed.ok());
  handles.push_back(std::move(*doomed));

  scheduler.Shutdown();

  int results = 0, terminal = 0;
  for (auto& handle : handles) {
    SchedulerItem item = handle.Get();  // must not hang
    switch (item.status.code()) {
      case StatusCode::kOk:
        ++results;
        break;
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kCancelled:
      case StatusCode::kUnavailable:
        ++terminal;
        break;
      default:
        FAIL() << "unexpected terminal status " << item.status.ToString();
    }
  }
  EXPECT_EQ(results + terminal, 7);
  EXPECT_GE(terminal, 2);  // the cancelled and the expired query
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 7);
  EXPECT_EQ(stats.submitted, 7);

  // And Submit after Shutdown still fails fast.
  EXPECT_EQ(scheduler.Submit(MakeQuery(f, 3)).status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- stage-1 cache
// Scheduler-level cache wiring: cold batches populate the per-store
// cache, later launches are served warm, reaping a
// pipeline invalidates its store's entries. Warm-start *correctness*
// (bit-for-bit equivalence) is proven in test_batch_executor.cc; these
// assert the scheduler drives it.

TEST(Stage1CacheSchedulerTest, DisabledByDefault) {
  SchedFixture f = MakeSchedFixture(4000, 40);
  QueryScheduler scheduler(FastOptions());
  EXPECT_EQ(scheduler.stage1_cache(), nullptr);
  auto a = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(a.ok());
  SchedulerItem item = a->Get();
  ExpectTop3(item);
  EXPECT_FALSE(item.match.diag.stage1_warm);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.stage1_lookups, 0);
  EXPECT_EQ(stats.stage1_hits, 0);
  EXPECT_EQ(stats.stage1_inserts, 0);
}

TEST(Stage1CacheSchedulerTest, SecondWaveIsServedWarm) {
  SchedFixture f = MakeSchedFixture(8000, 41);
  SchedulerOptions options = FastOptions();
  options.stage1_cache = true;
  QueryScheduler scheduler(options);
  ASSERT_NE(scheduler.stage1_cache(), nullptr);

  // Wave 1: cold. Stage-1 completions populate the cache.
  std::vector<QueryHandle> wave1;
  for (int i = 0; i < 2; ++i) {
    auto handle = scheduler.Submit(MakeQuery(f, 100 + i));
    ASSERT_TRUE(handle.ok());
    wave1.push_back(std::move(*handle));
  }
  for (auto& handle : wave1) {
    SchedulerItem item = handle.Get();
    ExpectTop3(item);
    EXPECT_FALSE(item.match.diag.stage1_warm);
  }
  SchedulerStats after_wave1 = scheduler.stats();
  EXPECT_GE(after_wave1.stage1_inserts, 1);
  EXPECT_EQ(after_wave1.stage1_hits, 0);

  // Wave 2: every query's template is warm now — all served from cache,
  // no stage-1 rows drawn from the scan.
  std::vector<QueryHandle> wave2;
  for (int i = 0; i < 2; ++i) {
    auto handle = scheduler.Submit(MakeQuery(f, 200 + i));
    ASSERT_TRUE(handle.ok());
    wave2.push_back(std::move(*handle));
  }
  for (auto& handle : wave2) {
    SchedulerItem item = handle.Get();
    ExpectTop3(item);
    EXPECT_TRUE(item.match.diag.stage1_warm);
  }
  SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.stage1_hits, 2);
  EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses);
}

TEST(Stage1CacheSchedulerTest, LateArrivalLaunchesWarmFromTheRunningBatch) {
  // A running batch publishes its stage-1 sample mid-scan. A follower
  // submitted after that publish waits for the next batch, which the
  // cache serves warm and which resumes the publishing scan.
  SchedFixture f = MakeSchedFixture(30000, 44);
  SchedulerOptions options = FastOptions();
  options.max_queue_wait_seconds = 0.001;
  options.stage1_cache = true;
  QueryScheduler scheduler(options);

  BoundQuery slow = MakeQuery(f, 1);
  slow.params.epsilon = 0.03;
  auto first = scheduler.Submit(std::move(slow));
  ASSERT_TRUE(first.ok());
  for (int spin = 0; scheduler.stats().stage1_inserts < 1 && spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GE(scheduler.stats().stage1_inserts, 1);
  auto follower = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(follower.ok());
  SchedulerItem follower_item = follower->Get();
  ExpectTop3(follower_item);
  EXPECT_TRUE(follower_item.match.diag.stage1_warm);
  ExpectTop3(first->Get());

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_launched, 2);
  EXPECT_EQ(stats.warm_batches_resumed, 1);
  // One consult per launched query: the first missed, the follower hit.
  EXPECT_EQ(stats.stage1_lookups, 2);
  EXPECT_EQ(stats.stage1_hits, 1);
}

TEST(Stage1CacheSchedulerTest, WarmWaveResumesTheDonorsScan) {
  SchedFixture f = MakeSchedFixture(8000, 45);
  SchedulerOptions options = FastOptions();
  options.stage1_cache = true;
  QueryScheduler scheduler(options);

  // Donor: one cold query end to end. Its published snapshot records
  // the scan prefix the donor consumed.
  auto donor = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(donor.ok());
  ExpectTop3(donor->Get());
  std::shared_ptr<const Stage1Snapshot> snap =
      scheduler.stage1_cache()
          ->Lookup(f.store->id(), kWholeStorePartition, 0, {1}, 1,
                   f.store->Pin().generation)
          .snapshot;
  ASSERT_NE(snap, nullptr);
  const int64_t num_blocks = f.store->num_blocks();
  const int64_t prefix_blocks = snap->scan.consumed.Popcount();
  ASSERT_GT(prefix_blocks, 0);
  ASSERT_LT(prefix_blocks, num_blocks);

  // The donor's item can be delivered eagerly at a chunk boundary,
  // before its batch retires and adds its blocks to the counter — wait
  // for that accounting so the baseline covers all donor I/O.
  for (int spin = 0; scheduler.stats().batch_blocks_read == 0 && spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  SchedulerStats before = scheduler.stats();
  ASSERT_GE(before.batch_blocks_read, prefix_blocks);
  // Warm wave: every query is served from the same snapshot, so each
  // fresh batch resumes the donor's scan instead of starting its own.
  std::vector<QueryHandle> wave;
  for (int i = 0; i < 3; ++i) {
    auto handle = scheduler.Submit(MakeQuery(f, 10 + i));
    ASSERT_TRUE(handle.ok());
    wave.push_back(std::move(*handle));
  }
  for (auto& handle : wave) {
    SchedulerItem item = handle.Get();
    ExpectTop3(item);
    EXPECT_TRUE(item.match.diag.stage1_warm);
  }

  SchedulerStats after = scheduler.stats();
  const int64_t batches = after.batches_launched - before.batches_launched;
  ASSERT_GE(batches, 1);
  // The wave may flush as one batch or several; each is all-warm from
  // the one snapshot, so each resumes.
  EXPECT_EQ(after.warm_batches_resumed - before.warm_batches_resumed, batches);
  // Zero prefix blocks re-read: a resumed batch can touch at most the
  // suffix the donor left unconsumed.
  EXPECT_LE(after.batch_blocks_read - before.batch_blocks_read,
            batches * (num_blocks - prefix_blocks));
}

TEST(Stage1CacheSchedulerTest, TwoTemplatesHitTwoSnapshotsAndLaunchCold) {
  // A batch launches warm only when every query hits ONE snapshot: that
  // snapshot's scan is the only one the batch can continue. Queries of
  // two templates hit two snapshots, so their batch launches cold.
  SchedFixture f = MakeSchedFixture(8000, 46);
  const CountMatrix exact_b = ComputeExactCounts(*f.store, 1, {0}).value();
  SchedulerOptions options = FastOptions();
  options.max_batch_queries = 2;
  options.max_queue_wait_seconds = 5.0;  // each wave launches when full
  options.stage1_cache = true;
  QueryScheduler scheduler(options);

  // Template A is (0, {1}); template B swaps the roles: (1, {0}), with
  // no bitmap index.
  const auto query_b = [&](uint64_t seed) {
    BoundQuery q = MakeQuery(f, seed);
    q.z_index = nullptr;
    q.z_attr = 1;
    q.x_attrs = {0};
    q.target = exact_b.NormalizedRow(2);
    return q;
  };
  const auto wave = [&](uint64_t seed) {
    std::vector<BoundQuery> queries = {MakeQuery(f, seed), query_b(seed + 1)};
    std::vector<QueryHandle> handles;
    for (const BoundQuery& q : queries) {
      auto handle = scheduler.Submit(q);
      EXPECT_TRUE(handle.ok());
      handles.push_back(std::move(*handle));
    }
    std::vector<SchedulerItem> items;
    for (size_t i = 0; i < handles.size(); ++i) {
      items.push_back(handles[i].Get());
      const SchedulerItem& item = items.back();
      EXPECT_TRUE(item.status.ok()) << item.status.ToString();
      EXPECT_FALSE(item.match.diag.stage1_warm);
      const CountMatrix& exact = i == 0 ? f.exact : exact_b;
      const HistSimParams& p = queries[i].params;
      const GroundTruth truth = ComputeGroundTruth(exact, queries[i].target,
                                                   p.metric, p.sigma, p.k);
      const GuaranteeCheck check = CheckGuarantees(
          item.match, exact, truth, queries[i].target, p);
      EXPECT_TRUE(check.separation_ok) << check.worst_separation;
      EXPECT_TRUE(check.reconstruction_ok) << check.worst_reconstruction;
      EXPECT_TRUE(check.exact_ok);
    }
  };

  // Wave 1 misses and publishes one snapshot per template.
  wave(100);
  ASSERT_EQ(scheduler.stage1_cache()->size(), 2);
  // Wave 2: both queries hit, but different snapshots.
  wave(200);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_launched, 2);
  EXPECT_EQ(stats.stage1_lookups, 4);
  EXPECT_EQ(stats.stage1_hits, 2);
  EXPECT_EQ(stats.warm_batches_resumed, 0);
}

TEST(Stage1CacheSchedulerTest, ReapInvalidatesTheStoresEntries) {
  SchedFixture f = MakeSchedFixture(4000, 43);
  SchedulerOptions options = FastOptions();
  options.stage1_cache = true;
  options.idle_pipeline_timeout_seconds = 0.02;
  QueryScheduler scheduler(options);

  auto a = scheduler.Submit(MakeQuery(f, 1));
  ASSERT_TRUE(a.ok());
  ExpectTop3(a->Get());
  ASSERT_GE(scheduler.stage1_cache()->size(), 1);

  // Bounded poll: the janitor reaps the idle pipeline, then drops the
  // store's cache entries.
  for (int spin = 0;
       scheduler.stats().stage1_store_invalidations < 1 && spin < 20000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.pipelines_reaped, 1);
  EXPECT_GE(stats.stage1_store_invalidations, 1);
  EXPECT_EQ(scheduler.stage1_cache()->size(), 0);

  // The store recovers transparently — and re-warms on its next batch.
  auto b = scheduler.Submit(MakeQuery(f, 2));
  ASSERT_TRUE(b.ok());
  ExpectTop3(b->Get());
  EXPECT_GE(scheduler.stats().stage1_inserts, 2);
}

}  // namespace
}  // namespace fastmatch
