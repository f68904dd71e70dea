// Service-tier query scheduling: cross-store batching with per-query
// lifecycle management.
//
// engine::BatchExecutor amortizes block reads across queries, but it
// executes one batch over one ColumnStore. A service endpoint sees an
// open stream of queries over many stores, so something has to (a) group
// arrivals by store, (b) decide batch boundaries — the latency/
// amortization trade-off: waiting longer packs more queries per scan,
// answering sooner cuts queue time — and (c) push back when the worker
// pool saturates. QueryScheduler is that tier.
//
// One pipeline per store (keyed by the store's identity token,
// ColumnStore::id(), never an address), each with its own driver
// thread while the store has queued or running work.
//
//   Submit(query) ──► per-store pending queue (bounded: back-pressure)
//                          │
//                          ▼  launch when the batch is full, the oldest
//                          │  arrival has waited max_queue_wait_seconds,
//                          │  or the scheduler is draining
//                          ▼
//                 BatchExecutor Start/Step loop (shared scan, block
//                 reads on the process-wide SharedWorkerPool under the
//                 batch's quota)
//                          ▲
//                          │  between chunks: expired/cancelled queued
//                          │  queries are shed, cancelled running
//                          │  queries are Evict()ed, and finished
//                          │  machines' futures are fulfilled eagerly
//
// A batch is closed at launch: a query that arrives while its store's
// batch runs waits in the queue for the next one.
//
// Query lifecycle. Every accepted Submit terminates in EXACTLY one of
// four states, delivered through the handle's future exactly once:
//
//   queued ──► admitted ──► delivered        (item.status: result or a
//     │            │                          per-query error)
//     │            ├──► evicted               Cancelled
//     │            └──► budget-evicted        OK, best-effort result
//     ├──► shed (deadline passed in queue)    DeadlineExceeded
//     ├──► shed (cancelled in queue)          Cancelled
//     └──► shed (scheduler tearing down)      Unavailable
//
// Deadlines bound QUEUE time: a query that has not entered a scan when
// its deadline passes is shed with DeadlineExceeded at the next
// scheduling boundary (queue wait, chunk boundary, or launch). Once
// admitted, a query runs to completion unless cancelled or past its
// EXECUTION budget (SubmitOptions::budget_seconds, which starts at
// admission): a budget expiry harvests the query at the next chunk
// boundary into a best-effort result with honest non-exact error bars —
// an OK answer, never an error (and never if the machine completed
// first: the exact result always wins the race). Anytime streaming
// rides the same chunk boundaries: a query submitted with
// track_progress / on_progress surfaces its current top-k with
// per-candidate Theorem-1 error bars (ProgressUpdate) after every chunk,
// published by the driver with no pipeline lock held. Only such a query
// pays for its snapshots: the executor never builds one for a query
// that opted out. Cancel() — or abandoning the QueryHandle without
// taking its result — marks the query; a queued query is shed, a
// running query is evicted from the batch at the next chunk boundary
// (its template's contribution leaves the union block demand, so
// abandoned queries stop consuming scan work). A cancel that races
// completion loses benignly: the finished result is delivered.
//
// Eager delivery: a query's future is fulfilled the moment its HistSim
// machine completes mid-scan, not when the whole batch retires — the
// paper's per-query latency bound made real at the service boundary.
// The executor's completion callback is the only delivery path; there
// is no retire-time sweep.
//
// Threads. Submit may be called from any thread; QueryHandle::Cancel is
// thread-safe. Each pipeline thread is the only driver of its
// executors, so BatchExecutor itself needs no locking; the pipeline's
// pending deque is the sole shared state (one mutex per store). Block
// reads run on one process-wide SharedWorkerPool with per-batch quotas,
// so total worker threads stay bounded no matter how many stores are
// live. A driver exists only while its store has work: the Submit that
// finds no pipeline for the store starts one, and the driver exits as
// soon as its queue is empty after a batch, removing its own pipeline.
// The next Submit (or Shutdown) joins the exited thread.

#ifndef FASTMATCH_SERVICE_QUERY_SCHEDULER_H_
#define FASTMATCH_SERVICE_QUERY_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "service/stage1_cache.h"
#include "util/result.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace fastmatch {

/// \brief Admission, batching, and lifecycle policy for the scheduler.
struct SchedulerOptions {
  /// Per-batch executor knobs (quota, chunk size, seed). batch.shared_pool
  /// is overridden by the scheduler: every batch runs on `pool` (or the
  /// process pool) with batch.num_threads as its concurrency quota.
  BatchOptions batch;
  /// Maximum queries per executor. A pipeline launches as soon as this
  /// many are pending.
  int max_batch_queries = 16;
  /// A pending query waits at most this long for the batch to fill; the
  /// pipeline then launches a partial batch (never an empty one).
  double max_queue_wait_seconds = 0.010;
  /// Back-pressure bound: Submit returns ResourceExhausted once a
  /// store's pending queue holds this many queries.
  int max_pending_per_store = 1024;
  /// Must stay false (the constructor CHECKs it): every batch is closed
  /// at launch. Kept only because the systems benchmark assigns it; it
  /// goes when the benchmark stops naming it (ROADMAP item 1).
  bool allow_joins = false;
  /// Per-store stage-1 sample cache (service Stage1Cache): stage-1
  /// snapshots exported by running batches are served back to later
  /// queries on the same (store, template), which skip stage 1
  /// entirely: a batch whose every query hits one snapshot resumes that
  /// snapshot's scan, and any other batch launches cold. Entries outlive
  /// the store's driver; the cache keeps Stage1CacheOptions' default
  /// capacity. Off by default, so every query pays its own stage 1
  /// unless the caller opts in (perfbench's dashboards run with it on).
  bool stage1_cache = false;
  /// Worker pool for every batch's block reads. nullptr selects the
  /// process-wide SharedWorkerPool::Process(). A non-null pool must
  /// outlive the scheduler.
  SharedWorkerPool* pool = nullptr;
};

/// \brief Per-Submit lifecycle knobs.
struct SubmitOptions {
  /// Queue-time budget, relative to Submit. A query still queued when
  /// the budget elapses is shed with DeadlineExceeded; once admitted
  /// into a scan it runs to completion (subject to budget_seconds).
  /// <= 0 means no deadline; one too long for the clock (+inf) never
  /// expires.
  double deadline_seconds = 0;
  /// EXECUTION budget, relative to admission into a scan (where
  /// deadline_seconds stops). A query still running when the budget
  /// elapses is evicted at the next chunk boundary and its future is
  /// fulfilled with a best-effort result: status OK,
  /// MatchResult::best_effort = true, and honest non-exact error bars
  /// over the sample pooled so far — NOT DeadlineExceeded. A budget
  /// expiry that races the machine's own completion loses benignly:
  /// the completed exact result is delivered. <= 0 means no budget; one
  /// too long for the clock (+inf) never expires.
  double budget_seconds = 0;
  /// Allocate a poll channel for this query: QueryHandle::Progress()
  /// then returns the latest anytime snapshot (see ProgressUpdate)
  /// published at each chunk boundary of the query's scan.
  bool track_progress = false;
  /// Streaming variant: invoked at every chunk boundary with the
  /// query's current anytime snapshot, and once more with
  /// final_update = true mirroring the delivered result bit-for-bit
  /// (OK terminals only). Runs on the store pipeline's driver thread —
  /// it must be fast and must not call back into the scheduler.
  std::function<void(const ProgressUpdate&)> on_progress;
};

/// \brief Counters describing scheduler behaviour (monotonic; snapshot
/// via QueryScheduler::stats()).
///
/// The stage1_* counters are the scheduler's Stage1Cache's own (all zero
/// when the cache is disabled). A launch consults the cache once for
/// each of its queries, so a lookup is one launched query. A hit
/// warm-starts its query only when the whole batch hits one snapshot
/// (warm_batches_resumed); otherwise the batch launches cold.
struct SchedulerStats : Stage1CacheStats {
  int64_t submitted = 0;          // accepted by Submit
  int64_t rejected = 0;           // refused by back-pressure
  int64_t completed = 0;          // futures fulfilled (any terminal state)
  int64_t batches_launched = 0;   // executors created
  int64_t timeout_flushes = 0;    // partial batches launched on deadline
  int64_t pipelines = 0;          // driver threads started
  int64_t deadline_exceeded = 0;  // shed while queued, deadline passed
  int64_t cancelled = 0;          // terminal Cancelled (queued + evicted)
  int64_t evicted = 0;            // removed from a running batch (cancel)
  // Execution budget expiries: queries harvested from a running batch
  // with a best-effort result. These terminate OK (counted in
  // `completed` like any delivered result) and NEVER under
  // deadline_exceeded or cancelled — the budget path delivers an
  // answer, not an error.
  int64_t budget_evicted = 0;
  int64_t unavailable = 0;        // shed by scheduler teardown
  // Warm-batch resume.
  int64_t warm_batches_resumed = 0;   // batches whose every query hit one
                                      // snapshot, launched warm with
                                      // BatchOptions::resume = snapshot.scan
                                      // (the donor's prefix is never re-read)
  int64_t batch_blocks_read = 0;      // blocks read across all retired
                                      // batches (executor stats, summed)
  int64_t batch_progress_snapshots = 0;  // progress updates built across
                                         // all retired batches; only
                                         // queries with a progress
                                         // consumer get any
};

/// \brief Per-query outcome delivered through the handle's future.
struct SchedulerItem {
  /// Terminal state: OK (match valid), a per-query execution error, or
  /// one of the lifecycle codes DeadlineExceeded / Cancelled /
  /// Unavailable.
  Status status;
  /// Valid when status.ok().
  MatchResult match;
  /// Seconds from Submit until the query entered a scan (queueing), or
  /// until it was shed for queries that never entered one.
  double queue_seconds = 0;
  /// Seconds from Submit until the query's machine completed (queueing
  /// + execution). The future is fulfilled at that same moment (eager
  /// delivery).
  double total_seconds = 0;
};

class QueryScheduler;

/// \brief Latest-value mailbox for one query's anytime snapshots: the
/// pipeline driver publishes at each chunk boundary, any thread polls.
/// Its mutex is a LEAF of the lock hierarchy (held only around the
/// copy; Publish/Latest never take scheduler or pipeline locks), and
/// the driver publishes with NO pipeline lock held — the same
/// discipline as promise resolution.
class ProgressChannel {
 public:
  /// \brief Replaces the latest snapshot (driver thread).
  void Publish(const ProgressUpdate& update) FASTMATCH_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    latest_ = update;
    has_update_ = true;
  }

  /// \brief The most recent snapshot, or nullopt before the first
  /// publish. Safe from any thread.
  std::optional<ProgressUpdate> Latest() const FASTMATCH_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (!has_update_) return std::nullopt;
    return latest_;
  }

 private:
  mutable Mutex mu_;
  ProgressUpdate latest_ FASTMATCH_GUARDED_BY(mu_);
  bool has_update_ FASTMATCH_GUARDED_BY(mu_) = false;
};

/// \brief One query's cancellation state: a sticky flag plus a doorbell
/// that wakes the query's pipeline driver so a cancelled QUEUED query
/// is shed immediately instead of at the next flush wakeup.
///
/// The doorbell is installed at construction and immutable afterwards
/// (no set-after-publish race); it must be safe to invoke from any
/// thread at any time, including after the scheduler is gone — the
/// scheduler passes a weak_ptr-guarded notify.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::function<void()> doorbell)
      : doorbell_(std::move(doorbell)) {}

  /// \brief Sets the flag (idempotent) and rings the doorbell on the
  /// first call. The scheduler's doorbell takes the pipeline lock
  /// briefly, so this must not be called while holding it.
  void Cancel() {
    if (!cancelled_.exchange(true, std::memory_order_relaxed) &&
        doorbell_ != nullptr) {
      doorbell_();
    }
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  const std::function<void()> doorbell_;
};

/// \brief Move-only owner of one submitted query's outcome: a future
/// plus a cancellation token.
///
/// Cancel() (thread-safe, idempotent) requests the query be shed from
/// the queue or evicted from its running batch at the next scheduling
/// boundary; the future then resolves with status Cancelled — unless
/// the result had already been produced, in which case it is delivered
/// (a cancel can never un-happen a completion, and every future
/// resolves exactly once either way).
///
/// Destroying a handle whose result was never taken counts as
/// abandoning the query and cancels it: callers that walk away stop
/// consuming scan work without any explicit bookkeeping.
class QueryHandle {
 public:
  QueryHandle() = default;
  QueryHandle(QueryHandle&&) = default;
  /// Overwriting a handle abandons its current query exactly like
  /// destruction does — the old query must not keep running for nobody.
  QueryHandle& operator=(QueryHandle&& other) noexcept {
    if (this != &other) {
      if (future_.valid()) Cancel();
      cancel_ = std::move(other.cancel_);
      future_ = std::move(other.future_);
      progress_ = std::move(other.progress_);
    }
    return *this;
  }
  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  /// \brief Cancels the query if its result has not been taken.
  ~QueryHandle() {
    if (future_.valid()) Cancel();
  }

  /// \brief Requests cancellation. Safe from any thread, any time,
  /// including after the scheduler is gone; takes the pipeline lock
  /// briefly (never while the scheduler holds it). Rings the
  /// pipeline's doorbell so a queued query is shed (and its future
  /// resolved Cancelled) at the next driver wakeup, not the next flush
  /// deadline.
  void Cancel() {
    if (cancel_ != nullptr) cancel_->Cancel();
  }

  /// \brief Blocks for the terminal outcome. Valid exactly once.
  SchedulerItem Get() { return future_.get(); }

  /// \brief The query's latest anytime snapshot, or nullopt before the
  /// first chunk boundary of its scan (or when the query was submitted
  /// without SubmitOptions::track_progress). Safe from any thread; never
  /// blocks on the scan. The last snapshot before the future resolves
  /// has final_update = true and mirrors the delivered result.
  std::optional<ProgressUpdate> Progress() const {
    if (progress_ == nullptr) return std::nullopt;
    return progress_->Latest();
  }

  /// \brief True until Get() consumes the outcome.
  bool valid() const { return future_.valid(); }

  /// \brief The underlying future, for callers composing their own
  /// waits (timed wait_for, select loops). Get()/future().get() may be
  /// used interchangeably, once in total.
  std::future<SchedulerItem>& future() { return future_; }

 private:
  friend class QueryScheduler;
  std::shared_ptr<CancelToken> cancel_;
  std::future<SchedulerItem> future_;
  std::shared_ptr<ProgressChannel> progress_;
};

/// \brief Routes a stream of BoundQuerys to per-store shared-scan
/// pipelines with per-query lifecycle management (deadlines,
/// cancellation, eager delivery, on-demand drivers).
class QueryScheduler {
 public:
  explicit QueryScheduler(SchedulerOptions options);

  /// \brief Drains and joins every pipeline (Shutdown()).
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// \brief Enqueues a query on its store's pipeline (created, with its
  /// driver, whenever the store has none) and returns its handle.
  /// Fails fast with ResourceExhausted when the store's pending queue
  /// is full, with InvalidArgument for a query without a store or one
  /// that already carries a stage-1 prior (priors come from the
  /// scheduler's own cache), and with FailedPrecondition after
  /// Shutdown(). Per-query execution
  /// problems are NOT Submit errors; they arrive as the future's item
  /// status. Every accepted Submit's future resolves exactly once with
  /// a result, DeadlineExceeded, Cancelled, or Unavailable — including
  /// across Shutdown() and driver-exit races.
  Result<QueryHandle> Submit(BoundQuery query, SubmitOptions submit = {})
      FASTMATCH_EXCLUDES(mu_);

  /// \brief Stops accepting queries, drains every pending and running
  /// batch (all outstanding futures resolve), and joins every driver
  /// thread. Idempotent; called by the destructor.
  void Shutdown() FASTMATCH_EXCLUDES(mu_, shutdown_mu_);

  /// \brief One consistent snapshot of the behaviour counters. CHECKs
  /// the counter invariants: stage1_lookups == stage1_hits +
  /// stage1_misses, completed <= submitted, evicted <= cancelled, and
  /// deadline_exceeded + cancelled + unavailable <= completed.
  SchedulerStats stats() const FASTMATCH_EXCLUDES(stats_mu_);

  /// \brief The stage-1 cache, or nullptr when disabled. Exposed for
  /// tests and tools; thread-safe.
  Stage1Cache* stage1_cache() { return stage1_cache_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// One query from Submit to delivery. Submit builds it; it waits in
  /// the pipeline's pending queue and then moves whole into a batch,
  /// where its position is the executor's item index.
  struct Ticket {
    BoundQuery query;
    std::promise<SchedulerItem> promise;
    std::shared_ptr<CancelToken> cancel;
    Clock::time_point enqueued;
    /// Queue-time budget; time_point::max() when none.
    Clock::time_point deadline;
    /// Execution budget (seconds, <= 0 none); starts at `admitted`.
    double budget_seconds = 0;
    /// The query's one progress consumer: publishes to the poll channel
    /// (track_progress), then calls SubmitOptions::on_progress. Empty
    /// when the query opted out of both, so the executor builds no
    /// snapshot for it.
    std::function<void(const ProgressUpdate&)> progress_sink;
    /// Entry into a scan: queue time ends, the execution budget starts.
    /// The clock's epoch until the batch launches.
    Clock::time_point admitted;
    /// Promise resolved: exactly once, from the completion callback
    /// (eager delivery, eviction or harvest), or with the Create status
    /// when the batch's executor cannot be built. The chunk-boundary
    /// pass skips such tickets; RunBatch checks every ticket has it once
    /// the executor finishes.
    bool fulfilled = false;
  };

  /// Per-store pipeline: bounded pending queue + driver thread. It
  /// lives in the map exactly as long as its driver runs.
  /// `mu` sits below the scheduler's map lock mu_ in the hierarchy
  /// (Submit enqueues and the driver decides to exit under both) and
  /// above the Stage1Cache/SharedWorkerPool/stats leaf locks.
  struct Pipeline {
    Mutex mu;
    CondVar cv;
    std::deque<Ticket> pending FASTMATCH_GUARDED_BY(mu);
    // Shutdown drain: launch without waiting for a full batch
    bool shutdown FASTMATCH_GUARDED_BY(mu) = false;
    /// The driver. Guarded by the scheduler's mu_: Submit starts it
    /// under mu_, and the driver moves it to exited_ under mu_ when it
    /// leaves the map.
    std::thread thread;
  };

  /// A pending query shed before admission, with its terminal status.
  using Shed = std::pair<Ticket, Status>;

  /// The driver: runs batches until the queue is empty, then removes
  /// the store's map entry and hands its own thread to exited_.
  void PipelineLoop(std::shared_ptr<Pipeline> pipeline, uint64_t store_id)
      FASTMATCH_EXCLUDES(mu_);
  /// Pops pending tickets into a full-or-flushed launch batch. Returns
  /// false once the queue is empty (after shedding).
  bool GatherLaunchBatch(Pipeline* pipeline, std::vector<Ticket>* batch)
      FASTMATCH_EXCLUDES(pipeline->mu);
  /// Runs one executor to completion: sheds and evictions happen at
  /// chunk boundaries, deliveries the moment each query completes.
  void RunBatch(Pipeline* pipeline, std::vector<Ticket> batch)
      FASTMATCH_EXCLUDES(pipeline->mu);
  /// Removes cancelled/expired entries from the pending deque; terminal
  /// fulfillment happens in FulfillShed, outside the lock (the
  /// promise-resolution rule, now compiler-visible: this method REQUIRES
  /// the lock FulfillShed must not run under).
  void ShedLocked(Pipeline* pipeline, std::vector<Shed>* shed)
      FASTMATCH_REQUIRES(pipeline->mu);
  /// True when any queued query's cancel flag is set — the condition
  /// the cancel doorbell wakes the gather wait to re-test.
  bool HasCancelledLocked(Pipeline* pipeline) const
      FASTMATCH_REQUIRES(pipeline->mu);
  /// Shed pass: lock, ShedLocked, unlock, FulfillShed.
  void ShedPending(Pipeline* pipeline) FASTMATCH_EXCLUDES(pipeline->mu);
  /// Resolves shed promises. Must run with NO pipeline lock held: a
  /// woken waiter may re-enter the scheduler (Submit, stats) from the
  /// future's continuation.
  void FulfillShed(std::vector<Shed> shed);
  /// The chunk-boundary eviction pass over the running batch. A
  /// cancelled query is Evict()ed; otherwise a query past its execution
  /// budget is harvested by EvictWithResult() into a best-effort item
  /// (status OK, MatchResult::best_effort). Either item rides the
  /// completion callback. An eviction racing the machine's completion
  /// loses: the finished result is delivered.
  void EvictAtBoundary(BatchExecutor* executor, std::vector<Ticket>* batch);
  /// Looks every query of a launching batch up in the stage-1 cache,
  /// once each, and returns the snapshot they all hit, or null when the
  /// cache is disabled, any query misses, or two hit different
  /// snapshots. The lookups carry the generation of one pin taken here,
  /// and only an entry drawn at that generation hits. The cache lock is
  /// a leaf: callers may hold a pipeline lock.
  std::shared_ptr<const Stage1Snapshot> SharedWarmSnapshot(
      const std::vector<BoundQuery>& queries);
  /// Adds `n` to `field`. stats_mu_ is a leaf: callers may hold any
  /// scheduler or pipeline lock.
  void Count(int64_t SchedulerStats::*field, int64_t n = 1)
      FASTMATCH_EXCLUDES(stats_mu_);

  /// Builds the ticket's SchedulerItem — queue time from enqueue to
  /// `queued_until`, total time from enqueue to `finished` — counts it
  /// completed together with its terminal status (and, for an admitted
  /// ticket resolving Cancelled, its eviction), and resolves the
  /// promise, exactly once. The count lands BEFORE set_value so a woken
  /// waiter never observes a stats() snapshot missing its query.
  void Deliver(Ticket* ticket, Status status, MatchResult match,
               Clock::time_point queued_until, Clock::time_point finished)
      FASTMATCH_EXCLUDES(stats_mu_);

  const SchedulerOptions options_;
  SharedWorkerPool* const pool_;  // options_.pool or the process pool
  /// Created when options_.stage1_cache; executors publish into it
  /// (BatchOptions::stage1_sink) and each launch Looks it up.
  /// Internally locked (leaf) — safe from any pipeline thread. The
  /// pointer itself is immutable after construction.
  const std::unique_ptr<Stage1Cache> stage1_cache_;

  /// Serializes Shutdown callers end to end; top of the lock hierarchy.
  Mutex shutdown_mu_;
  /// Map lock: pipelines_ / exited_ / shutdown_. Acquired after
  /// shutdown_mu_ and before any Pipeline::mu (Submit enqueues and a
  /// driver decides to exit under both).
  Mutex mu_ FASTMATCH_ACQUIRED_AFTER(shutdown_mu_);
  /// Notified when a driver leaves the map; Shutdown waits on it for
  /// the map to empty.
  CondVar exit_cv_;
  /// Keyed by ColumnStore::id(), NOT the store pointer: a freed store's
  /// address can be recycled for a new store, which must not alias the
  /// dead store's pipeline. shared_ptr, not unique_ptr: the driver owns
  /// a reference past its map entry, the cancel doorbell holds a
  /// weak_ptr (handles outlive pipelines), and Submit rings the
  /// pipeline's cv after releasing mu_.
  std::map<uint64_t, std::shared_ptr<Pipeline>> pipelines_
      FASTMATCH_GUARDED_BY(mu_);
  /// Threads of drivers that left the map. Each has finished its work
  /// and is returning; the next Submit or Shutdown joins it.
  std::vector<std::thread> exited_ FASTMATCH_GUARDED_BY(mu_);
  bool shutdown_ FASTMATCH_GUARDED_BY(mu_) = false;
  /// Leaf lock over the one counter record stats() copies whole.
  mutable Mutex stats_mu_;
  SchedulerStats stats_ FASTMATCH_GUARDED_BY(stats_mu_);
};

}  // namespace fastmatch

#endif  // FASTMATCH_SERVICE_QUERY_SCHEDULER_H_
