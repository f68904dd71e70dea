#include "service/query_scheduler.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace fastmatch {

namespace {

double ToSeconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::chrono::steady_clock::duration FromSeconds(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// `t` plus `seconds`, saturating at time_point::max(): a wait too long
/// for the clock (1e10 s, +inf) never expires. Such a wait would
/// overflow the clock's int64 ticks, so it is compared first, in
/// seconds, with a second's margin for the double's rounding.
std::chrono::steady_clock::time_point After(
    std::chrono::steady_clock::time_point t, double seconds) {
  using TimePoint = std::chrono::steady_clock::time_point;
  if (!(seconds < ToSeconds(TimePoint::max() - t) - 1.0)) {
    return TimePoint::max();
  }
  return t + FromSeconds(seconds);
}

/// The query's one progress consumer: publishes to `channel` (when
/// tracked), then calls `hook`, so a hook that polls the handle sees the
/// update it is handed. Empty when the query has neither.
std::function<void(const ProgressUpdate&)> MakeProgressSink(
    std::shared_ptr<ProgressChannel> channel,
    std::function<void(const ProgressUpdate&)> hook) {
  if (channel == nullptr && !hook) return nullptr;
  return [channel = std::move(channel),
          hook = std::move(hook)](const ProgressUpdate& update) {
    if (channel != nullptr) channel->Publish(update);
    if (hook) hook(update);
  };
}

}  // namespace

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool
                                     : &SharedWorkerPool::Process()),
      stage1_cache_(options_.stage1_cache ? std::make_unique<Stage1Cache>()
                                          : nullptr) {
  FASTMATCH_CHECK(options_.max_batch_queries >= 1)
      << "max_batch_queries must be >= 1";
  FASTMATCH_CHECK(options_.max_pending_per_store >= 1)
      << "max_pending_per_store must be >= 1";
  FASTMATCH_CHECK(options_.max_queue_wait_seconds >= 0)
      << "max_queue_wait_seconds must be >= 0";
  FASTMATCH_CHECK(!options_.allow_joins)
      << "allow_joins must be false: every batch is closed at launch";
  FASTMATCH_CHECK(!options_.batch.resume.has_value())
      << "batch.resume must be unset: the scheduler resumes warm batches";
  FASTMATCH_CHECK(options_.batch.num_threads >= 1)
      << "batch.num_threads (the shared-pool quota) must be >= 1";
  if (options_.idle_pipeline_timeout_seconds > 0) {
    reaper_ = std::thread(&QueryScheduler::ReaperLoop, this);
  }
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

Result<QueryHandle> QueryScheduler::Submit(BoundQuery query,
                                           SubmitOptions submit) {
  if (query.store == nullptr) {
    return Status::InvalidArgument("query has no store");
  }
  if (query.stage1_warm != nullptr) {
    return Status::InvalidArgument(
        "warm priors come from the scheduler's stage-1 cache; submit the "
        "query without one");
  }
  // The janitor's invalidation of a reaped pipeline's cache entries
  // matches this same id.
  const uint64_t store_id = query.store->id();
  // The enqueue happens under mu_ (order mu_ -> Pipeline::mu): the
  // janitor claims pipelines under mu_ too, so it cannot reap the one
  // found or created here before its first query is pending, and a
  // Shutdown() cannot have flagged it yet.
  std::shared_ptr<Pipeline> pipeline;
  std::future<SchedulerItem> future;
  std::shared_ptr<CancelToken> cancel;
  std::shared_ptr<ProgressChannel> progress;
  if (submit.track_progress) progress = std::make_shared<ProgressChannel>();
  std::function<void(const ProgressUpdate&)> progress_sink =
      MakeProgressSink(progress, std::move(submit.on_progress));
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("scheduler is shut down");
    }
    std::shared_ptr<Pipeline>& slot = pipelines_[store_id];
    if (slot == nullptr) {
      slot = std::make_shared<Pipeline>();
      MutexLock slot_lock(&slot->mu);
      slot->last_active = Clock::now();
      slot->thread =
          std::thread(&QueryScheduler::PipelineLoop, this, slot.get());
      Count(&SchedulerStats::pipelines);
    }
    pipeline = slot;
    MutexLock pipeline_lock(&pipeline->mu);
    if (static_cast<int>(pipeline->pending.size()) >=
        options_.max_pending_per_store) {
      Count(&SchedulerStats::rejected);
      return Status::ResourceExhausted(
          "store pipeline is saturated (max_pending_per_store); retry "
          "later");
    }
    Ticket ticket;
    ticket.query = std::move(query);
    // The doorbell rings the pipeline's cv so a Cancel() on a queued
    // query is shed immediately instead of at the next flush
    // deadline; the weak_ptr keeps the ring safe after the pipeline
    // is reaped (handles outlive pipelines). The flag is set outside
    // the pipeline lock, so the ring passes through the lock first:
    // a driver that checked the flag just before it was set is then
    // already waiting and gets the notify, instead of sleeping out
    // the flush window.
    ticket.cancel = std::make_shared<CancelToken>(
        [wp = std::weak_ptr<Pipeline>(pipeline)] {
          if (std::shared_ptr<Pipeline> p = wp.lock()) {
            { MutexLock lock(&p->mu); }
            p->cv.NotifyAll();
          }
        });
    ticket.enqueued = Clock::now();
    ticket.deadline =
        submit.deadline_seconds > 0
            ? After(ticket.enqueued, submit.deadline_seconds)
            : Clock::time_point::max();
    ticket.budget_seconds = submit.budget_seconds;
    ticket.progress_sink = std::move(progress_sink);
    cancel = ticket.cancel;
    future = ticket.promise.get_future();
    pipeline->pending.push_back(std::move(ticket));
    Count(&SchedulerStats::submitted);
  }
  pipeline->cv.NotifyAll();
  QueryHandle handle;
  handle.cancel_ = std::move(cancel);
  handle.future_ = std::move(future);
  // The channel is shared with the ticket's progress sink: handle polls
  // never touch scheduler state and stay valid after the pipeline is
  // gone.
  handle.progress_ = std::move(progress);
  return handle;
}

void QueryScheduler::Deliver(Ticket* ticket, Status status, MatchResult match,
                             Clock::time_point queued_until,
                             Clock::time_point finished) {
  SchedulerItem item;
  item.status = std::move(status);
  item.match = std::move(match);
  item.queue_seconds = ToSeconds(queued_until - ticket->enqueued);
  item.total_seconds = ToSeconds(finished - ticket->enqueued);
  ticket->fulfilled = true;
  int64_t SchedulerStats::*terminal = nullptr;
  switch (item.status.code()) {
    case StatusCode::kDeadlineExceeded:
      terminal = &SchedulerStats::deadline_exceeded;
      break;
    case StatusCode::kCancelled:
      terminal = &SchedulerStats::cancelled;
      break;
    case StatusCode::kUnavailable:
      terminal = &SchedulerStats::unavailable;
      break;
    default:
      break;
  }
  // Only EvictAtBoundary's Evict() resolves an admitted ticket
  // Cancelled; a query cancelled while queued is shed before admission.
  const bool evicted = item.status.code() == StatusCode::kCancelled &&
                       ticket->admitted != Clock::time_point();
  // Count the completion, its terminal state and an eviction in one
  // critical section, before fulfilling the promise: a caller woken by
  // the future never observes a stats() snapshot missing its query, and
  // no snapshot sees an eviction without its cancel.
  {
    MutexLock lock(&stats_mu_);
    ++stats_.completed;
    if (terminal != nullptr) ++(stats_.*terminal);
    if (evicted) ++stats_.evicted;
  }
  ticket->promise.set_value(std::move(item));
}

void QueryScheduler::ShedLocked(Pipeline* pipeline, std::vector<Shed>* shed) {
  const Clock::time_point now = Clock::now();
  for (auto it = pipeline->pending.begin(); it != pipeline->pending.end();) {
    if (it->cancel->cancelled()) {
      shed->emplace_back(std::move(*it),
                         Status::Cancelled("cancelled while queued"));
      it = pipeline->pending.erase(it);
    } else if (now >= it->deadline) {
      shed->emplace_back(
          std::move(*it),
          Status::DeadlineExceeded("deadline passed while queued"));
      it = pipeline->pending.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryScheduler::FulfillShed(std::vector<Shed> shed) {
  const Clock::time_point now = Clock::now();
  for (Shed& s : shed) {
    Deliver(&s.first, std::move(s.second), MatchResult(), now, now);
  }
}

bool QueryScheduler::HasCancelledLocked(Pipeline* pipeline) const {
  for (const Ticket& ticket : pipeline->pending) {
    if (ticket.cancel->cancelled()) return true;
  }
  return false;
}

void QueryScheduler::ShedPending(Pipeline* pipeline) {
  std::vector<Shed> shed;
  {
    MutexLock lock(&pipeline->mu);
    ShedLocked(pipeline, &shed);
  }
  FulfillShed(std::move(shed));
}

bool QueryScheduler::GatherLaunchBatch(Pipeline* pipeline,
                                       std::vector<Ticket>* batch) {
  // Each iteration holds the lock for one decision round; shed queries
  // collected in the round are fulfilled after the scope ends (promises
  // always resolve outside the lock — a woken waiter may re-enter the
  // scheduler), and any round that sheds or is woken early simply
  // restarts, re-evaluating the queue from scratch.
  for (;;) {
    std::vector<Shed> shed;
    bool launch = false;
    bool drained = false;
    {
      MutexLock lock(&pipeline->mu);
      while (pipeline->pending.empty() && !pipeline->shutdown &&
             !pipeline->retiring) {
        pipeline->cv.Wait(&pipeline->mu);
      }
      ShedLocked(pipeline, &shed);
      if (shed.empty() && !pipeline->pending.empty()) {
        // Batch-boundary policy: wait for a full batch, but never keep
        // the oldest arrival waiting past max_queue_wait_seconds, wake
        // at the earliest queued deadline so expired queries are shed
        // on time, and drain immediately on shutdown.
        const Clock::time_point flush = After(
            pipeline->pending.front().enqueued, options_.max_queue_wait_seconds);
        Clock::time_point wake = flush;
        for (const Ticket& ticket : pipeline->pending) {
          wake = std::min(wake, ticket.deadline);
        }
        // Wait until the wake time unless something actionable happens
        // first: a new arrival (ends the wait so `wake` is recomputed —
        // a late Submit can carry a deadline earlier than every current
        // one), a full batch, a drain signal, or a cancelled queued
        // query (the cancel doorbell notifies the cv precisely so this
        // predicate re-runs and the shed below happens immediately, not
        // at the flush deadline).
        const size_t size_at_wait = pipeline->pending.size();
        while (!(pipeline->pending.size() != size_at_wait ||
                 static_cast<int>(pipeline->pending.size()) >=
                     options_.max_batch_queries ||
                 pipeline->shutdown || pipeline->retiring ||
                 HasCancelledLocked(pipeline))) {
          if (pipeline->cv.WaitUntil(&pipeline->mu, wake) ==
              std::cv_status::timeout) {
            break;
          }
        }
        ShedLocked(pipeline, &shed);
        if (shed.empty() && !pipeline->pending.empty()) {
          const bool full = static_cast<int>(pipeline->pending.size()) >=
                            options_.max_batch_queries;
          const bool draining = pipeline->shutdown || pipeline->retiring;
          // Launch on a full batch, a drain, or the flush deadline; a
          // wake before all three (new arrival, or a deadline/cancel
          // that shed nothing of ours) restarts the round to keep
          // filling the batch.
          if (full || draining || Clock::now() >= flush) {
            if (!full && !draining) {
              Count(&SchedulerStats::timeout_flushes);
            }
            const Clock::time_point now = Clock::now();
            while (!pipeline->pending.empty() &&
                   static_cast<int>(batch->size()) <
                       options_.max_batch_queries) {
              pipeline->pending.front().admitted = now;
              batch->push_back(std::move(pipeline->pending.front()));
              pipeline->pending.pop_front();
            }
            pipeline->busy = true;
            pipeline->last_active = now;
            Count(&SchedulerStats::batches_launched);
            launch = true;
          }
        }
      }
      if (!launch && shed.empty() && pipeline->pending.empty() &&
          (pipeline->shutdown || pipeline->retiring)) {
        // Exit on drain/retire with nothing left. A deadline alone
        // never launches: the batch timer only starts once a query is
        // pending, so an empty flush cannot launch an empty batch.
        drained = true;
      }
    }
    FulfillShed(std::move(shed));
    if (launch) return true;
    if (drained) return false;
  }
}

std::shared_ptr<const Stage1Snapshot> QueryScheduler::SharedWarmSnapshot(
    const std::vector<BoundQuery>& queries) {
  if (stage1_cache_ == nullptr) return nullptr;
  // One pin for the batch: every query shares its store, and a hit must
  // cover the query's full stage-1 demand (the cache treats smaller
  // entries as misses) AND have been drawn at this generation.
  const uint64_t generation = queries.front().store->Pin().generation;
  std::shared_ptr<const Stage1Snapshot> shared;
  bool all_hit = true;
  for (const BoundQuery& query : queries) {
    Stage1LookupResult found = stage1_cache_->Lookup(
        query.store->id(), kWholeStorePartition, query.z_attr, query.x_attrs,
        query.params.stage1_samples, generation);
    if (shared == nullptr) shared = found.snapshot;
    all_hit = all_hit && found.outcome == Stage1Outcome::kHit &&
              found.snapshot == shared;
  }
  return all_hit ? shared : nullptr;
}

void QueryScheduler::EvictAtBoundary(BatchExecutor* executor,
                                     std::vector<Ticket>* batch) {
  // This thread delivers every completion before the next boundary
  // pass, so an unfulfilled ticket's query is still active in the
  // executor and its eviction cannot be refused; a query that completed
  // first is fulfilled already and keeps its result.
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < batch->size(); ++i) {
    Ticket& ticket = (*batch)[i];
    if (ticket.fulfilled) continue;
    // A query both cancelled and past its budget is evicted Cancelled:
    // nobody waits for its best-effort answer.
    if (ticket.cancel->cancelled()) {
      // Deliver() counts the eviction with its Cancelled terminal.
      const Status evicted = executor->Evict(i);
      FASTMATCH_CHECK(evicted.ok()) << evicted.ToString();
    } else if (ticket.budget_seconds > 0 &&
               now >= After(ticket.admitted, ticket.budget_seconds)) {
      // The harvested item resolves OK, so Deliver() counts it as a
      // plain completion; budget_evicted is its only other counter,
      // counted before the harvest fulfils the future so a woken caller
      // never reads stats() without it.
      Count(&SchedulerStats::budget_evicted);
      const Status harvested = executor->EvictWithResult(i);
      FASTMATCH_CHECK(harvested.ok()) << harvested.ToString();
    }
  }
}

void QueryScheduler::RunBatch(Pipeline* pipeline, std::vector<Ticket> batch) {
  // The executor copies what it keeps of each query, so the launch
  // moves them out of their tickets.
  std::vector<BoundQuery> queries;
  queries.reserve(batch.size());
  for (Ticket& ticket : batch) queries.push_back(std::move(ticket.query));
  BatchOptions batch_options = options_.batch;
  batch_options.shared_pool = pool_;
  batch_options.stage1_sink = stage1_cache_.get();
  // Warm or cold, for the whole batch. It launches warm only when every
  // query hits the same stage-1 snapshot, and then it continues that
  // snapshot's scan, so each prior is the prefix of its query's own
  // scan and is never reread. The resume runs AT THE DONOR'S GENERATION
  // (the executor re-pins it), which is the generation the cache served
  // the snapshot at, so an append racing this launch cannot move the
  // batch's relation. Otherwise every query runs cold.
  if (std::shared_ptr<const Stage1Snapshot> warm =
          SharedWarmSnapshot(queries)) {
    for (BoundQuery& query : queries) query.stage1_warm = warm;
    batch_options.resume = warm->scan;
    Count(&SchedulerStats::warm_batches_resumed);
  }
  Result<std::unique_ptr<BatchExecutor>> create =
      BatchExecutor::Create(queries, batch_options);
  if (!create.ok()) {
    // Structural failure (e.g. empty store): every query of the batch
    // learns the same status through its future.
    for (Ticket& ticket : batch) {
      Deliver(&ticket, create.status(), MatchResult(), ticket.admitted,
              Clock::now());
    }
    return;
  }
  std::unique_ptr<BatchExecutor> executor = std::move(*create);
  const Clock::time_point batch_start = Clock::now();
  // Eager delivery: machine completions surface here, synchronously on
  // this thread from inside Start/Step/Evict/EvictWithResult with no
  // pipeline lock held, and this callback is every item's only delivery
  // path. The executor stamps wall_seconds from batch start, so
  // batch_start + wall_seconds is when the query's machine finished.
  executor->SetCompletionCallback(
      [this, &batch, batch_start](size_t index, BatchItem item) {
        FASTMATCH_CHECK(index < batch.size());
        Ticket& ticket = batch[index];
        FASTMATCH_CHECK(!ticket.fulfilled);
        Deliver(&ticket, std::move(item.status), std::move(item.match),
                ticket.admitted, batch_start + FromSeconds(item.wall_seconds));
      });
  // Anytime streaming: the executor emits per-query snapshots at every
  // chunk boundary; route each to its ticket's progress sink. Runs on
  // THIS thread inside Step/EvictWithResult with no pipeline lock held
  // (the promise-resolution discipline applies to progress publication
  // too). The predicate keeps a query that opted out free: the executor
  // builds no snapshot for it.
  executor->SetProgressCallback(
      [&batch](size_t index, const ProgressUpdate& update) {
        batch[index].progress_sink(update);
      },
      [&batch](size_t index) {
        FASTMATCH_CHECK(index < batch.size());
        return static_cast<bool>(batch[index].progress_sink);
      });

  executor->Start();
  for (;;) {
    // Chunk-boundary lifecycle pass: shed the queue (a cancelled or
    // expired query waiting for the next batch resolves now), then evict
    // cancelled and out-of-budget running queries.
    ShedPending(pipeline);
    EvictAtBoundary(executor.get(), &batch);
    if (executor->finished()) break;
    executor->Step();
  }

  Count(&SchedulerStats::batch_blocks_read, executor->stats().blocks_read);
  Count(&SchedulerStats::batch_progress_snapshots,
        executor->stats().progress_snapshots);
  // The executor finished, so the callback has delivered every query.
  FASTMATCH_CHECK_EQ(executor->num_queries(), batch.size());
  for (const Ticket& ticket : batch) FASTMATCH_CHECK(ticket.fulfilled);
}

void QueryScheduler::PipelineLoop(Pipeline* pipeline) {
  for (;;) {
    std::vector<Ticket> batch;
    if (!GatherLaunchBatch(pipeline, &batch)) break;
    RunBatch(pipeline, std::move(batch));
    {
      MutexLock lock(&pipeline->mu);
      pipeline->busy = false;
      pipeline->last_active = Clock::now();
    }
  }
  // Exit sweep. By the locking protocol nothing can be pending here
  // (the drain gathers until empty, and shutdown/retiring block new
  // enqueues first), but the exactly-once contract must survive
  // refactors: anything still unanswered terminates Unavailable rather
  // than leaking a never-ready future.
  std::vector<Shed> orphans;
  {
    MutexLock lock(&pipeline->mu);
    while (!pipeline->pending.empty()) {
      orphans.emplace_back(
          std::move(pipeline->pending.front()),
          Status::Unavailable("scheduler shut down during drain"));
      pipeline->pending.pop_front();
    }
  }
  FulfillShed(std::move(orphans));
}

void QueryScheduler::ReaperLoop() {
  const Clock::duration timeout =
      FromSeconds(options_.idle_pipeline_timeout_seconds);
  const Clock::duration period = FromSeconds(
      std::max(options_.idle_pipeline_timeout_seconds / 4.0, 1e-3));
  MutexLock lock(&mu_);
  for (;;) {
    const Clock::time_point tick = Clock::now() + period;
    while (!shutdown_) {
      if (reaper_cv_.WaitUntil(&mu_, tick) == std::cv_status::timeout) break;
    }
    if (shutdown_) return;
    const Clock::time_point now = Clock::now();
    std::vector<std::shared_ptr<Pipeline>> dead;
    std::vector<uint64_t> dead_store_ids;
    for (auto it = pipelines_.begin(); it != pipelines_.end();) {
      Pipeline* pipeline = it->second.get();
      bool reap = false;
      {
        MutexLock plock(&pipeline->mu);
        if (!pipeline->busy && pipeline->pending.empty() &&
            !pipeline->shutdown &&
            now - pipeline->last_active >= timeout) {
          // Claim it under both locks: Submit enqueues under mu_, so
          // nothing can be enqueued here once this entry leaves the map.
          pipeline->retiring = true;
          reap = true;
        }
      }
      if (reap) {
        dead.push_back(std::move(it->second));
        dead_store_ids.push_back(it->first);
        it = pipelines_.erase(it);
      } else {
        ++it;
      }
    }
    if (dead.empty()) continue;
    // Join outside mu_ so Submits to other stores are never blocked on
    // a dying driver.
    lock.Unlock();
    for (std::shared_ptr<Pipeline>& pipeline : dead) {
      pipeline->cv.NotifyAll();
      pipeline->thread.join();
      Count(&SchedulerStats::pipelines_reaped);
    }
    dead.clear();
    if (stage1_cache_ != nullptr) {
      // The reap is the scheduler's "store id disappeared" signal:
      // drop the store's warm entries so the cache cannot accumulate
      // counts for stores nothing will query again. (ColumnStore ids
      // are never reused, so this is hygiene, not aliasing defense; a
      // store that merely idled re-warms on its next cold batch.)
      for (uint64_t store_id : dead_store_ids) {
        stage1_cache_->InvalidateStore(store_id);
      }
    }
    lock.Lock();
  }
}

void QueryScheduler::Shutdown() {
  MutexLock shutdown_lock(&shutdown_mu_);
  {
    MutexLock lock(&mu_);
    shutdown_ = true;  // no new pipelines after this; janitor exits
  }
  reaper_cv_.NotifyAll();
  if (reaper_.joinable()) reaper_.join();
  // The janitor is gone: the pipeline map is stable from here on.
  std::vector<std::shared_ptr<Pipeline>> pipelines;
  {
    MutexLock lock(&mu_);
    for (auto& [store_id, pipeline] : pipelines_) {
      pipelines.push_back(pipeline);
    }
  }
  for (const std::shared_ptr<Pipeline>& pipeline : pipelines) {
    {
      MutexLock lock(&pipeline->mu);
      pipeline->shutdown = true;
    }
    pipeline->cv.NotifyAll();
  }
  for (const std::shared_ptr<Pipeline>& pipeline : pipelines) {
    if (pipeline->thread.joinable()) pipeline->thread.join();
  }
  // Every driver drained its queue and exited: each accepted query has
  // been delivered exactly once.
  const SchedulerStats drained = stats();
  FASTMATCH_CHECK_EQ(drained.submitted, drained.completed);
}

void QueryScheduler::Count(int64_t SchedulerStats::*field, int64_t n) {
  MutexLock lock(&stats_mu_);
  stats_.*field += n;
}

SchedulerStats QueryScheduler::stats() const {
  SchedulerStats s;
  {
    MutexLock lock(&stats_mu_);
    s = stats_;
  }
  if (stage1_cache_ != nullptr) {
    static_cast<Stage1CacheStats&>(s) = stage1_cache_->stats();
  }
  FASTMATCH_CHECK_EQ(s.stage1_lookups, s.stage1_hits + s.stage1_misses);
  FASTMATCH_CHECK_LE(s.completed, s.submitted);
  FASTMATCH_CHECK_LE(s.evicted, s.cancelled);
  FASTMATCH_CHECK_LE(s.deadline_exceeded + s.cancelled + s.unavailable,
                     s.completed);
  return s;
}

}  // namespace fastmatch
