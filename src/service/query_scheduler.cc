#include "service/query_scheduler.h"

#include <algorithm>
#include <utility>

#include "service/stage1_revalidator.h"
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

std::unique_ptr<Stage1Cache> MakeStage1Cache(const SchedulerOptions& options) {
  if (!options.stage1_cache) return nullptr;
  Stage1CacheOptions cache_options;
  cache_options.ttl_seconds = options.stage1_cache_ttl_seconds;
  return std::make_unique<Stage1Cache>(cache_options);
}

}  // namespace

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool
                                     : &SharedWorkerPool::Process()),
      stage1_cache_(MakeStage1Cache(options_)) {
  FASTMATCH_CHECK(options_.max_batch_queries >= 1)
      << "max_batch_queries must be >= 1";
  FASTMATCH_CHECK(options_.max_pending_per_store >= 1)
      << "max_pending_per_store must be >= 1";
  FASTMATCH_CHECK(options_.max_queue_wait_seconds >= 0)
      << "max_queue_wait_seconds must be >= 0";
  FASTMATCH_CHECK(options_.min_join_suffix_fraction >= 0 &&
                  options_.min_join_suffix_fraction <= 1)
      << "min_join_suffix_fraction must be in [0, 1]";
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
  // The janitor's invalidation of a reaped pipeline's cache entries
  // matches this same id.
  const uint64_t store_id = query.store->id();
  for (;;) {
    // A shared_ptr copy, not a raw pointer: between releasing mu_ and
    // locking pipeline->mu the janitor may reap this entry, and the
    // object must stay alive for the retiring re-check below.
    std::shared_ptr<Pipeline> pipeline;
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
        counters_.pipelines.fetch_add(1, std::memory_order_relaxed);
      }
      pipeline = slot;
    }

    std::future<SchedulerItem> future;
    std::shared_ptr<CancelToken> cancel;
    std::shared_ptr<ProgressChannel> progress;
    {
      MutexLock lock(&pipeline->mu);
      if (pipeline->retiring) {
        // The janitor claimed this pipeline between the map lookup and
        // here (it is already out of the map, its driver is exiting).
        // Retry: the next lookup creates a fresh pipeline — the reap is
        // invisible to callers.
        continue;
      }
      // Re-check under the pipeline lock: a Shutdown() racing with this
      // Submit may have already let the driver thread exit, and a query
      // enqueued after that would never be answered.
      if (pipeline->shutdown) {
        return Status::FailedPrecondition("scheduler is shut down");
      }
      if (static_cast<int>(pipeline->pending.size()) >=
          options_.max_pending_per_store) {
        counters_.rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "store pipeline is saturated (max_pending_per_store); retry "
            "later");
      }
      Pending pend;
      pend.query = std::move(query);
      // The doorbell rings the pipeline's cv so a Cancel() on a queued
      // query is shed immediately instead of at the next flush
      // deadline; the weak_ptr keeps the ring safe after the pipeline
      // is reaped (handles outlive pipelines). The flag is set outside
      // the pipeline lock, so the ring passes through the lock first:
      // a driver that checked the flag just before it was set is then
      // already waiting and gets the notify, instead of sleeping out
      // the flush window.
      pend.cancel = std::make_shared<CancelToken>(
          [wp = std::weak_ptr<Pipeline>(pipeline)] {
            if (std::shared_ptr<Pipeline> p = wp.lock()) {
              { MutexLock lock(&p->mu); }
              p->cv.NotifyAll();
            }
          });
      pend.enqueued = Clock::now();
      pend.deadline = submit.deadline_seconds > 0
                          ? pend.enqueued + FromSeconds(submit.deadline_seconds)
                          : Clock::time_point::max();
      pend.budget_seconds = submit.budget_seconds;
      if (submit.track_progress) {
        pend.progress = std::make_shared<ProgressChannel>();
        progress = pend.progress;
      }
      pend.on_progress = submit.on_progress;
      cancel = pend.cancel;
      future = pend.promise.get_future();
      pipeline->pending.push_back(std::move(pend));
      counters_.submitted.fetch_add(1, std::memory_order_relaxed);
    }
    pipeline->cv.NotifyAll();
    QueryHandle handle;
    handle.cancel_ = std::move(cancel);
    handle.future_ = std::move(future);
    // The channel is shared with the Admitted entry: handle polls never
    // touch scheduler state and stay valid after the pipeline is gone.
    handle.progress_ = std::move(progress);
    return handle;
  }
}

void QueryScheduler::Resolve(std::promise<SchedulerItem>* promise,
                             SchedulerItem item) {
  switch (item.status.code()) {
    case StatusCode::kDeadlineExceeded:
      counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kCancelled:
      counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kUnavailable:
      counters_.unavailable.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  // Count the completion before fulfilling the promise so a caller
  // woken by the future never observes a stats() snapshot missing its
  // query.
  counters_.completed.fetch_add(1, std::memory_order_relaxed);
  promise->set_value(std::move(item));
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
    SchedulerItem item;
    item.status = std::move(s.second);
    item.queue_seconds = ToSeconds(now - s.first.enqueued);
    item.total_seconds = item.queue_seconds;
    Resolve(&s.first.promise, std::move(item));
  }
}

bool QueryScheduler::HasCancelledLocked(Pipeline* pipeline) const {
  for (const Pending& pend : pipeline->pending) {
    if (pend.cancel->cancelled()) return true;
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
                                       std::vector<BoundQuery>* queries,
                                       std::vector<Admitted>* admitted) {
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
        const Clock::time_point flush =
            pipeline->pending.front().enqueued +
            FromSeconds(options_.max_queue_wait_seconds);
        Clock::time_point wake = flush;
        for (const Pending& pend : pipeline->pending) {
          wake = std::min(wake, pend.deadline);
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
              counters_.timeout_flushes.fetch_add(1,
                                                  std::memory_order_relaxed);
            }
            const Clock::time_point now = Clock::now();
            while (!pipeline->pending.empty() &&
                   static_cast<int>(queries->size()) <
                       options_.max_batch_queries) {
              Pending pend = std::move(pipeline->pending.front());
              pipeline->pending.pop_front();
              if (pend.join_refused) {
                // The fallback the earlier refusal predicted actually
                // happened: the query launches in a fresh batch.
                counters_.join_fallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
              }
              queries->push_back(std::move(pend.query));
              Admitted a;
              a.promise = std::move(pend.promise);
              a.cancel = std::move(pend.cancel);
              a.enqueued = pend.enqueued;
              a.admitted = now;
              if (pend.budget_seconds > 0) {
                a.budget_deadline = now + FromSeconds(pend.budget_seconds);
              }
              a.progress = std::move(pend.progress);
              a.on_progress = std::move(pend.on_progress);
              admitted->push_back(std::move(a));
            }
            pipeline->busy = true;
            pipeline->last_active = now;
            counters_.batches_launched.fetch_add(1, std::memory_order_relaxed);
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

void QueryScheduler::FulfillAdmitted(Admitted* a, BatchItem item,
                                     Clock::time_point batch_start) {
  SchedulerItem out;
  out.status = std::move(item.status);
  out.match = std::move(item.match);
  out.joined_midflight = a->joined_midflight;
  out.queue_seconds = ToSeconds(a->admitted - a->enqueued);
  // Per-item completion instant: the executor stamps wall_seconds from
  // batch start, so batch_start + wall_seconds is when the query's
  // machine actually finished (delivery lands after the rest of that
  // chunk boundary's work — using "now" would overstate latency).
  const Clock::time_point completion =
      batch_start + FromSeconds(item.wall_seconds);
  out.total_seconds = ToSeconds(completion - a->enqueued);
  a->fulfilled = true;
  Resolve(&a->promise, std::move(out));
}

void QueryScheduler::AttachWarmStage1(BoundQuery* query) {
  if (stage1_cache_ == nullptr || IsWarm(*query)) return;
  // A hit must cover the query's full stage-1 demand (the cache treats
  // smaller entries as misses) AND be valid at the pinned generation.
  const StorePin pin = query->store->Pin();
  Stage1LookupResult found = stage1_cache_->Lookup(
      query->store->id(), kWholeStorePartition, query->z_attr, query->x_attrs,
      query->params.stage1_samples, pin.generation);
  if (found.outcome == Stage1Outcome::kRevalidate) {
    // Generation-stale prior: drift-test it synchronously (a small
    // fresh draw — cheap next to the full stage-1 re-pay it may save).
    // STABLE promotes the cache entry and serves the prior at the
    // pinned generation; DRIFTING evicts it and the query runs cold. A
    // revalidation that itself fails (e.g. the pinned generation
    // vanished) is treated as a miss — never served unexamined.
    Result<RevalidationReport> report =
        RevalidateStage1(query->store, query->z_attr, query->x_attrs,
                         *found.snapshot, pin.generation);
    if (!report.ok()) return;
    if (report->verdict == RevalidationVerdict::kStable) {
      // The promotion may lose to a racing publish/eviction — the
      // verdict still holds for OUR snapshot at OUR pin, so it is
      // served either way; only the cache bookkeeping is best-effort.
      stage1_cache_->Promote(query->store->id(), kWholeStorePartition,
                             query->z_attr, query->x_attrs,
                             found.entry_generation, pin.generation);
      query->stage1_warm = std::move(found.snapshot);
      query->stage1_warm_generation = pin.generation;
    } else {
      stage1_cache_->EvictDrifted(query->store->id(), kWholeStorePartition,
                                  query->z_attr, query->x_attrs,
                                  found.entry_generation);
    }
    return;
  }
  if (found.outcome == Stage1Outcome::kHit) {
    query->stage1_warm = std::move(found.snapshot);
    query->stage1_warm_generation = pin.generation;
  }
}

void QueryScheduler::EvictCancelled(BatchExecutor* executor,
                                    std::vector<Admitted>* admitted) {
  for (size_t i = 0; i < admitted->size(); ++i) {
    Admitted& a = (*admitted)[i];
    if (a.fulfilled || a.evict_attempted || a.cancel == nullptr ||
        !a.cancel->cancelled()) {
      continue;
    }
    a.evict_attempted = true;
    const Status evicted = executor->Evict(i);
    if (evicted.ok()) {
      counters_.evicted.fetch_add(1, std::memory_order_relaxed);
      // The executor reported the Cancelled item through the completion
      // callback; delivery rides the normal path.
    }
    // !ok means the query completed before the cancel landed: the
    // result exists and is delivered normally — a cancel never turns a
    // finished result into a Cancelled future.
  }
}

void QueryScheduler::EvictBudgetExpired(BatchExecutor* executor,
                                        std::vector<Admitted>* admitted) {
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < admitted->size(); ++i) {
    Admitted& a = (*admitted)[i];
    if (a.fulfilled || a.evict_attempted || a.budget_evict_attempted ||
        now < a.budget_deadline) {
      continue;
    }
    a.budget_evict_attempted = true;
    const Status harvested = executor->EvictWithResult(i);
    if (harvested.ok()) {
      // The harvested best-effort item (status OK, match.best_effort)
      // rides the normal delivery path, the completion callback.
      // Terminal accounting lands in budget_evicted ONLY — the future
      // resolves OK, so Resolve() counts it as a plain completion,
      // never deadline_exceeded or cancelled.
      counters_.budget_evicted.fetch_add(1, std::memory_order_relaxed);
    }
    // !ok means the machine completed in this same chunk: the EXACT
    // result exists and is delivered normally — a budget expiry never
    // downgrades a finished result to a partial.
  }
}

void QueryScheduler::TryJoins(Pipeline* pipeline, BatchExecutor* executor,
                              int64_t num_blocks,
                              std::vector<Admitted>* admitted) {
  std::vector<Shed> shed;
  for (;;) {
    Pending pend;
    bool cache_lifted_refusal = false;
    {
      MutexLock lock(&pipeline->mu);
      // Never join a query that is already cancelled or past deadline.
      ShedLocked(pipeline, &shed);
      if (pipeline->pending.empty() ||
          executor->num_active() >= options_.max_batch_queries) {
        break;
      }
      // Serve stage 1 from the cache when it can: a warm join draws
      // only stage-2/3 samples from the suffix. The snapshot stays
      // attached if the join is refused, so a fresh-batch fallback
      // launches warm too. A front query that missed is re-looked-up at
      // each chunk boundary ON PURPOSE — the running batch's own
      // stage-1 completions publish mid-flight, upgrading a cold
      // waiter to warm — so stage1_lookups counts consult EVENTS, not
      // queries. (The cache's mutex is a leaf lock: Lookup never takes
      // pipeline or scheduler locks.)
      Pending& front = pipeline->pending.front();
      AttachWarmStage1(&front.query);
      const double suffix_fraction =
          1.0 - static_cast<double>(executor->consumed_blocks()) /
                    static_cast<double>(num_blocks);
      const bool below_policy =
          suffix_fraction < options_.min_join_suffix_fraction;
      if (executor->consumed_blocks() == num_blocks ||
          (below_policy && !IsWarm(front.query))) {
        // Too little scan left for a statistically useful join — the
        // suffix must still cover stage 1 for a cold query. Leave the
        // query queued; a later chunk may still join it (e.g. after a
        // publish turns it warm), else it launches in a fresh batch
        // when this one ends — join_fallbacks counts at that launch.
        front.join_refused = true;
        break;
      }
      cache_lifted_refusal = below_policy;
      pend = std::move(pipeline->pending.front());
      pipeline->pending.pop_front();
    }
    // Register the query's progress consumers BEFORE the join: a join
    // that completes instantly (a warm prior covering the whole store)
    // publishes its final update from inside Join(), routed by index.
    {
      Admitted a;
      a.progress = std::move(pend.progress);
      a.on_progress = std::move(pend.on_progress);
      admitted->push_back(std::move(a));
    }
    // Join (template binding, machine Begin) runs outside the pipeline
    // lock so Submit callers are never blocked on it; this thread is
    // the executor's sole driver, so no other synchronization applies.
    const int64_t bound_before = executor->stats().joined_queries;
    Result<size_t> joined = executor->Join(pend.query);
    if (!joined.ok()) {
      // Defensive (the suffix check above normally fires first): the
      // executor refused the join; requeue for a fresh batch.
      pend.progress = std::move(admitted->back().progress);
      pend.on_progress = std::move(admitted->back().on_progress);
      admitted->pop_back();
      MutexLock lock(&pipeline->mu);
      pend.join_refused = true;
      pipeline->pending.push_front(std::move(pend));
      break;
    }
    FASTMATCH_CHECK_EQ(*joined + 1, admitted->size());
    // A join whose per-query binding failed still occupies an item slot
    // but never entered the scan: report it as a plain (failed) query,
    // keeping joined_midflight consistent with the executor's stat.
    const bool bound = executor->stats().joined_queries > bound_before;
    Admitted& a = admitted->back();
    a.promise = std::move(pend.promise);
    a.cancel = std::move(pend.cancel);
    a.enqueued = pend.enqueued;
    a.admitted = Clock::now();
    a.joined_midflight = bound;
    if (pend.budget_seconds > 0) {
      a.budget_deadline = a.admitted + FromSeconds(pend.budget_seconds);
    }
    if (bound) {
      counters_.joined_midflight.fetch_add(1, std::memory_order_relaxed);
      if (cache_lifted_refusal) {
        counters_.joins_enabled_by_cache.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
    }
  }
  FulfillShed(std::move(shed));
}

void QueryScheduler::RunBatch(Pipeline* pipeline,
                              std::vector<BoundQuery> queries,
                              std::vector<Admitted> admitted) {
  // Admission-time cache consult: queries whose template is warm skip
  // stage 1 from the first chunk. (Queries requeued after a refused
  // join may already carry their snapshot; AttachWarmStage1 leaves
  // those untouched.)
  for (BoundQuery& query : queries) AttachWarmStage1(&query);
  BatchOptions batch_options = options_.batch;
  batch_options.shared_pool = pool_;
  batch_options.stage1_sink = stage1_cache_.get();
  // Warm-batch scan resume: when EVERY query of a fresh batch is warm
  // from the SAME snapshot, the batch continues the donor's scan instead
  // of starting fresh — the donor's prefix blocks are pre-consumed and
  // never re-read, and the disjointness makes each warm prior exact (no
  // overlapping downgrade). One shared snapshot implies one template,
  // so the resume's exhaustion flags are valid. The resume runs AT THE
  // DONOR'S GENERATION (the executor re-pins it), so its geometry check
  // uses the donor's pin, not the live store's — and a PROMOTED
  // snapshot (warm generation ahead of its scan state) skips the
  // resume: continuing the donor's scan would pin the old generation
  // while the prior is being served at the new one, and the executor's
  // stale-warm guard would rightly drop it.
  if (!batch_options.resume.has_value() &&
      queries.front().stage1_warm != nullptr) {
    const std::shared_ptr<const Stage1Snapshot>& snap =
        queries.front().stage1_warm;
    const uint64_t warm_gen = queries.front().stage1_warm_generation;
    bool all_same = true;
    for (const BoundQuery& query : queries) {
      if (query.stage1_warm != snap ||
          query.stage1_warm_generation != warm_gen) {
        all_same = false;
        break;
      }
    }
    if (all_same && (warm_gen == 0 || warm_gen == snap->scan.generation)) {
      const std::shared_ptr<const ColumnStore>& store = queries.front().store;
      const Result<StorePin> donor =
          snap->scan.generation != 0
              ? store->PinAt(snap->scan.generation)
              : Result<StorePin>(store->Pin());
      if (donor.ok() && snap->scan.consumed.size() == donor->num_blocks &&
          snap->scan.consumed.Popcount() < donor->num_blocks) {
        batch_options.resume = snap->scan;
        counters_.warm_batches_resumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  Result<std::unique_ptr<BatchExecutor>> create =
      BatchExecutor::Create(queries, batch_options);
  if (!create.ok()) {
    // Structural failure (e.g. empty store): every query of the batch
    // learns the same status through its future.
    for (Admitted& a : admitted) {
      SchedulerItem item;
      item.status = create.status();
      item.queue_seconds = ToSeconds(a.admitted - a.enqueued);
      item.total_seconds = ToSeconds(Clock::now() - a.enqueued);
      a.fulfilled = true;
      Resolve(&a.promise, std::move(item));
    }
    return;
  }
  std::unique_ptr<BatchExecutor> executor = std::move(*create);
  // Join policy measures the scan the batch will ACTUALLY run — the
  // executor's pinned geometry — not the live store, whose block count
  // an append can move mid-batch.
  const int64_t num_blocks = executor->pin().num_blocks;

  const Clock::time_point batch_start = Clock::now();
  // Eager delivery: machine completions surface here, synchronously on
  // this thread from inside Start/Step/Join/Evict/EvictWithResult, and
  // this callback is every item's only delivery path. Buffered rather
  // than fulfilled inline because a Join()'s instant completion
  // (binding failure, or a warm prior covering the whole store) fires
  // before TryJoins has moved the query's promise into its Admitted
  // entry.
  std::vector<std::pair<size_t, BatchItem>> ready;
  executor->SetCompletionCallback([&ready](size_t index, BatchItem item) {
    ready.emplace_back(index, std::move(item));
  });
  // Anytime streaming: the executor emits per-query snapshots at every
  // chunk boundary; route each to its query's consumers. Runs on THIS
  // thread inside Step/Join/EvictWithResult with no pipeline lock held
  // (the promise-resolution discipline applies to progress publication
  // too). `admitted` only grows, and only between Steps or just before
  // a Join (TryJoins registers the entry first), so the index map is
  // stable whenever either function runs. The predicate keeps a query
  // that opted out free: the executor builds no snapshot for it.
  executor->SetProgressCallback(
      [&admitted](size_t index, const ProgressUpdate& update) {
        Admitted& a = admitted[index];
        if (a.progress != nullptr) a.progress->Publish(update);
        if (a.on_progress) a.on_progress(update);
      },
      [&admitted](size_t index) {
        // Every entry exists before Start() or Join() can emit for it.
        FASTMATCH_CHECK(index < admitted.size());
        return admitted[index].progress != nullptr ||
               static_cast<bool>(admitted[index].on_progress);
      });
  const auto deliver_ready = [&] {
    for (auto& [index, item] : ready) {
      FASTMATCH_CHECK(index < admitted.size());
      FASTMATCH_CHECK(!admitted[index].fulfilled);
      FulfillAdmitted(&admitted[index], std::move(item), batch_start);
    }
    ready.clear();
  };

  executor->Start();
  deliver_ready();
  for (;;) {
    // Chunk-boundary lifecycle pass, in dependency order: shed the
    // queue (a cancelled/expired query must not be joined), evict
    // cancelled running queries (frees executor slots), then admit
    // joins — checking before the finished test also lets a late
    // arrival revive an executor whose own queries all completed while
    // scan suffix remains.
    ShedPending(pipeline);
    EvictCancelled(executor.get(), &admitted);
    EvictBudgetExpired(executor.get(), &admitted);
    if (options_.allow_joins) {
      TryJoins(pipeline, executor.get(), num_blocks, &admitted);
    }
    deliver_ready();
    if (executor->finished()) break;
    executor->Step();
    deliver_ready();
  }

  counters_.batch_blocks_read.fetch_add(executor->stats().blocks_read,
                                        std::memory_order_relaxed);
  counters_.batch_progress_snapshots.fetch_add(
      executor->stats().progress_snapshots, std::memory_order_relaxed);
  // The executor finished, so the callback has delivered every query.
  FASTMATCH_CHECK_EQ(executor->num_queries(), admitted.size());
  for (const Admitted& a : admitted) FASTMATCH_CHECK(a.fulfilled);
}

void QueryScheduler::PipelineLoop(Pipeline* pipeline) {
  for (;;) {
    std::vector<BoundQuery> queries;
    std::vector<Admitted> admitted;
    if (!GatherLaunchBatch(pipeline, &queries, &admitted)) break;
    RunBatch(pipeline, std::move(queries), std::move(admitted));
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
          // Claim it under both locks: once `retiring` is visible no
          // Submit can enqueue here — Submit re-checks under
          // pipeline->mu and retries against the map, where this entry
          // is gone by then.
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
      counters_.pipelines_reaped.fetch_add(1, std::memory_order_relaxed);
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
}

SchedulerStats QueryScheduler::stats() const {
  SchedulerStats s;
  s.submitted = counters_.submitted.load(std::memory_order_relaxed);
  s.rejected = counters_.rejected.load(std::memory_order_relaxed);
  s.completed = counters_.completed.load(std::memory_order_relaxed);
  s.batches_launched =
      counters_.batches_launched.load(std::memory_order_relaxed);
  s.timeout_flushes = counters_.timeout_flushes.load(std::memory_order_relaxed);
  s.joined_midflight =
      counters_.joined_midflight.load(std::memory_order_relaxed);
  s.join_fallbacks = counters_.join_fallbacks.load(std::memory_order_relaxed);
  s.pipelines = counters_.pipelines.load(std::memory_order_relaxed);
  s.deadline_exceeded =
      counters_.deadline_exceeded.load(std::memory_order_relaxed);
  s.cancelled = counters_.cancelled.load(std::memory_order_relaxed);
  s.evicted = counters_.evicted.load(std::memory_order_relaxed);
  s.budget_evicted = counters_.budget_evicted.load(std::memory_order_relaxed);
  s.unavailable = counters_.unavailable.load(std::memory_order_relaxed);
  s.pipelines_reaped =
      counters_.pipelines_reaped.load(std::memory_order_relaxed);
  s.joins_enabled_by_cache =
      counters_.joins_enabled_by_cache.load(std::memory_order_relaxed);
  s.warm_batches_resumed =
      counters_.warm_batches_resumed.load(std::memory_order_relaxed);
  s.batch_blocks_read =
      counters_.batch_blocks_read.load(std::memory_order_relaxed);
  s.batch_progress_snapshots =
      counters_.batch_progress_snapshots.load(std::memory_order_relaxed);
  if (stage1_cache_ != nullptr) {
    const Stage1CacheStats cache = stage1_cache_->stats();
    s.stage1_lookups = cache.lookups;
    s.stage1_hits = cache.hits;
    s.stage1_misses = cache.misses;
    s.stage1_inserts = cache.inserts;
    s.stage1_stale_evictions = cache.stale_evictions;
    s.stage1_store_invalidations = cache.store_invalidations;
    s.stage1_revalidations = cache.revalidations;
    s.stage1_promotions = cache.promotions;
    s.stage1_drift_evictions = cache.drift_evictions;
  }
  return s;
}

}  // namespace fastmatch
