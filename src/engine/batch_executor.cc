#include "engine/batch_executor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "engine/block_policy.h"
#include "util/logging.h"

namespace fastmatch {

BatchExecutor::BatchExecutor(std::shared_ptr<const ColumnStore> store,
                             StorePin pin, BatchOptions options)
    : store_(std::move(store)),
      options_(std::move(options)),
      pin_(pin),
      cursor_(options_.resume.has_value()
                  ? ScanCursor(options_.resume->consumed,
                               options_.resume->cursor)
                  : ScanCursor(pin_.num_blocks, options_.seed)) {
  if (options_.shared_pool == nullptr) {
    options_.shared_pool = &SharedWorkerPool::Process();
  }
}

Result<std::unique_ptr<BatchExecutor>> BatchExecutor::Create(
    const std::vector<BoundQuery>& queries, BatchOptions options) {
  if (queries.empty()) {
    return Status::InvalidArgument("batch has no queries");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.chunk_blocks < 1) {
    return Status::InvalidArgument("chunk_blocks must be >= 1");
  }
  const std::shared_ptr<const ColumnStore>& store = queries.front().store;
  if (store == nullptr) {
    return Status::InvalidArgument("query has no store");
  }
  for (const BoundQuery& q : queries) {
    if (q.store.get() != store.get()) {
      return Status::InvalidArgument(
          "batch queries must share one ColumnStore");
    }
  }
  // Resolve the batch's pin BEFORE construction: a resume re-pins the
  // donor's generation (the resumed scan runs in the donor's block space
  // even if the store has since grown); otherwise pin the current
  // generation.
  const std::optional<ScanResume>& resume = options.resume;
  StorePin pin;
  if (resume.has_value()) {
    if (resume->generation == 0) {
      return Status::InvalidArgument("resume has no generation");
    }
    FASTMATCH_ASSIGN_OR_RETURN(pin, store->PinAt(resume->generation));
  } else {
    pin = store->Pin();
  }
  if (pin.num_rows == 0) {
    return Status::FailedPrecondition("empty store");
  }
  if (resume.has_value()) {
    if (resume->consumed.size() != pin.num_blocks) {
      return Status::InvalidArgument(
          "resume consumed bitvector size does not match store block count");
    }
    if (resume->cursor < 0 || resume->cursor >= pin.num_blocks) {
      return Status::InvalidArgument("resume cursor out of range");
    }
  }
  // A warm prior may share no row with the batch's scan, so that it is
  // the prefix of its query's own scan: either the batch resumes the
  // prior's own scan, which never revisits the prior's blocks, or the
  // prior holds every pinned row and its query completes at bind. A
  // resumed batch is warm throughout, from one snapshot: a cold query
  // would count only the suffix and could flag a candidate exact on part
  // of its rows.
  const std::shared_ptr<const Stage1Snapshot>& first =
      queries.front().stage1_warm;
  for (const BoundQuery& q : queries) {
    const Stage1Snapshot* warm = q.stage1_warm.get();
    if (warm == nullptr && !resume.has_value()) continue;
    const bool covers_pin = warm != nullptr &&
                            warm->scan.generation == pin.generation &&
                            warm->rows_drawn >= pin.num_rows;
    const bool resumes_own_scan =
        resume.has_value() && warm != nullptr && q.stage1_warm == first &&
        warm->scan.generation == resume->generation &&
        warm->scan.cursor == resume->cursor &&
        warm->scan.consumed.size() == resume->consumed.size() &&
        warm->scan.consumed.words() == resume->consumed.words();
    if (resume.has_value() ? !resumes_own_scan : !covers_pin) {
      return Status::InvalidArgument(
          "a warm prior must hold every pinned row, or ride a batch that "
          "resumes its own scan with every query warm from it");
    }
    if (q.stage1_warm_generation != 0 &&
        q.stage1_warm_generation != warm->scan.generation) {
      return Status::InvalidArgument(
          "warm prior stamped for a generation other than its own");
    }
    if (!covers_pin && resume->consumed.Popcount() == pin.num_blocks) {
      // A resume with no suffix left: the machine would finish on the
      // prior alone and flag every count exact.
      return Status::FailedPrecondition(
          "resume state has no unconsumed blocks; nothing to scan");
    }
  }
  auto executor = std::unique_ptr<BatchExecutor>(
      new BatchExecutor(store, pin, std::move(options)));
  for (const BoundQuery& q : queries) executor->AddQuery(q);
  executor->stats_.num_templates =
      static_cast<int>(executor->templates_.size());
  return executor;
}

void BatchExecutor::AddQuery(const BoundQuery& query) {
  const size_t templates_before = templates_.size();
  QueryState qs(HistSimMachine(query.params, query.target));
  const Status status = BindQuery(query, &qs);
  if (!status.ok()) {
    qs.status = status;
    qs.active = false;
    // Drop a template created for a query that then failed binding
    // (index validation, machine Begin): it has no consumer and must not
    // add per-chunk work.
    if (templates_.size() > templates_before) templates_.pop_back();
  }
  queries_.push_back(std::move(qs));
}

Status BatchExecutor::BindQuery(const BoundQuery& query, QueryState* qs) {
  if (query.x_attrs.empty()) {
    return Status::InvalidArgument("query has no x attributes");
  }
  size_t t = 0;
  for (; t < templates_.size(); ++t) {
    if (templates_[t].z_attr == query.z_attr &&
        templates_[t].x_attrs == query.x_attrs) {
      break;
    }
  }
  if (t == templates_.size()) {
    TemplateState ts;
    ts.z_attr = query.z_attr;
    ts.x_attrs = query.x_attrs;
    // The reader pins the batch generation, so every block read
    // resolves against the batch's frozen geometry no matter how the
    // store grows mid-scan.
    FASTMATCH_ASSIGN_OR_RETURN(auto view, store_->PinViewAt(pin_.generation));
    FASTMATCH_ASSIGN_OR_RETURN(
        ts.io, IoManager::Create(store_, query.z_attr, query.x_attrs,
                                 std::move(view)));
    const int candidates = ts.io->num_candidates();
    const int groups = ts.io->num_groups();
    ts.cum = CountMatrix(candidates, groups);
    ts.exhausted.assign(candidates, false);
    ts.unmet_seen.assign(candidates, false);
    ts.shards.assign(static_cast<size_t>(options_.num_threads),
                     CountMatrix(candidates, groups));
    templates_.push_back(std::move(ts));
  }
  TemplateState& ts = templates_[t];
  // Validate every supplied index (not just the first bound one), so a
  // malformed index is rejected regardless of the query's batch position.
  // A block-count mismatch against the pin is NOT an error: an index
  // built at an older generation covers a PREFIX of the pinned blocks
  // (ReadChunk reads everything past index->num_rows() unconditionally —
  // the covered-prefix rule), and one built at a newer generation marks
  // a sound superset (a seam block's extra rows can only add bits).
  if (query.z_index != nullptr) {
    if (query.z_index->attribute() != query.z_attr) {
      return Status::InvalidArgument(
          "bitmap index was built for a different attribute");
    }
    if (ts.index == nullptr) ts.index = query.z_index;
  }
  qs->tmpl = t;
  // Create admitted a warm prior only if it shares no row with this
  // batch's scan.
  Stage1Prior prior;
  if (query.stage1_warm != nullptr) {
    prior.counts = &query.stage1_warm->counts;
    prior.rows_drawn = query.stage1_warm->rows_drawn;
  }
  FASTMATCH_RETURN_IF_ERROR(qs->machine.Begin(
      ts.io->num_candidates(), ts.io->num_groups(), pin_.num_rows,
      query.stage1_warm != nullptr ? &prior : nullptr));
  if (query.stage1_warm != nullptr) ++stats_.warm_queries;
  // Fresh counts for the query's NEXT phase are cumulative minus this
  // snapshot; at Create the cumulative matrix is zero. A warm query's
  // first phase is stage 2, whose fresh rows likewise start here.
  qs->snapshot = ts.cum;
  qs->snap_rows = ts.rows_cum;
  if (qs->machine.done()) {
    // Completed at bind (an all-consumed warm prior): the result exists
    // before the scan ever runs.
    qs->match = qs->machine.TakeResult();
    qs->active = false;
  } else {
    qs->active = true;
  }
  return Status::OK();
}

bool BatchExecutor::AnyActive() const {
  for (const QueryState& q : queries_) {
    if (q.active) return true;
  }
  return false;
}

bool BatchExecutor::DemandSatisfied(const QueryState& q,
                                    bool all_consumed) const {
  // Full consumption makes every cumulative count exact, which completes
  // any phase (the machine observes all_consumed and finishes).
  if (all_consumed) return true;
  const TemplateState& ts = templates_[q.tmpl];
  const SampleDemand& demand = q.machine.demand();
  if (demand.kind == SampleDemand::Kind::kRows) {
    return ts.rows_cum - q.snap_rows >= demand.rows;
  }
  for (size_t i = 0; i < demand.targets.size(); ++i) {
    if (Unmet(q, ts, i)) return false;
  }
  return true;
}

bool BatchExecutor::Unmet(const QueryState& q, const TemplateState& ts,
                          size_t i) {
  const int64_t target = q.machine.demand().targets[i];
  if (target < 0 || ts.exhausted[i]) return false;
  const int c = static_cast<int>(i);
  return ts.cum.RowTotal(c) - q.snapshot.RowTotal(c) < target;
}

CountMatrix BatchExecutor::FreshSample(const QueryState& q,
                                       int64_t* rows) const {
  const TemplateState& ts = templates_[q.tmpl];
  CountMatrix fresh = ts.cum;
  fresh.Subtract(q.snapshot);
  *rows = ts.rows_cum - q.snap_rows;
  return fresh;
}

void BatchExecutor::SupplyPhase(QueryState* q, bool all_consumed) {
  TemplateState& ts = templates_[q->tmpl];
  const bool stage1_phase =
      q->machine.demand().kind == SampleDemand::Kind::kRows;
  int64_t drawn = 0;
  CountMatrix fresh = FreshSample(*q, &drawn);
  const Status status =
      q->machine.Supply(fresh, ts.exhausted, all_consumed, drawn);
  if (stage1_phase && options_.stage1_sink != nullptr && drawn > 0) {
    ExportStage1(ts, std::move(fresh), drawn);
  }
  if (!status.ok()) {
    q->status = status;
    q->active = false;
    q->wall_seconds = timer_.Seconds();
  } else if (q->machine.done()) {
    q->match = q->machine.TakeResult();
    q->active = false;
    q->wall_seconds = timer_.Seconds();
  } else {
    q->snapshot = ts.cum;
    q->snap_rows = ts.rows_cum;
  }
}

void BatchExecutor::ExportStage1(const TemplateState& ts, CountMatrix fresh,
                                 int64_t drawn) {
  // Export the completed stage-1 phase. The counts are published even
  // when Supply failed (an all-pruned error is parameter-specific; the
  // sample itself is target-independent and reusable). Every query binds
  // at Create, before the scan reads a block, so the phase's rows are
  // exactly the rows of the consumed blocks recorded below: a batch
  // resumed from this scan never counts a row the prior holds, and never
  // misses one it lacks.
  auto snapshot = std::make_shared<Stage1Snapshot>();
  snapshot->counts = std::move(fresh);
  snapshot->rows_drawn = drawn;
  snapshot->scan.consumed = cursor_.consumed();
  snapshot->scan.cursor = cursor_.position();
  snapshot->scan.generation = pin_.generation;
  options_.stage1_sink->Publish(store_->id(), kWholeStorePartition, ts.z_attr,
                                ts.x_attrs, std::move(snapshot));
  ++stats_.stage1_exports;
}

void BatchExecutor::Settle() {
  const bool all_consumed = cursor_.AllConsumed();
  for (QueryState& q : queries_) {
    // One supply may immediately issue a demand that is already satisfied
    // (exhausted candidates, zero targets): loop to fixpoint. Each pass
    // either finishes the machine or issues a demand needing fresh
    // samples of a non-exhausted candidate, so the loop terminates.
    while (q.active && DemandSatisfied(q, all_consumed)) {
      SupplyPhase(&q, all_consumed);
    }
  }
}

void BatchExecutor::ReadChunk() {
  ++stats_.chunks;

  // Gather the chunk's demand, one per template: the union of unmet
  // candidates over its outstanding targets demands. A rows demand
  // (stage 1), or a targets demand on an index-less template, forces
  // sequential consumption of the whole window.
  demands_.resize(templates_.size());
  for (size_t t = 0; t < templates_.size(); ++t) {
    TemplateState& ts = templates_[t];
    BlockDemand& d = demands_[t];
    d.unmet.clear();
    d.scan_all = false;
    d.index = ts.index.get();
    d.exhausted = &ts.exhausted;
    // Covered-prefix rule: the bitmap index only certifies blocks fully
    // built at its build time (num_rows() / rows-per-block whole blocks
    // — a partial tail block may have been filled by later appends, so
    // its bits are stale). Marking is only ever conservative, never
    // skips a block the index can't vouch for.
    d.covered_blocks =
        d.index == nullptr ? 0 : d.index->num_rows() / pin_.rows_per_block;
    ts.has_active = false;
    std::fill(ts.unmet_seen.begin(), ts.unmet_seen.end(), false);
  }
  for (const QueryState& q : queries_) {
    if (!q.active) continue;
    TemplateState& ts = templates_[q.tmpl];
    BlockDemand& d = demands_[q.tmpl];
    ts.has_active = true;
    const SampleDemand& demand = q.machine.demand();
    if (demand.kind == SampleDemand::Kind::kRows || ts.index == nullptr) {
      d.scan_all = true;
      continue;
    }
    for (size_t i = 0; i < demand.targets.size(); ++i) {
      // Unmet first: it rejects a candidate without a target at once,
      // and most candidates of a late-stage demand have none.
      if (!Unmet(q, ts, i) || ts.unmet_seen[i]) continue;
      ts.unmet_seen[i] = true;
      d.unmet.push_back(static_cast<int>(i));
    }
  }

  // A block is read iff some template's demand wants it; a window
  // without reads may close the cursor's idle cycle, which marks the
  // unmet candidates exhausted.
  std::vector<BlockId> to_read;
  cursor_.NextWindow(demands_, options_.chunk_blocks, &to_read,
                     &stats_.blocks_skipped);
  if (to_read.empty()) return;

  // Shared read: one pass over the chunk's blocks feeds every template
  // that still has a live query. Worker slots scan contiguous slices of
  // the block list into private shards; the merge below is an integer
  // sum, so the cumulative matrix is identical for every quota and pool.
  const size_t num_reads = to_read.size();
  const size_t slots = static_cast<size_t>(options_.num_threads);
  const auto read_slice = [&](int64_t w) {
    const size_t begin = num_reads * static_cast<size_t>(w) / slots;
    const size_t end = num_reads * (static_cast<size_t>(w) + 1) / slots;
    if (begin == end) return;
    for (TemplateState& ts : templates_) {
      if (!ts.has_active) continue;
      ts.io->ReadBlocks(to_read, begin, end,
                        &ts.shards[static_cast<size_t>(w)]);
    }
  };
  options_.shared_pool->ParallelFor(static_cast<int64_t>(slots), read_slice,
                                    options_.num_threads);

  int64_t rows = 0;
  for (const BlockId b : to_read) {
    // Pinned row range: the pin clamps a seam block to the rows that
    // existed at the batch's generation.
    RowId row_begin, row_end;
    pin_.BlockRowRange(b, &row_begin, &row_end);
    rows += row_end - row_begin;
    cursor_.Consume(b);
  }
  stats_.blocks_read += static_cast<int64_t>(num_reads);
  stats_.rows_read += rows;

  for (TemplateState& ts : templates_) {
    if (!ts.has_active) continue;
    for (CountMatrix& shard : ts.shards) {
      ts.cum.Merge(shard);
      shard.Reset();
    }
    ts.rows_cum += rows;
    stats_.block_scans += static_cast<int64_t>(num_reads);
  }
}

void BatchExecutor::SetCompletionCallback(
    std::function<void(size_t, BatchItem)> fn) {
  FASTMATCH_CHECK(!started_)
      << "SetCompletionCallback after Start: completions already missed";
  on_complete_ = std::move(fn);
}

void BatchExecutor::SetProgressCallback(
    std::function<void(size_t, const ProgressUpdate&)> fn,
    std::function<bool(size_t)> subscribed) {
  FASTMATCH_CHECK(!started_)
      << "SetProgressCallback after Start: updates already missed";
  on_progress_ = std::move(fn);
  progress_subscribed_ = std::move(subscribed);
}

bool BatchExecutor::ProgressSubscribed(size_t index) const {
  return on_progress_ && (!progress_subscribed_ || progress_subscribed_(index));
}

void BatchExecutor::NotifyCompletions() {
  if (!on_complete_ && !on_progress_) return;
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryState& q = queries_[i];
    if (q.active || q.notified) continue;
    q.notified = true;
    if (q.status.ok() && ProgressSubscribed(i)) {
      // Final update, built FROM the delivered result so the streamed
      // view and the future's answer agree bit-for-bit (the progressive-
      // monotonicity contract's terminal condition).
      ProgressUpdate up;
      up.sequence = ++q.progress_seq;
      up.topk = q.match.topk;
      up.topk_distances = q.match.topk_distances;
      up.distances = q.match.distances;
      up.error_bars = q.match.error_bars;
      up.exact = q.match.exact;
      up.rows_consumed = q.match.diag.stage1_samples +
                         q.match.diag.stage2_samples +
                         q.match.diag.stage3_samples;
      up.blocks_read = stats_.blocks_read;
      up.final_update = true;
      ++stats_.progress_snapshots;
      on_progress_(i, up);
    }
    if (!on_complete_) continue;
    BatchItem item;
    item.status = q.status;
    item.match = std::move(q.match);  // the callback is the only delivery
    item.wall_seconds = q.wall_seconds;
    on_complete_(i, std::move(item));
  }
}

void BatchExecutor::EmitProgress() {
  if (!on_progress_) return;
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryState& q = queries_[i];
    if (!q.active || !ProgressSubscribed(i)) continue;
    // The machine pools the in-flight phase's fresh sample with its
    // folded phases for the snapshot.
    int64_t partial_rows = 0;
    const CountMatrix partial = FreshSample(q, &partial_rows);
    ProgressUpdate up = q.machine.Progress(&partial, partial_rows);
    // An active query's machine has a demand outstanding, so it is live.
    FASTMATCH_CHECK(!up.distances.empty());
    up.sequence = ++q.progress_seq;
    up.blocks_read = stats_.blocks_read;
    ++stats_.progress_snapshots;
    on_progress_(i, up);
  }
}

void BatchExecutor::Start() {
  FASTMATCH_CHECK(!started_) << "BatchExecutor::Start called twice";
  started_ = true;
  timer_.Restart();
  Settle();
  // Queries that failed binding at Create, or whose machine finished on
  // the first settle, complete here — the earliest a callback can fire.
  NotifyCompletions();
}

bool BatchExecutor::Step() {
  FASTMATCH_CHECK(started_) << "BatchExecutor::Step before Start";
  FASTMATCH_CHECK(!taken_) << "BatchExecutor::Step after TakeItems";
  if (!AnyActive()) return false;
  ReadChunk();
  Settle();
  NotifyCompletions();
  EmitProgress();
  return AnyActive();
}

Status BatchExecutor::Evict(size_t index) {
  return Remove(index, /*harvest=*/false);
}

Status BatchExecutor::EvictWithResult(size_t index) {
  return Remove(index, /*harvest=*/true);
}

Status BatchExecutor::Remove(size_t index, bool harvest) {
  const std::string name = harvest ? "EvictWithResult" : "Evict";
  if (!started_) {
    return Status::FailedPrecondition(name + " before Start");
  }
  if (taken_) {
    return Status::FailedPrecondition("batch already finished");
  }
  if (index >= queries_.size()) {
    return Status::OutOfRange(name + " index out of range");
  }
  QueryState& q = queries_[index];
  if (!q.active) {
    // Completed (or already evicted/failed) first: the item exists and
    // MUST win the race — callers racing a cancel or a budget expiry
    // against completion branch on this code and deliver it instead.
    return Status::FailedPrecondition("query already completed");
  }
  if (harvest) {
    // Hand the machine its in-flight phase's fresh sample and harvest:
    // it folds everything pooled so far into a best-effort result with
    // honest non-exact error bars.
    int64_t drawn = 0;
    const CountMatrix fresh = FreshSample(q, &drawn);
    const Status status = q.machine.HarvestBestEffort(
        fresh, templates_[q.tmpl].exhausted, cursor_.AllConsumed(), drawn);
    if (status.ok()) q.match = q.machine.TakeResult();
    q.status = status;
    ++stats_.harvested_queries;
  } else {
    q.status = Status::Cancelled("evicted from running batch");
    ++stats_.evicted_queries;
  }
  // From the next ReadChunk on, the union demand no longer carries this
  // query's unmet candidates (only active queries contribute), so
  // blocks only it wanted stop being marked — a removed query stops
  // consuming scan work at the next chunk boundary.
  q.active = false;
  q.wall_seconds = timer_.Seconds();
  NotifyCompletions();
  return Status::OK();
}

std::vector<BatchItem> BatchExecutor::TakeItems() {
  FASTMATCH_CHECK(started_) << "BatchExecutor::TakeItems before Start";
  FASTMATCH_CHECK(!taken_) << "BatchExecutor::TakeItems called twice";
  FASTMATCH_CHECK(!on_complete_)
      << "BatchExecutor::TakeItems with a completion callback, which "
         "already delivered every item";
  FASTMATCH_CHECK(!AnyActive())
      << "BatchExecutor::TakeItems with active queries";
  taken_ = true;

  std::vector<BatchItem> items;
  items.reserve(queries_.size());
  for (QueryState& q : queries_) {
    BatchItem item;
    item.status = q.status;
    item.match = std::move(q.match);
    item.wall_seconds = q.wall_seconds;
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<BatchItem> BatchExecutor::Run() {
  FASTMATCH_CHECK(!started_) << "BatchExecutor::Run after Start or Run";
  FASTMATCH_CHECK(!on_complete_)
      << "BatchExecutor::Run with a completion callback: drive "
         "Start()/Step() and take the items from the callback";
  Start();
  while (Step()) {
  }
  return TakeItems();
}

}  // namespace fastmatch
