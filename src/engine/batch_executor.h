// Shared-scan batch execution: N concurrent queries, one scan.
//
// A single FastMatch run reads blocks for one query; concurrent queries
// over the same store each re-read the same blocks. Under dashboard-style
// traffic (many users probing one relation) that is the dominant waste,
// and shared scans are the classic fix: touch each datum once for many
// consumers. The batch executor drives N HistSim state machines
// (core/histsim.h, HistSimMachine) round-robin and services all of their
// outstanding sample demands from ONE shared ScanCursor
// (engine/block_policy.h: seeded start, consumed set and exhaustion
// rule, the same one the single-query engine scans with), so a block
// read once feeds every query that needs it.
//
// Queries are grouped by (z_attr, x_attrs) "template". Each template's
// `cum` is every live query's pooled sample (every query binds before
// the scan reads a block; a resumed batch's pool starts at the one prior
// its queries are warm from), and each machine's totals are the phase
// baseline: a phase's fresh sample is `cum` minus them. Every query
// therefore folds a prefix of the shared block stream, which preserves
// the without-replacement sampling model per query (the store is
// pre-shuffled; the stream visits each block at most once).
//
// Per chunk (a window of `chunk_blocks` cursor positions):
//   1. union the unmet candidates of every outstanding targets demand per
//      template and visit the window through ScanCursor::NextWindow
//      (Algorithm 3's word-wise marking from the bitmap index, OR-ed
//      across templates); any rows demand (stage 1) — or a targets
//      demand on a template without a bitmap index — forces plain
//      sequential consumption of the window. Skipped blocks stay
//      UNCONSUMED (a later demand may still want them) and count into
//      BatchStats::blocks_skipped;
//   2. read the marked, unconsumed blocks with the worker pool: each
//      worker slot scans a contiguous slice of the chunk into thread-
//      local CountMatrix shards (one per template), merged into the
//      template's cumulative matrix after the join. Counts are integer
//      sums over a deterministic block set, so results are bit-for-bit
//      identical for every thread count;
//   3. complete every phase whose demand is now satisfied (or whose
//      candidates are exhausted) and collect the next demands.
//
// Correctness of cross-query block sharing: for a candidate c that is
// unmet for some query, every block containing c is marked (c is in the
// union), so c's fresh samples arrive in cursor order — uniform without
// replacement, exactly as in the single-query engine. Blocks read for
// *other* queries' candidates add rows of already-satisfied candidates
// only, which the statistics tolerate by design (extra uniform samples
// never hurt; the single-query engine over-delivers the same way at
// block granularity).
//
// Warm stage-1 starts: stage 1 is target-independent per template, so
// one query's completed stage-1 sample serves every later query on the
// same (store, template). The executor participates at both ends: it
// EXPORTS each stage-1 phase completed from the scan as a
// Stage1Snapshot (BatchOptions::stage1_sink, typically the service
// tier's Stage1Cache), and it CONSUMES a snapshot attached to a query
// (BoundQuery::stage1_warm) by warm-starting that query's machine past
// stage 1. A prior is accepted only when it shares no row with the
// batch's scan, so it is the prefix of its query's own scan: either the
// batch continues the prior's own scan (BatchOptions::resume =
// snapshot.scan, every query warm from that one snapshot), which never
// revisits the prior's blocks and is bit-for-bit identical to the cold
// run that produced the snapshot, or the prior holds every pinned row
// and its query completes at bind. Create refuses any other prior.
// Every query's sample is then one uniform without-replacement scan of
// the pre-shuffled store, and an `exact` flag always covers the
// relation.
//
// Concurrency contract: the executor itself holds NO locks — by design
// it has exactly one driver thread (the store's pipeline loop), which
// calls Start/Step/Evict/TakeItems strictly sequentially, and the
// only parallelism is the per-chunk ParallelFor fork-join into a
// SharedWorkerPool (whose queue is guarded by SharedWorkerPool::mu_;
// see docs/ARCHITECTURE.md, "Concurrency & lock hierarchy"). Worker
// slots write disjoint CountMatrix shards, so no executor state needs
// a mutex and the class stays invisible to the lock hierarchy. The
// completion callback fires synchronously on the driver thread.

#ifndef FASTMATCH_ENGINE_BATCH_EXECUTOR_H_
#define FASTMATCH_ENGINE_BATCH_EXECUTOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/histsim.h"
#include "engine/block_policy.h"
#include "engine/executor.h"
#include "engine/io_manager.h"
#include "index/bitmap_index.h"
#include "index/bitvector.h"
#include "storage/column_store.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fastmatch {

/// \brief A scan position to resume from: which blocks a donor scan has
/// already consumed (they will never be read) and where its cursor
/// stands. Every Stage1Snapshot carries one; BatchOptions::resume
/// accepts it for a batch warm from that snapshot.
struct ScanResume {
  /// Blocks already consumed by the donor scan; size must equal the
  /// store's block count AT THE DONOR'S PINNED GENERATION.
  BitVector consumed;
  /// Cursor position the donor scan would read next; in [0, num_blocks).
  BlockId cursor = 0;
  /// Store generation the donor scan was pinned at. A resuming batch
  /// re-pins THIS generation (not the current one), so the resumed run
  /// scans exactly the donor's block space even if the store has grown
  /// since — the condition for bit-for-bit resume equivalence. Store
  /// generations start at 1; Create rejects a resume with generation 0.
  uint64_t generation = 0;
};

/// \brief One completed stage-1 phase, exported by the batch executor
/// at the chunk boundary that finished it and replayable as a warm
/// start (core Stage1Prior) by any later query on the same (store,
/// template) — stage 1 is target-independent, so the counts serve every
/// future target.
///
/// `counts`/`rows_drawn` follow the stage-1 Supply contract: the
/// phase's rows and only those. `z_attr`/`x_attrs` name the template
/// they were counted on; Create serves the snapshot only to a query on
/// that template. `scan` is the shared scan's state at export time:
/// `consumed`/`cursor` describe the donor scan, and feeding them to
/// BatchOptions::resume continues it for a batch warm from this
/// snapshot.
struct Stage1Snapshot {
  CountMatrix counts;
  int64_t rows_drawn = 0;
  int z_attr = -1;
  std::vector<int> x_attrs;
  ScanResume scan;
};

/// \brief Partition sub-key of every stage-1 publish: a batch always
/// scans one whole ColumnStore. Kept as a key dimension because the
/// systems benchmark passes it to Stage1Cache::Lookup; it goes when the
/// benchmark stops naming it.
inline constexpr uint64_t kWholeStorePartition = 0;

/// \brief Where the batch executor publishes stage-1 snapshots
/// (implemented by the service tier's Stage1Cache). One executor
/// publishes from its single driving thread, but many executors share a
/// sink, so implementations must be thread-safe.
class Stage1Sink {
 public:
  virtual ~Stage1Sink() = default;
  /// \brief Offers a snapshot for (store_id, partition_id, z_attr,
  /// x_attrs); the executor always publishes under the scanned store's
  /// ColumnStore::id() and kWholeStorePartition. The sink owns admission
  /// policy (keep the bigger sample, capacity); a publish may be
  /// dropped silently.
  virtual void Publish(uint64_t store_id, uint64_t partition_id, int z_attr,
                       const std::vector<int>& x_attrs,
                       std::shared_ptr<const Stage1Snapshot> snapshot) = 0;
};

/// \brief Batch executor knobs.
struct BatchOptions {
  /// Block-reader worker slots: the batch's concurrency quota on its
  /// worker pool (at most this many pool workers at once).
  int num_threads = 4;
  /// Shared-scan window: cursor positions marked and read per chunk.
  /// Plays the role of the single-query engine's lookahead window.
  int chunk_blocks = 1024;
  /// Seed; chooses the shared cursor's random start position (ignored
  /// when `resume` is set).
  uint64_t seed = 42;
  /// When set, the scan continues a donor scan instead of starting
  /// fresh: pre-consumed blocks are never read and the cursor starts at
  /// the donor's position. Create accepts it only when every query is
  /// warm from one Stage1Snapshot whose `scan` equals it, so the prior
  /// covers exactly the blocks the resumed scan skips. A resume with no
  /// block left is accepted only from a prior that holds every row.
  std::optional<ScanResume> resume;
  /// Pool the block reads run on, at most num_threads tasks at once (the
  /// batch's quota); null means SharedWorkerPool::Process(). The pool
  /// must outlive the executor. Results are identical on every pool:
  /// shard count is num_threads and merges are commutative integer sums.
  SharedWorkerPool* shared_pool = nullptr;
  /// When non-null, every stage-1 phase completed from the scan is
  /// exported here as a Stage1Snapshot (warm-started queries complete
  /// stage 1 without the scan, so they never export). The sink must
  /// outlive the executor.
  Stage1Sink* stage1_sink = nullptr;
};

/// \brief I/O accounting for one batch run. `blocks_read` counts unique
/// stream blocks (the shared-scan win: B identical queries cost one read
/// per block, not B); `block_scans` counts block x template kernel
/// passes.
struct BatchStats {
  /// Unique blocks read from the store.
  int64_t blocks_read = 0;
  /// Block x template kernel passes (>= blocks_read with >1 template).
  int64_t block_scans = 0;
  /// Rows decoded across all read blocks.
  int64_t rows_read = 0;
  /// Unconsumed window positions the marking policy left unread.
  int64_t blocks_skipped = 0;
  /// Scan rounds (chunks) executed.
  int64_t chunks = 0;
  /// Queries removed mid-flight through Evict().
  int64_t evicted_queries = 0;
  /// Queries removed mid-flight through EvictWithResult(): their machine
  /// was harvested into a best-effort MatchResult instead of a
  /// Cancelled status.
  int64_t harvested_queries = 0;
  /// Queries that skipped stage 1 via BoundQuery::stage1_warm.
  int64_t warm_queries = 0;
  /// Stage-1 snapshots published to BatchOptions::stage1_sink.
  int64_t stage1_exports = 0;
  /// ProgressUpdates built and handed to the progress callback
  /// (chunk-boundary snapshots plus final updates). Only subscribed
  /// queries get any, so a batch nobody subscribed to counts 0.
  int64_t progress_snapshots = 0;
  /// Distinct (z_attr, x_attrs) templates in the batch.
  int num_templates = 0;
};

/// \brief Per-query outcome of a batch run, returned by TakeItems()/Run()
/// or handed to the completion callback (same index order as the input).
struct BatchItem {
  /// Per-query status: one query failing (bad parameters, everything
  /// pruned) never sinks the rest of the batch.
  Status status;
  /// Valid when status.ok().
  MatchResult match;
  /// Seconds from batch start (Start()/Run()) until this query
  /// completed.
  double wall_seconds = 0;
};

/// \brief Shared-scan executor for N concurrent queries over one store.
///
/// Every batch is closed at Create: a query that arrives later waits
/// for the next batch. Two driving protocols:
///   * one call:  Create() then Run();
///   * stepwise:  Create(), Start(), then Step() until it returns false,
///     then TakeItems(). Between Step() calls (chunk boundaries) running
///     queries may be evicted. With a completion callback set, the
///     callback delivers each item instead of TakeItems(); this is how
///     the service-tier QueryScheduler drives it.
class BatchExecutor {
 public:
  /// \brief Creates an executor for one batch. All queries must share one
  /// ColumnStore (shared-scan batching is per store; route queries over
  /// different stores to different batches). Structural problems (empty
  /// batch, mixed stores, malformed resume state, a warm prior that
  /// would share rows with the scan or was counted on another template)
  /// fail here; per-query problems (bad
  /// parameters, a wrong index or target size, a prior of the wrong
  /// domain) surface as per-item statuses.
  static Result<std::unique_ptr<BatchExecutor>> Create(
      const std::vector<BoundQuery>& queries, BatchOptions options);

  /// \brief Runs every query to completion and returns the items. Call
  /// exactly once; mutually exclusive with the Start()/Step() protocol.
  std::vector<BatchItem> Run();

  /// \brief Starts the scan's timer and settles any
  /// immediately-satisfiable phases. Call exactly once before Step().
  void Start();

  /// \brief Executes one shared-scan chunk (mark, read, settle) and
  /// returns true while any query is still active. Requires Start().
  /// A false return means every query completed: call TakeItems(), or,
  /// with a completion callback set, every item has been delivered.
  bool Step();

  /// \brief Removes a still-active query from the running batch: its
  /// machine stops, its template's contribution leaves the union block
  /// demand from the next chunk on (blocks only its candidates wanted
  /// are no longer marked), and its item reports Cancelled. Fails with
  /// OutOfRange for an unknown index and FailedPrecondition when the
  /// query already completed — in that race the result exists and the
  /// caller should deliver it instead. The completion callback does
  /// fire for the evicted query (with the Cancelled item), so callers
  /// observe every query's terminal transition through one channel.
  Status Evict(size_t index);

  /// \brief Removes a still-active query like Evict(), but instead of a
  /// Cancelled item the query's machine is harvested: its pooled sample
  /// so far (all folded phases plus the in-flight phase's fresh counts)
  /// is finalized into a best-effort MatchResult with
  /// `best_effort = true` and honest non-exact error bars, delivered as
  /// an OK item. This is the execution-budget seam: an expired query
  /// still answers with whatever confidence its sample bought.
  ///
  /// Same failure contract as Evict(): OutOfRange for an unknown index,
  /// FailedPrecondition("query already completed") when the machine
  /// finished first — in that race the exact result exists and the
  /// caller must deliver IT, never a partial. The completion callback
  /// (and a final ProgressUpdate, if the query is subscribed to
  /// progress) fires for the harvested query.
  Status EvictWithResult(size_t index);

  /// \brief Registers `fn`, called exactly once per query at the moment
  /// it completes — result ready, per-query failure, or eviction — with
  /// the query's item index and its item, moved out of the executor.
  /// This is the eager-delivery hook: a machine finishing mid-scan
  /// surfaces here at the chunk boundary that finished it.
  ///
  /// The callback is each item's only delivery path: an executor with
  /// one refuses TakeItems() and Run() (FASTMATCH_CHECK); drive it with
  /// Start()/Step() until Step() returns false.
  ///
  /// Calls happen synchronously on the driving thread, inside Start(),
  /// Step(), Evict() and EvictWithResult(). Must be set before Start();
  /// fn must not re-enter the executor. Queries already failed at
  /// Create() are reported from Start().
  void SetCompletionCallback(std::function<void(size_t, BatchItem)> fn);

  /// \brief Registers `fn`, called at every chunk boundary for every
  /// still-active subscribed query with its current anytime snapshot
  /// (top-k so far, per-candidate distances and Theorem-1 error bars
  /// over the pooled sample — see HistSimMachine::Progress), and exactly
  /// once more per OK subscribed query at completion with
  /// `final_update = true`, where the update mirrors the delivered
  /// MatchResult bit-for-bit. Per query, `sequence` increases strictly
  /// from 1 and error bars shrink weakly (the pooled sample only grows).
  ///
  /// `subscribed(index)` says whether query `index` has a consumer; its
  /// answer must not change over the query's life. The executor asks it
  /// before building anything, so an unsubscribed query gets no update
  /// and costs the scan nothing. Null (the default) subscribes every
  /// query. A snapshot pools the query's whole sample, O(|VZ| x |VX|)
  /// per query per chunk, so a caller whose queries opt in one by one
  /// must pass a predicate.
  ///
  /// Same discipline as the completion callback: synchronous on the
  /// driving thread, set before Start(), neither fn nor subscribed may
  /// re-enter the executor. Unset (the default) costs the scan nothing.
  void SetProgressCallback(
      std::function<void(size_t, const ProgressUpdate&)> fn,
      std::function<bool(size_t)> subscribed = nullptr);

  /// \brief Moves out the per-query outcomes. Requires Start(), no
  /// remaining active queries and no completion callback; valid once.
  std::vector<BatchItem> TakeItems();

  /// \brief True once every admitted query has completed (or failed).
  bool finished() const { return !AnyActive(); }

  /// \brief Queries in the batch.
  size_t num_queries() const { return queries_.size(); }

  /// \brief The shared scan's position: cursor and consumed blocks
  /// (pre-consumed resume blocks included).
  const ScanCursor& scan() const { return cursor_; }

  /// \brief I/O accounting so far (final after the last Step()/Run()).
  const BatchStats& stats() const { return stats_; }

  /// \brief The logical scan geometry this batch is pinned to. Every
  /// size the batch reasons with (block count, row count, all-consumed
  /// checks, machine populations) comes from here, never from the live
  /// store — a concurrent append cannot move the scan's goalposts.
  const StorePin& pin() const { return pin_; }

 private:
  BatchExecutor(std::shared_ptr<const ColumnStore> store, StorePin pin,
                BatchOptions options);

  /// Per-(z_attr, x_attrs) shared state: one scan kernel, one
  /// cumulative count matrix, sticky exhaustion, and per-worker shards.
  struct TemplateState {
    int z_attr = -1;
    std::vector<int> x_attrs;
    std::unique_ptr<IoManager> io;
    /// AnyActive marking authority (null => no block skipping, targets
    /// demands force sequential consumption).
    std::shared_ptr<const BitmapIndex> index;
    /// Every live query's pooled sample and the rows behind it.
    CountMatrix cum;
    int64_t rows_cum = 0;
    std::vector<bool> exhausted;  // sticky: candidate fully enumerated
    /// One shard matrix per worker slot: a slot writes only its own, so
    /// shards stay disjoint across workers and merges stay commutative
    /// integer sums.
    std::vector<CountMatrix> shards;
    std::vector<bool> unmet_seen;  // per-chunk dedup scratch
    bool has_active = false;       // any live query this chunk
  };

  struct QueryState {
    explicit QueryState(HistSimMachine m) : machine(std::move(m)) {}
    HistSimMachine machine;
    size_t tmpl = 0;
    bool active = false;
    bool notified = false;  // terminal callbacks already fired
    Status status;
    MatchResult match;
    double wall_seconds = 0;
    uint64_t progress_seq = 0;  // last ProgressUpdate::sequence issued
  };

  void AddQuery(const BoundQuery& query);
  Status BindQuery(const BoundQuery& query, QueryState* qs);
  bool AnyActive() const;
  /// Completes every phase whose demand is satisfied, to fixpoint.
  void Settle();
  bool DemandSatisfied(const QueryState& q, bool all_consumed) const;
  /// Candidate `i` of q's targets demand still wants fresh samples: it
  /// has a target, is not exhausted, and its fresh rows (the pool's
  /// minus the machine's held ones) fall short.
  static bool Unmet(const QueryState& q, const TemplateState& ts, size_t i);
  void SupplyPhase(QueryState* q, bool all_consumed);
  /// Marks and reads one shared-scan window.
  void ReadChunk();
  /// Publishes the template's pool as a completed stage-1 phase.
  void ExportStage1(const TemplateState& ts);
  /// Fires the terminal callbacks for every newly-inactive query: the
  /// final ProgressUpdate (OK subscribed queries) then the completion
  /// callback.
  void NotifyCompletions();
  /// Fires the progress callback for every still-active subscribed
  /// query with its current pooled-sample snapshot (chunk-boundary
  /// emission).
  void EmitProgress();
  /// A progress callback is set and query `index` has a subscriber.
  bool ProgressSubscribed(size_t index) const;
  /// Evict() (harvest false) and EvictWithResult() (harvest true): the
  /// shared refusals, the removal, then the terminal callbacks.
  Status Remove(size_t index, bool harvest);

  std::shared_ptr<const ColumnStore> store_;
  BatchOptions options_;  // shared_pool resolved (never null)
  StorePin pin_;
  ScanCursor cursor_;
  std::vector<TemplateState> templates_;
  std::vector<QueryState> queries_;
  /// Per-chunk demand of each template (indexed like templates_).
  std::vector<BlockDemand> demands_;
  std::function<void(size_t, BatchItem)> on_complete_;
  std::function<void(size_t, const ProgressUpdate&)> on_progress_;
  std::function<bool(size_t)> progress_subscribed_;  // null: every query
  BatchStats stats_;
  WallTimer timer_;  // restarted at Start(); item wall_seconds base
  bool started_ = false;
  bool taken_ = false;
};

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_BATCH_EXECUTOR_H_
