// Per-store stage-1 sample cache: the service tier's memory of stage-1
// work already paid for.
//
// HistSim's stage 1 draws a fixed number of uniform rows before any
// candidate targets exist, so the counts it produces are
// target-independent per (store, template): every future query over the
// same ColumnStore and (z_attr, x_attrs) grouping could reuse them —
// yet without a cache each batch re-pays the draw. Stage1Cache closes
// that loop: BatchExecutors publish Stage1Snapshots as batches run
// (BatchOptions::stage1_sink), and the QueryScheduler consults the
// cache when it launches a batch — a query whose template has a warm
// entry covering its stage-1 demand skips stage 1 entirely
// (BoundQuery::stage1_warm).
//
// Soundness is the pre-shuffled-store argument behind block sampling:
// a cached scan prefix is a uniform without-replacement sample
// of the relation, and the warm query's later stages draw their own
// fresh uniform samples — each phase's test statistics use only that
// phase's sample (the per-call fresh-counter rule), so serving stage 1
// from an earlier scan's prefix changes nothing the statistics rely
// on. See docs/PAPER_MAP.md ("stage-1 cache soundness").
//
// Keys are (store id, partition id, z_attr, x_attrs). The store id is
// ColumnStore::id() — the process-unique identity token, never the
// store pointer — so a freed store's recycled address can never alias a
// dead store's counts. The partition id is always kWholeStorePartition:
// a batch scans one whole store, so nothing publishes under any other
// sub-key. The dimension stays because the systems benchmark names
// kWholeStorePartition in its Lookup calls; dropping it belongs with the
// benchmark change that stops doing so. InvalidateStore() matches the
// store id, which is what the scheduler's janitor needs when it reaps
// the pipeline keyed on that id.
//
// GENERATIONS (mutable stores): since stores grow via AppendBatch, a
// prior drawn at generation g is a uniform sample of the generation-g
// relation only. It never contains a row appended later, so at g' > g
// stage 1's hypergeometric test would run on a sample that is not
// uniform over what the querier scans. An entry therefore answers ONLY
// a lookup pinned at the generation its snapshot was drawn at
// (snapshot->scan.generation); every other generation is a miss. The
// querier's cold batch then publishes a fresh snapshot at its own
// generation, which replaces the older entry. Memory is bounded by the
// LRU capacity and by InvalidateStore when a store's pipeline is
// reaped; neither is a correctness rule.

#ifndef FASTMATCH_SERVICE_STAGE1_CACHE_H_
#define FASTMATCH_SERVICE_STAGE1_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "engine/batch_executor.h"
#include "util/sync.h"

namespace fastmatch {

/// \brief Retention policy knobs.
struct Stage1CacheOptions {
  /// Maximum entries across all stores and templates; the
  /// least-recently-used entry is evicted past it. Must be >= 1.
  int capacity = 64;
};

/// \brief Monotonic counters (snapshot via Stage1Cache::stats()).
/// `stage1_lookups == stage1_hits + stage1_misses` always; a too-small
/// entry or one from another generation counts as a miss. The base of
/// SchedulerStats, hence the stage1_ prefix.
struct Stage1CacheStats {
  int64_t stage1_lookups = 0;             // Lookup calls
  int64_t stage1_hits = 0;                // served a covering snapshot
  int64_t stage1_misses = 0;              // lookups - hits
  int64_t stage1_publishes = 0;           // Publish calls
  int64_t stage1_inserts = 0;             // publishes that created/replaced
                                          // an entry
  int64_t stage1_capacity_evictions = 0;  // LRU evictions (at publish)
  int64_t stage1_store_invalidations = 0; // entries dropped by
                                          // InvalidateStore
  // Always 0: no path carries a prior across generations. The systems
  // benchmark still reports both as per-layer metrics, so they stay
  // until the benchmark drops them.
  int64_t stage1_promotions = 0;
  int64_t stage1_drift_evictions = 0;
};

/// \brief Lookup classification. kHit is the only outcome besides
/// kMiss; the enum (rather than a bool) is what the systems benchmark's
/// Lookup callers compare against.
enum class Stage1Outcome {
  kMiss,  // no usable entry: run stage 1 cold
  kHit,   // snapshot drawn at the querier's generation: serve it
};

/// \brief Lookup result: `snapshot` is set for kHit, null for kMiss.
struct Stage1LookupResult {
  Stage1Outcome outcome = Stage1Outcome::kMiss;
  std::shared_ptr<const Stage1Snapshot> snapshot;
};

/// \brief Thread-safe cache of stage-1 snapshots keyed by
/// (store id, partition id, z_attr, x_attrs).
class Stage1Cache : public Stage1Sink {
 public:
  explicit Stage1Cache(Stage1CacheOptions options = {});

  /// \brief Stage1Sink hook: a snapshot from a newer generation than
  /// the resident replaces it, one from an older generation never does,
  /// and at equal generation the bigger sample wins (on a tie the
  /// resident stays). The LRU tick is renewed either way. Evicts the
  /// least-recently-used entry when over capacity.
  void Publish(uint64_t store_id, uint64_t partition_id, int z_attr,
               const std::vector<int>& x_attrs,
               std::shared_ptr<const Stage1Snapshot> snapshot) override
      FASTMATCH_EXCLUDES(mu_);

  /// \brief Generation-aware lookup. A hit needs an entry that holds
  /// at least `min_rows` rows (a smaller sample would under-satisfy the
  /// querier's stage-1 demand) and was drawn at exactly `generation`,
  /// the querier's pinned store generation; a hit renews the LRU tick.
  /// Anything else is a miss with no LRU tick. An entry only ever
  /// answers its exact (store id, partition id) pair.
  Stage1LookupResult Lookup(uint64_t store_id, uint64_t partition_id,
                            int z_attr, const std::vector<int>& x_attrs,
                            int64_t min_rows, uint64_t generation)
      FASTMATCH_EXCLUDES(mu_);

  /// \brief Drops every entry of one store (the store id disappeared:
  /// janitor reap, store teardown). Matches the store id only, so the
  /// entries vanish under every partition id at once.
  void InvalidateStore(uint64_t store_id) FASTMATCH_EXCLUDES(mu_);

  /// \brief Live entries.
  int64_t size() const FASTMATCH_EXCLUDES(mu_);

  Stage1CacheStats stats() const FASTMATCH_EXCLUDES(mu_);

 private:
  /// (store id, partition id, z_attr, x_attrs); the store id leads so
  /// InvalidateStore can match on it alone.
  using Key = std::tuple<uint64_t, uint64_t, int, std::vector<int>>;
  struct Entry {
    std::shared_ptr<const Stage1Snapshot> snapshot;
    uint64_t last_used = 0;  // LRU tick
  };

  const Stage1CacheOptions options_;
  /// Leaf lock of the service tier: Lookup/Publish run under the
  /// scheduler's pipeline lock, so mu_ must never wrap a call back into
  /// scheduler code (see docs/ARCHITECTURE.md, lock hierarchy).
  mutable Mutex mu_;
  std::map<Key, Entry> entries_ FASTMATCH_GUARDED_BY(mu_);
  uint64_t tick_ FASTMATCH_GUARDED_BY(mu_) = 0;
  Stage1CacheStats stats_ FASTMATCH_GUARDED_BY(mu_);
};

}  // namespace fastmatch

#endif  // FASTMATCH_SERVICE_STAGE1_CACHE_H_
