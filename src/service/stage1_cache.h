// Per-store stage-1 sample cache: the service tier's memory of stage-1
// work already paid for.
//
// HistSim's stage 1 draws a fixed number of uniform rows before any
// candidate targets exist, so the counts it produces are
// target-independent per (store, template): every future query over the
// same ColumnStore and (z_attr, x_attrs) grouping could reuse them —
// yet without a cache each batch re-pays the draw, and a mid-flight
// Join() must carve stage 1 out of the scan suffix. Stage1Cache closes
// that loop: BatchExecutors publish Stage1Snapshots as batches run
// (BatchOptions::stage1_sink), and the QueryScheduler consults the
// cache at admission time — a query whose template has a warm entry
// covering its stage-1 demand skips stage 1 entirely
// (BoundQuery::stage1_warm), and a join no longer needs the suffix to
// cover stage 1 (the min_join_suffix_fraction refusal is lifted when
// the cache serves it).
//
// Soundness is the pre-shuffled-store argument already used for suffix
// joins: a cached scan prefix is a uniform without-replacement sample
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
// sub-key. The dimension is kept only so the Publish/Lookup signatures
// stay source-compatible for existing callers; dropping it is a
// separate interface change. InvalidateStore() matches the store id,
// which is what the scheduler's janitor needs when it reaps the
// pipeline keyed on that id.
//
// GENERATIONS (mutable stores): since stores grow via AppendBatch, a
// cached prior drawn at generation g describes a PREFIX of the
// generation-g' > g relation. Serving it unexamined would be silently
// biased the moment the appended rows' distribution drifts, so the
// generation-aware Lookup classifies entries instead of just
// hitting/missing: an entry at the querier's pinned generation is a
// HIT; an entry at an OLDER generation is REVALIDATION-REQUIRED (the
// snapshot is returned so the caller can run the drift test —
// service/stage1_revalidator.h — and then either Promote() the entry to
// the new generation or EvictDrifted() it); an entry at a NEWER
// generation than the querier's pin is a plain miss (its rows don't all
// exist in the pinned prefix). A cached prior is therefore NEVER served
// at a generation other than its own without a passing revalidation.
// Memory is bounded by the LRU capacity and by InvalidateStore when a
// store's pipeline is reaped; neither is a correctness rule.

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
/// `stage1_lookups == stage1_hits + stage1_misses + stage1_revalidations`
/// always; a too-small or newer-generation entry counts as a miss. The
/// base of SchedulerStats, hence the stage1_ prefix.
struct Stage1CacheStats {
  int64_t stage1_lookups = 0;             // Lookup calls
  int64_t stage1_hits = 0;                // served a covering snapshot
  int64_t stage1_misses = 0;              // lookups - hits - revalidations
  int64_t stage1_publishes = 0;           // Publish calls
  int64_t stage1_inserts = 0;             // publishes that created/replaced
                                          // an entry
  int64_t stage1_capacity_evictions = 0;  // LRU evictions (at publish)
  int64_t stage1_store_invalidations = 0; // entries dropped by
                                          // InvalidateStore
  int64_t stage1_revalidations = 0;       // lookups answered kRevalidate
  int64_t stage1_promotions = 0;          // successful Promote calls
  int64_t stage1_drift_evictions = 0;     // successful EvictDrifted calls
};

/// \brief Generation-aware lookup classification.
enum class Stage1Outcome {
  kMiss,        // no usable entry: run stage 1 cold
  kHit,         // snapshot valid at the querier's generation: serve it
  kRevalidate,  // snapshot from an older generation: drift-test first
};

/// \brief Generation-aware lookup result. `snapshot` is set for kHit
/// (serve as-is) and kRevalidate (input to the drift test), null for
/// kMiss. `entry_generation` is the generation the entry currently
/// stands at (the `from_generation` a later Promote/EvictDrifted must
/// name).
struct Stage1LookupResult {
  Stage1Outcome outcome = Stage1Outcome::kMiss;
  std::shared_ptr<const Stage1Snapshot> snapshot;
  uint64_t entry_generation = 0;
};

/// \brief Thread-safe cache of stage-1 snapshots keyed by
/// (store id, partition id, z_attr, x_attrs).
class Stage1Cache : public Stage1Sink {
 public:
  explicit Stage1Cache(Stage1CacheOptions options = {});

  /// \brief Stage1Sink hook: keeps the snapshot unless the existing
  /// entry's sample is at least as large (then only the LRU tick is
  /// renewed — the bigger sample covers every demand the smaller one
  /// could, and on a tie the resident stays). Evicts the
  /// least-recently-used entry when over capacity.
  void Publish(uint64_t store_id, uint64_t partition_id, int z_attr,
               const std::vector<int>& x_attrs,
               std::shared_ptr<const Stage1Snapshot> snapshot) override
      FASTMATCH_EXCLUDES(mu_);

  /// \brief Generation-aware lookup. An entry must exist and hold at
  /// least `min_rows` rows (a smaller sample would under-satisfy the
  /// querier's stage-1 demand) to be usable at all; then `generation`
  /// (the querier's pinned store generation) classifies it: equal to
  /// the entry's generation => kHit (LRU tick); entry older =>
  /// kRevalidate (NO LRU tick — only a passing revalidation earns the
  /// entry its recency); entry newer => kMiss.
  /// An entry only ever answers its exact (store id, partition id) pair.
  Stage1LookupResult Lookup(uint64_t store_id, uint64_t partition_id,
                            int z_attr, const std::vector<int>& x_attrs,
                            int64_t min_rows, uint64_t generation)
      FASTMATCH_EXCLUDES(mu_);

  /// \brief Marks the entry as valid at `to_generation` after a passing
  /// drift revalidation. Succeeds (true) only when the entry still
  /// exists and still stands at `from_generation` — a racing publish or
  /// eviction makes the promotion a no-op (false). Does NOT renew the
  /// LRU tick: the entry's data is unchanged, only its validity horizon
  /// moved.
  bool Promote(uint64_t store_id, uint64_t partition_id, int z_attr,
               const std::vector<int>& x_attrs, uint64_t from_generation,
               uint64_t to_generation) FASTMATCH_EXCLUDES(mu_);

  /// \brief Drops the entry after a FAILING drift revalidation.
  /// Succeeds (true) only when the entry still exists and still stands
  /// at `generation` — an entry already replaced by a newer-generation
  /// publish is left alone (false).
  bool EvictDrifted(uint64_t store_id, uint64_t partition_id, int z_attr,
                    const std::vector<int>& x_attrs, uint64_t generation)
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
    /// Generation the entry is currently valid at. Seeded from the
    /// snapshot's scan.generation at Publish and advanced by Promote —
    /// the shared const snapshot keeps its original stamp; this field
    /// is the cache's own, mutable validity horizon.
    uint64_t generation = 0;
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
