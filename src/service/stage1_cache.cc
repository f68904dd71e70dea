#include "service/stage1_cache.h"

#include <utility>

#include "util/logging.h"

namespace fastmatch {

Stage1Cache::Stage1Cache(Stage1CacheOptions options)
    : options_(options) {
  FASTMATCH_CHECK(options_.capacity >= 1)
      << "Stage1Cache capacity must be >= 1";
}

void Stage1Cache::Publish(uint64_t store_id, uint64_t partition_id,
                          int z_attr, const std::vector<int>& x_attrs,
                          std::shared_ptr<const Stage1Snapshot> snapshot) {
  if (snapshot == nullptr || snapshot->rows_drawn <= 0) return;
  MutexLock lock(&mu_);
  ++stats_.stage1_publishes;
  Key key{store_id, partition_id, z_attr, x_attrs};
  auto it = entries_.find(key);
  const uint64_t incoming_gen = snapshot->scan.generation;
  if (it != entries_.end()) {
    // A snapshot from a NEWER generation than the resident replaces it
    // unconditionally: the resident can only ever serve its own, older
    // generation again, while the incoming one serves the frontier. A
    // snapshot from an OLDER generation never replaces the resident. At
    // EQUAL generation both samples are valid forever against that
    // fixed prefix, so keep the one that covers more demands: bigger
    // rows_drawn wins; on a tie the resident stays, nothing to gain from
    // the swap. Only a replacement counts as an insert.
    const Stage1Snapshot& resident = *it->second.snapshot;
    const bool replace =
        incoming_gen > resident.scan.generation ||
        (incoming_gen == resident.scan.generation &&
         snapshot->rows_drawn > resident.rows_drawn);
    if (replace) {
      it->second.snapshot = std::move(snapshot);
      ++stats_.stage1_inserts;
    }
    // The LRU tick renews even when the incoming data was dropped — ON
    // PURPOSE: a publish at ANY generation proves the template is live,
    // and recency measures how long since the template last saw traffic
    // (memory hygiene, not validity — generations own validity).
    it->second.last_used = tick_++;
    return;
  }
  if (static_cast<int>(entries_.size()) >= options_.capacity) {
    auto lru = entries_.begin();
    for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
      if (cand->second.last_used < lru->second.last_used) lru = cand;
    }
    entries_.erase(lru);
    ++stats_.stage1_capacity_evictions;
  }
  Entry entry;
  entry.snapshot = std::move(snapshot);
  entry.last_used = tick_++;
  entries_.emplace(std::move(key), std::move(entry));
  ++stats_.stage1_inserts;
}

Stage1LookupResult Stage1Cache::Lookup(uint64_t store_id,
                                       uint64_t partition_id, int z_attr,
                                       const std::vector<int>& x_attrs,
                                       int64_t min_rows,
                                       uint64_t generation) {
  MutexLock lock(&mu_);
  ++stats_.stage1_lookups;
  Stage1LookupResult result;
  auto it = entries_.find(Key{store_id, partition_id, z_attr, x_attrs});
  if (it == entries_.end()) {
    ++stats_.stage1_misses;
    return result;
  }
  const Stage1Snapshot& snapshot = *it->second.snapshot;
  if (snapshot.rows_drawn < min_rows ||
      snapshot.scan.generation != generation) {
    // Too small for this demand, or drawn at another generation: an
    // older prior holds no appended row, a newer one holds rows past the
    // querier's pin, so neither is a uniform sample of the pinned
    // relation. Keep the entry (it still serves its own generation, and
    // a fresh publish replaces it); this querier runs cold.
    ++stats_.stage1_misses;
    return result;
  }
  it->second.last_used = tick_++;
  ++stats_.stage1_hits;
  result.outcome = Stage1Outcome::kHit;
  result.snapshot = it->second.snapshot;
  return result;
}

int64_t Stage1Cache::size() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(entries_.size());
}

Stage1CacheStats Stage1Cache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace fastmatch
