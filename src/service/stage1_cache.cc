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
    // unconditionally: the resident describes a strict prefix of the
    // newer relation and would otherwise need a drift revalidation
    // before every future serve, while the incoming one is already
    // valid at the frontier. A snapshot from an OLDER generation than
    // the resident never replaces it (its rows are a subset of what the
    // resident already covers). At EQUAL generation both samples are
    // valid forever against that fixed prefix, so keep the one that
    // covers more demands: bigger rows_drawn wins; on a tie the resident
    // stays, nothing to gain from the swap. Only a replacement counts as
    // an insert.
    const Entry& resident = it->second;
    const bool replace =
        incoming_gen > resident.generation ||
        (incoming_gen == resident.generation &&
         snapshot->rows_drawn > resident.snapshot->rows_drawn);
    if (replace) {
      it->second.snapshot = std::move(snapshot);
      it->second.generation = incoming_gen;
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
  entry.generation = incoming_gen;
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
  if (it->second.snapshot->rows_drawn < min_rows) {
    // Too small for this demand; keep it (a smaller future demand may
    // still be served, and a bigger publish will replace it).
    ++stats_.stage1_misses;
    return result;
  }
  if (it->second.generation > generation) {
    // The entry samples rows beyond the querier's pinned prefix — its
    // counts are not a uniform sample of the pinned relation, and no
    // revalidation can shrink a sample. Keep the entry (it serves
    // current-generation queries); this querier runs cold.
    ++stats_.stage1_misses;
    return result;
  }
  if (it->second.generation < generation) {
    // Older-generation prior: hand it back for a drift test, but do
    // NOT tick the LRU — only a passing revalidation (Promote) or a
    // real hit earns the entry its recency.
    ++stats_.stage1_revalidations;
    result.outcome = Stage1Outcome::kRevalidate;
    result.snapshot = it->second.snapshot;
    result.entry_generation = it->second.generation;
    return result;
  }
  it->second.last_used = tick_++;
  ++stats_.stage1_hits;
  result.outcome = Stage1Outcome::kHit;
  result.snapshot = it->second.snapshot;
  result.entry_generation = it->second.generation;
  return result;
}

bool Stage1Cache::Promote(uint64_t store_id, uint64_t partition_id,
                          int z_attr, const std::vector<int>& x_attrs,
                          uint64_t from_generation, uint64_t to_generation) {
  MutexLock lock(&mu_);
  auto it = entries_.find(Key{store_id, partition_id, z_attr, x_attrs});
  if (it == entries_.end() || it->second.generation != from_generation) {
    // A racing publish/eviction moved the entry out from under the
    // revalidator; its verdict no longer describes what's resident.
    return false;
  }
  // Only the validity horizon moves: last_used is left as-is, so a
  // promotion does not bump the entry in the LRU order — the entry's
  // data saw no new traffic.
  it->second.generation = to_generation;
  ++stats_.stage1_promotions;
  return true;
}

bool Stage1Cache::EvictDrifted(uint64_t store_id, uint64_t partition_id,
                               int z_attr, const std::vector<int>& x_attrs,
                               uint64_t generation) {
  MutexLock lock(&mu_);
  auto it = entries_.find(Key{store_id, partition_id, z_attr, x_attrs});
  if (it == entries_.end() || it->second.generation != generation) {
    // The drift verdict was about an entry that is no longer resident
    // (e.g. a newer-generation publish replaced it); leave the
    // newcomer alone.
    return false;
  }
  entries_.erase(it);
  ++stats_.stage1_drift_evictions;
  return true;
}

void Stage1Cache::InvalidateStore(uint64_t store_id) {
  MutexLock lock(&mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (std::get<0>(it->first) == store_id) {
      it = entries_.erase(it);
      ++stats_.stage1_store_invalidations;
    } else {
      ++it;
    }
  }
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
