// Block-level bitmap index (paper Section 4.1).
//
// For one attribute A: for each attribute value v, a bitmap over blocks
// where bit p = 1 iff block p contains >= 1 tuple with A = v. This is
// orders of magnitude smaller than tuple-level bitmaps (one bit per block,
// not per tuple) and is what lets the sampling engine apply the AnyActive
// block selection policy without touching the data.

#ifndef FASTMATCH_INDEX_BITMAP_INDEX_H_
#define FASTMATCH_INDEX_BITMAP_INDEX_H_

#include <memory>
#include <vector>

#include "index/bitvector.h"
#include "storage/column_store.h"
#include "util/result.h"

namespace fastmatch {

/// \brief Per-attribute, per-value block bitmaps.
class BitmapIndex {
 public:
  /// \brief Builds the index for `attr` of `store` in one scan.
  static Result<std::shared_ptr<BitmapIndex>> Build(const ColumnStore& store,
                                                    int attr);

  int attribute() const { return attr_; }
  /// \brief ColumnStore::id() of the store the index was built on. Its
  /// bits describe that store's blocks only, so the engines refuse it
  /// for any other store, even one of the same shape.
  uint64_t store_id() const { return store_id_; }
  int64_t num_blocks() const { return num_blocks_; }

  /// \brief Row count of the store AT BUILD TIME. A generation-pinned
  /// scan over a store that has since grown derives the index's COVERED
  /// block prefix from this (num_rows() / rows_per_block — a partial
  /// tail block at build time may have been filled by later appends, so
  /// its bitmap is stale and only whole covered blocks may be skipped);
  /// blocks past the covered prefix must be read unconditionally.
  int64_t num_rows() const { return num_rows_; }
  uint32_t num_values() const {
    return static_cast<uint32_t>(bitmaps_.size());
  }

  /// \brief Does block `b` contain at least one tuple with value `v`?
  bool BlockContains(Value v, BlockId b) const {
    return bitmaps_[v].Get(b);
  }

  /// \brief Bitmap for value v (for word-level scanning, Algorithm 3).
  const BitVector& bitmap(Value v) const { return bitmaps_[v]; }

  /// \brief Number of blocks containing value v (cached popcount).
  int64_t BlockCount(Value v) const { return block_counts_[v]; }

  /// \brief Total index size in bytes (for reporting).
  int64_t ByteSize() const;

 private:
  int attr_ = -1;
  uint64_t store_id_ = 0;
  int64_t num_blocks_ = 0;
  int64_t num_rows_ = 0;
  std::vector<BitVector> bitmaps_;     // indexed by value
  std::vector<int64_t> block_counts_;  // popcount cache
};

}  // namespace fastmatch

#endif  // FASTMATCH_INDEX_BITMAP_INDEX_H_
