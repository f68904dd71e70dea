// Column-oriented in-memory store with a fixed block grid.
//
// FastMatch's unit of I/O is the block (paper Section 4): a fixed number of
// consecutive rows, sized so that one column's slice of a block is
// `block_bytes` (default 600 bytes, the paper's setting) for the widest
// column. Blocks are aligned across columns so a block id denotes the same
// tuple range in every column.
//
// The paper's preprocessing randomly permutes the tuples once so that a
// sequential scan from any starting point is a uniform without-replacement
// sample; `Shuffle()` implements that step.
//
// Streaming ingest (generation-versioned appends): after the initial
// build, AppendBatch() grows the store by a sub-shuffled batch of rows
// and bumps a monotonically increasing GENERATION counter (the initial
// contents are generation 1). New rows are placed strictly after the
// old ones, each batch internally re-permuted (per-generation
// sub-shuffle), which preserves the paper's §4.1 property per
// generation prefix: every scan over the rows of generations <= g is a
// scan over a pre-shuffled relation — and the soundness argument for
// treating a grown store's suffix as uniform is the stratified-sampling
// one (docs/PAPER_MAP.md): each generation's rows are an exchangeable
// block of the stream, uniformly permuted within itself.
//
// Scans never observe an append mid-flight: a scan PINS the generation
// it starts at (Pin()/PinView()), which freezes the row/block geometry
// and snapshots the chunk directory, and appends only write rows past
// every older generation's pinned row count (chunk allocations are
// stable — see storage/column.h). A scan pinned at generation g
// therefore reads bit-for-bit the same blocks before, during, and
// after any concurrent append.
//
// Thread safety: the initial build (AppendRow/Shuffle/FromColumns) is
// pre-publication and single-threaded. Once shared, ALL mutation goes
// through AppendBatch() and all concurrent reading goes through pinned
// StoreViews; both serialize on gen_mu_ (a LEAF mutex — nothing is
// acquired under it; see docs/ARCHITECTURE.md "Concurrency & lock
// hierarchy").

#ifndef FASTMATCH_STORAGE_COLUMN_STORE_H_
#define FASTMATCH_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "storage/column.h"
#include "storage/schema.h"
#include "storage/types.h"
#include "util/random.h"
#include "util/result.h"
#include "util/sync.h"

namespace fastmatch {

/// Storage layout knobs.
struct StorageOptions {
  /// Bytes of one column's slice of one block, for the widest column.
  /// The paper uses 600 and reports insensitivity to the exact choice.
  int block_bytes = 600;

  /// When > 0, overrides the block_bytes computation with an explicit
  /// row count per block.
  int rows_per_block_override = 0;
};

/// \brief A pinned snapshot of one store's scan geometry: the row/block
/// counts as of one generation. All engine-side size reads go through a
/// pin (never through live num_rows()/num_blocks(), which a concurrent
/// append can move mid-scan — the `pinned-scan` lint rule enforces
/// this). A pin is a value: cheap to copy, meaningful after the store
/// has grown past it.
struct StorePin {
  uint64_t store_id = 0;
  uint64_t generation = 0;
  int64_t num_rows = 0;
  int64_t num_blocks = 0;
  int rows_per_block = 1;

  /// \brief Row range [begin, end) covered by block b AT THIS PIN (the
  /// pin's last block may be short; a later generation may fill it).
  void BlockRowRange(BlockId b, RowId* begin, RowId* end) const {
    *begin = b * rows_per_block;
    *end = std::min<RowId>(num_rows, *begin + rows_per_block);
  }

  /// \brief Block containing row r.
  BlockId BlockOfRow(RowId r) const { return r / rows_per_block; }
};

/// \brief A pin plus a snapshot of every column's chunk directory: the
/// read handle for scans that must be immune to concurrent appends.
/// Chunk c holds block c's rows (chunk rows == rows-per-block), so a
/// kernel reads block b via chunk_data<T>(attr, b) with LOCAL row
/// offsets from pin().BlockRowRange(b, ...).
///
/// The view does not own the store's memory: the creating caller must
/// keep the ColumnStore alive (IoManager holds the shared_ptr).
class StoreView {
 public:
  StoreView() = default;

  const StorePin& pin() const { return pin_; }

  /// \brief Typed base pointer of attribute `attr`'s chunk `c`
  /// (== block c). T must match the attribute's physical width.
  template <typename T>
  const T* chunk_data(int attr, int64_t c) const {
    return reinterpret_cast<const T*>(
        chunks_[static_cast<size_t>(attr) * static_cast<size_t>(num_chunks_) +
                static_cast<size_t>(c)]);
  }

  /// \brief Type-erased base pointer of attribute `attr`'s chunk `c`:
  /// the generic (multi-x) scan kernel's accessor, paired with type()
  /// for width-dispatched decoding.
  const uint8_t* chunk_bytes(int attr, int64_t c) const {
    return chunks_[static_cast<size_t>(attr) * static_cast<size_t>(num_chunks_) +
                   static_cast<size_t>(c)];
  }

  /// \brief Physical width of attribute `attr` in this view.
  ValueType type(int attr) const {
    return types_[static_cast<size_t>(attr)];
  }

  /// \brief Generic random access within the pinned row range (branchy;
  /// scans should use chunk_data per block).
  Value Get(int attr, RowId row) const {
    const uint8_t* chunk =
        chunks_[static_cast<size_t>(attr) * static_cast<size_t>(num_chunks_) +
                static_cast<size_t>(row / pin_.rows_per_block)];
    const int64_t local = row % pin_.rows_per_block;
    switch (types_[static_cast<size_t>(attr)]) {
      case ValueType::kU8:
        return chunk[local];
      case ValueType::kU16: {
        uint16_t x;
        std::memcpy(&x, chunk + local * 2, 2);
        return x;
      }
      case ValueType::kU32: {
        uint32_t x;
        std::memcpy(&x, chunk + local * 4, 4);
        return x;
      }
    }
    return 0;
  }

 private:
  friend class ColumnStore;

  StorePin pin_;
  int64_t num_chunks_ = 0;
  std::vector<ValueType> types_;          // per attribute
  std::vector<const uint8_t*> chunks_;    // [attr * num_chunks_ + chunk]
};

/// \brief Columnar relation: immutable block grid, appendable contents
/// (generation-versioned; see the header comment).
class ColumnStore {
 public:
  ColumnStore(Schema schema, StorageOptions options = {});

  /// \brief Builds a store by moving in fully materialized columns.
  /// Every vector must have the same length; values must be within the
  /// attribute's cardinality.
  static Result<std::shared_ptr<ColumnStore>> FromColumns(
      Schema schema, std::vector<std::vector<Value>> column_values,
      StorageOptions options = {});

  const Schema& schema() const { return schema_; }
  const Column& column(int attr) const { return columns_.at(attr); }

  /// \brief Process-unique identity token, assigned at construction and
  /// never reused. Long-lived registries (e.g. the query scheduler's
  /// per-store pipelines) must key on this, not on the ColumnStore*: a
  /// freed store's address can be recycled by the allocator for a brand
  /// new store, silently aliasing the dead entry.
  uint64_t id() const { return id_; }

  /// Live size reads. Safe to call concurrently with appends (atomic),
  /// but the value can be stale by return — scans must pin instead.
  int64_t num_rows() const {
    return num_rows_.load(std::memory_order_acquire);
  }
  int rows_per_block() const { return rows_per_block_; }
  int64_t num_blocks() const {
    return (num_rows() + rows_per_block_ - 1) / rows_per_block_;
  }

  /// \brief Row range [begin, end) covered by block b (last block may be
  /// short). Live-geometry convenience for quiescent callers; pinned
  /// scans use StorePin::BlockRowRange.
  void BlockRowRange(BlockId b, RowId* begin, RowId* end) const {
    *begin = b * rows_per_block_;
    *end = std::min<RowId>(num_rows(), *begin + rows_per_block_);
  }

  /// \brief Block containing row r.
  BlockId BlockOfRow(RowId r) const { return r / rows_per_block_; }

  // ------------------------------------------------ generations & pins

  /// \brief Current generation; starts at 1, bumped by every
  /// AppendBatch. Monotone — a pin at generation g stays meaningful
  /// forever.
  uint64_t generation() const;

  /// \brief Pins the CURRENT generation's geometry.
  StorePin Pin() const;

  /// \brief Pins a historical generation's geometry (its row count is
  /// frozen at the moment the next generation was created). Fails for
  /// generation 0 or a generation that does not exist yet.
  Result<StorePin> PinAt(uint64_t generation) const;

  /// \brief Pin plus chunk-directory snapshot for the current
  /// generation (the scan-kernel read handle).
  StoreView PinView() const;

  /// \brief PinView at a historical generation.
  Result<StoreView> PinViewAt(uint64_t generation) const;

  /// \brief Appends one batch of rows as a new generation.
  ///
  /// `column_values` is one vector per attribute (the FromColumns
  /// shape); all vectors must have equal, non-zero length and values
  /// within each attribute's cardinality. The batch is internally
  /// re-permuted with one shared Fisher-Yates pass seeded by `seed`
  /// (the per-generation sub-shuffle) before being placed after the
  /// existing rows, so every generation prefix remains a pre-shuffled
  /// uniform sample (see the header comment / docs/PAPER_MAP.md).
  ///
  /// Returns the NEW generation number. Safe to call concurrently with
  /// pinned scans and with other AppendBatch calls (serialized on
  /// gen_mu_). In-flight scans pinned at older generations are
  /// unaffected; the new rows are visible only to pins taken after this
  /// call returns.
  Result<uint64_t> AppendBatch(
      const std::vector<std::vector<Value>>& column_values, uint64_t seed);

  /// \brief Appends one row; `values` must have one entry per attribute.
  /// Pre-publication build only — never concurrent with readers.
  void AppendRow(const std::vector<Value>& values);

  void Reserve(int64_t rows);

  /// \brief Random row permutation (Fisher-Yates, seeded): the paper's
  /// one-time preprocessing that makes sequential scans uniform samples.
  /// Pre-publication build only.
  void Shuffle(uint64_t seed);

  /// \brief Total physical bytes across columns.
  int64_t TotalBytes() const;

 private:
  /// Draws a fresh token from the process-unique identity pool that
  /// id() values come from.
  static uint64_t AllocateId();

  StorePin PinLocked(uint64_t generation, int64_t rows) const
      FASTMATCH_REQUIRES(gen_mu_);
  StoreView ViewLocked(const StorePin& pin) const
      FASTMATCH_REQUIRES(gen_mu_);
  /// Row count of historical generation g (<= generation_): the live
  /// count for the current generation, else the count frozen when
  /// generation g+1 was created.
  Result<int64_t> RowsAtLocked(uint64_t generation) const
      FASTMATCH_REQUIRES(gen_mu_);

  const Schema schema_;
  const StorageOptions options_;
  const int rows_per_block_;
  const uint64_t id_;
  /// Mutated pre-publication by the build APIs (exclusive owner) and
  /// post-publication only under gen_mu_ (AppendBatch); concurrent
  /// readers go through StoreView snapshots whose chunk addresses are
  /// stable.
  std::vector<Column> columns_;  // lint: unguarded (see above)
  std::atomic<int64_t> num_rows_{0};

  /// Generation state. gen_mu_ is a LEAF: AppendBatch holds it across
  /// the value copy-in so directory snapshots (PinView) are race-free.
  mutable Mutex gen_mu_;
  uint64_t generation_ FASTMATCH_GUARDED_BY(gen_mu_) = 1;
  /// gen_rows_[g-1] = row count at the end of generation g (recorded
  /// when generation g+1 was created); size == generation_ - 1.
  std::vector<int64_t> gen_rows_ FASTMATCH_GUARDED_BY(gen_mu_);
};

}  // namespace fastmatch

#endif  // FASTMATCH_STORAGE_COLUMN_STORE_H_
