// The I/O manager (paper Section 4.1): synchronous block reads.
//
// Given a block id, scans the block's rows of the candidate (Z) and
// grouping (X) columns and accumulates (candidate, group) counts
// through the scan kernels in engine/scan_kernel.h (AVX2 when the
// build and host support it, the scalar reference otherwise — the two
// are bit-for-bit interchangeable). Callers derive per-candidate fresh
// counts from the matrix row totals (cumulative minus a snapshot).

#ifndef FASTMATCH_ENGINE_IO_MANAGER_H_
#define FASTMATCH_ENGINE_IO_MANAGER_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/histogram.h"
#include "core/verify.h"
#include "storage/column_store.h"
#include "util/result.h"

namespace fastmatch {

class IoManager {
 public:
  /// \brief Creates a reader for (z_attr, x_attrs) of `store`. Multiple
  /// x attributes form a mixed-radix composite group (Appendix A.1.3).
  ///
  /// All reads go through a pinned StoreView: pass `view` to scan a
  /// specific generation (the caller got it from PinViewAt), or omit it
  /// to pin the store's current generation. Reads are immune to
  /// concurrent appends either way.
  static Result<std::unique_ptr<IoManager>> Create(
      std::shared_ptr<const ColumnStore> store, int z_attr,
      std::vector<int> x_attrs, std::optional<StoreView> view = std::nullopt);

  /// \brief Scans block `b`, adding counts into `out`. Returns the
  /// number of rows scanned.
  ///
  /// Thread safety: ReadBlock/ReadBlocks are const and touch only the
  /// immutable store, so concurrent calls are safe as long as each call
  /// targets a distinct `out` matrix. The batch executor exploits this
  /// by fanning a chunk's blocks across workers, one CountMatrix shard
  /// per worker, and merging the shards after the join.
  int64_t ReadBlock(BlockId b, CountMatrix* out) const;

  /// \brief Shard read: scans blocks[begin, end) into `shard`. Returns
  /// the number of rows scanned.
  int64_t ReadBlocks(const std::vector<BlockId>& blocks, size_t begin,
                     size_t end, CountMatrix* shard) const;

  int num_candidates() const { return num_candidates_; }
  int num_groups() const { return num_groups_; }
  const ColumnStore& store() const { return *store_; }

  /// \brief The pinned geometry every read resolves against.
  const StorePin& pin() const { return view_.pin(); }

 private:
  /// `domain` comes from ComputeCountDomain in Create(), the one place
  /// the binding is bound-checked; the constructor re-asserts it.
  IoManager(std::shared_ptr<const ColumnStore> store, int z_attr,
            std::vector<int> x_attrs, CountDomain domain, StoreView view);

  template <typename ZT, typename XT>
  int64_t ReadBlockTyped(BlockId b, CountMatrix* out) const;
  int64_t ReadBlockGeneric(BlockId b, CountMatrix* out) const;

  /// Keeps the chunk memory the view points into alive.
  std::shared_ptr<const ColumnStore> store_;
  /// Generation-pinned read handle: chunk pointers + frozen geometry.
  StoreView view_;
  int z_attr_;
  std::vector<int> x_attrs_;
  std::vector<int> x_cards_;
  int num_candidates_ = 0;
  int num_groups_ = 0;
};

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_IO_MANAGER_H_
