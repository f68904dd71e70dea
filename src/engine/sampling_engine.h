// The FastMatch sampling engine (paper Section 4).
//
// Implements core/sampler.h over the block grid of a ColumnStore. The
// scan position — seeded cursor, consumed-block set and exhaustion rule —
// is a ScanCursor (engine/block_policy.h), the same one the batch
// executor scans with. Stage-1 I/O consumes blocks sequentially from the
// cursor; stage-2/3 I/O phases run one synchronous window loop: each
// step selects the reads of the window at the cursor and reads them in
// block order. The policy picks the window and the marking:
//   kScanAll            ScanMatch: `lookahead`-block windows, every
//                       unconsumed block read
//   kAnyActiveSync      SyncMatch: 1-block windows, naive AnyActive
//                       probing (Alg. 2)
//   kAnyActiveLookahead FastMatch: `lookahead`-block windows, word-wise
//                       AnyActive marking (Alg. 3)
// Unlike the paper's Alg. 3, marking runs between windows on the reading
// thread, not on a separate lookahead thread, so a run is deterministic
// per seed (docs/PAPER_MAP.md records the deviation).

#ifndef FASTMATCH_ENGINE_SAMPLING_ENGINE_H_
#define FASTMATCH_ENGINE_SAMPLING_ENGINE_H_

#include <memory>
#include <vector>

#include "core/sampler.h"
#include "engine/block_policy.h"
#include "engine/io_manager.h"
#include "index/bitmap_index.h"
#include "storage/column_store.h"
#include "util/result.h"

namespace fastmatch {

/// Block selection policy for stage-2/3 I/O phases.
enum class BlockSelection {
  kScanAll,             // ScanMatch
  kAnyActiveSync,       // SyncMatch
  kAnyActiveLookahead,  // FastMatch
};

/// Engine knobs.
struct EngineOptions {
  BlockSelection policy = BlockSelection::kAnyActiveLookahead;
  /// Blocks per window for kScanAll and kAnyActiveLookahead (paper
  /// default 1024); kAnyActiveSync always uses 1-block windows.
  int lookahead = 1024;
  /// Seed; chooses the random scan start position.
  uint64_t seed = 42;
};

/// I/O counters for one engine lifetime (one query run).
struct EngineStats {
  int64_t blocks_read = 0;
  int64_t blocks_skipped = 0;  // visited and skipped by the policy
  int64_t rows_read = 0;
  /// kAnyActiveLookahead windows that issued at least one read (0 for
  /// the other policies).
  int64_t marker_batches = 0;
};

class SamplingEngine : public Sampler {
 public:
  /// \brief Creates an engine for one query run.
  ///
  /// `z_index` is required for the AnyActive policies and ignored by
  /// kScanAll. The engine starts its scan cursor at a seed-derived random
  /// block, per the paper's experimental protocol.
  static Result<std::unique_ptr<SamplingEngine>> Create(
      std::shared_ptr<const ColumnStore> store,
      std::shared_ptr<const BitmapIndex> z_index, int z_attr,
      std::vector<int> x_attrs, EngineOptions options);

  // ------------------------------------------------------ Sampler interface
  int num_candidates() const override { return io_->num_candidates(); }
  int num_groups() const override { return io_->num_groups(); }
  int64_t total_rows() const override { return io_->pin().num_rows; }
  int64_t SampleRows(int64_t m, CountMatrix* out) override;
  void SampleUntilTargets(const std::vector<int64_t>& targets,
                          CountMatrix* out,
                          std::vector<bool>* exhausted) override;
  bool AllConsumed() const override { return cursor_.AllConsumed(); }
  int64_t rows_consumed() const override { return stats_.rows_read; }

  const EngineStats& stats() const { return stats_; }

 private:
  SamplingEngine(std::shared_ptr<const ColumnStore> store,
                 std::shared_ptr<const BitmapIndex> z_index,
                 std::unique_ptr<IoManager> io, EngineOptions options);

  /// Reads block b into `out`, maintaining consumption state and stats.
  int64_t ConsumeBlock(BlockId b, CountMatrix* out);

  std::shared_ptr<const ColumnStore> store_;
  std::shared_ptr<const BitmapIndex> index_;
  std::unique_ptr<IoManager> io_;
  EngineOptions options_;

  ScanCursor cursor_;
  std::vector<bool> exhausted_;  // sticky: candidate fully enumerated
  EngineStats stats_;
};

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_SAMPLING_ENGINE_H_
