// The scan position (ScanCursor, paper Section 4.1) and AnyActive block
// selection (Section 4.2, Challenge 3/4).
//
// Given the set of *active* candidates (those whose per-round sample
// targets are unmet), a block should be read iff it contains at least one
// tuple of an active candidate. Two implementations:
//
//  * Naive (paper Algorithm 2): per block, probe each active candidate's
//    bitmap until one hits. Each probe lands on a different bitmap (a
//    different cache line), so per-block evaluation thrashes the cache
//    when many candidates are active — this is the documented cause of
//    SyncMatch's pathological slowdowns on high-|VZ| queries.
//
//  * Lookahead (paper Algorithm 3): candidate-outer, block-inner over a
//    batch of `lookahead` blocks. We realize the inner loop as a word-wise
//    OR of bitmap words into an accumulator, consuming an entire cache
//    line of each candidate's bitmap per touch.

#ifndef FASTMATCH_ENGINE_BLOCK_POLICY_H_
#define FASTMATCH_ENGINE_BLOCK_POLICY_H_

#include <cstdint>
#include <vector>

#include "index/bitmap_index.h"
#include "index/bitvector.h"

namespace fastmatch {

/// \brief One consumer's block demand over a window: which candidates
/// still need fresh samples, and how to mark their blocks. The
/// single-query engine passes one per window, the batch executor one per
/// (z_attr, x_attrs) template.
struct BlockDemand {
  /// Candidates whose fresh-sample targets are unmet (drives AnyActive).
  /// An empty list (without scan_all) demands nothing.
  std::vector<int> unmet;
  /// Read every unconsumed block regardless of `unmet`: stage-1 style
  /// sequential consumption, ScanMatch, or no bitmap index available.
  bool scan_all = false;
  /// Marking authority; required unless scan_all.
  const BitmapIndex* index = nullptr;
  /// Covered-prefix rule: `index` certifies blocks [0, covered_blocks)
  /// only; window positions past it are read unconditionally.
  int64_t covered_blocks = INT64_MAX;
  /// Mark with Algorithm 2 (SyncMatch's per-block probing) instead of
  /// Algorithm 3's word-wise OR.
  bool naive = false;
  /// Sticky per-candidate exhaustion `unmet` indexes into, where the
  /// cursor's exhaustion rule marks candidates. Required.
  std::vector<bool>* exhausted = nullptr;
};

/// \brief Reusable buffers for CollectBlockDemand, so repeated calls do
/// not allocate.
struct MarkScratch {
  std::vector<uint64_t> words;  // Algorithm 3's word accumulator
  std::vector<uint8_t> marks;   // one demand's marks
  std::vector<uint8_t> wanted;  // OR of every demand's marks
};

/// \brief Algorithm 2: per-block candidate probing.
///
/// Sets (*marks)[i] = 1 iff block (start + i) contains a tuple of at least
/// one candidate in `active`, for i in [0, count). `start + count` must not
/// exceed the index's block count. `marks` is resized to `count`.
void MarkAnyActiveNaive(const BitmapIndex& index,
                        const std::vector<int>& active, BlockId start,
                        int count, std::vector<uint8_t>* marks);

/// \brief Algorithm 3: candidate-outer batch marking via word-wise OR.
///
/// Same contract as MarkAnyActiveNaive; `scratch` (word accumulator) is
/// caller-provided so repeated calls do not allocate.
void MarkAnyActiveLookahead(const BitmapIndex& index,
                            const std::vector<int>& active, BlockId start,
                            int count, std::vector<uint64_t>* scratch,
                            std::vector<uint8_t>* marks);

/// \brief The window rule shared by both scan engines: marks the window
/// [start, start + count) for every demand and appends each block that
/// must be read — not in `consumed`, and wanted by at least one demand
/// (OR across demands) — to `reads`, in block order. Returns the number
/// of unconsumed window blocks no demand wanted (skipped). `start +
/// count` must not exceed `consumed`'s size.
int64_t CollectBlockDemand(const std::vector<BlockDemand>& demands,
                           BlockId start, int count, const BitVector& consumed,
                           MarkScratch* scratch, std::vector<BlockId>* reads);

/// \brief The scan position of one run, shared by SamplingEngine and
/// BatchExecutor: a wrap-around cursor from a seeded random start and
/// the set of consumed blocks, each read at most once. Over the
/// pre-shuffled store this is uniform sampling without replacement at
/// block granularity.
///
/// Exhaustion rule: all blocks consumed makes every candidate's counts
/// exact. A full cycle of num_blocks() positions without a read while c
/// stays unmet means every block holding c is consumed, so c's counts
/// are exact too; this lets HistSim finish candidates whose targets
/// exceed their tuple counts. The rule needs the unmet sets to hold
/// still over the cycle (counts change only on reads): a caller that
/// adds unmet candidates calls RestartIdleCycle().
class ScanCursor {
 public:
  /// A fresh scan from a seed-derived random block.
  ScanCursor(int64_t num_blocks, uint64_t seed);
  /// A scan that continues a donor's consumed set and cursor.
  ScanCursor(BitVector consumed, BlockId position);

  int64_t num_blocks() const { return consumed_.size(); }
  BlockId position() const { return position_; }  // next block visited
  const BitVector& consumed() const { return consumed_; }
  int64_t consumed_blocks() const { return consumed_blocks_; }
  bool AllConsumed() const { return consumed_blocks_ == num_blocks(); }

  /// Marks block `b` read; it is never selected again.
  void Consume(BlockId b);

  /// Stage 1's sequential step: returns the first unconsumed block at or
  /// after the cursor and moves the cursor past it. Requires
  /// !AllConsumed().
  BlockId NextUnconsumed();

  /// Visits the window of up to `window` positions at the cursor (cut at
  /// the wrap): sets `reads` to what CollectBlockDemand selects for
  /// `demands`, adds the skipped positions to `*skipped` and moves the
  /// cursor past the window. Returns true when the window closed an
  /// idle cycle, after marking every demand's unmet candidates
  /// exhausted.
  bool NextWindow(const std::vector<BlockDemand>& demands, int window,
                  std::vector<BlockId>* reads, int64_t* skipped);

  /// Moves the cursor past `b`, leaving the rest of an early-stopped
  /// window to a later visit.
  void StopAfter(BlockId b) { position_ = b + 1 == num_blocks() ? 0 : b + 1; }

  void RestartIdleCycle() { streak_ = 0; }

 private:
  BitVector consumed_;
  int64_t consumed_blocks_ = 0;
  BlockId position_ = 0;
  int64_t streak_ = 0;  // zero-read positions in a row
  MarkScratch scratch_;
};

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_BLOCK_POLICY_H_
