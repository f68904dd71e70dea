// AnyActive block selection policies (paper Section 4.2, Challenge 3/4).
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

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_BLOCK_POLICY_H_
