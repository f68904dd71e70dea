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

/// \brief One window of block demand from a sampling phase: which
/// candidates still need fresh samples, and whether marking may be
/// bypassed entirely. This is the unit both the single-query engine's
/// lookahead marker and the batch executor's shared-scan chunks consume.
struct BlockDemand {
  /// Candidates whose fresh-sample targets are unmet (drives AnyActive).
  std::vector<int> unmet;
  /// Read every unconsumed block regardless of `unmet`: stage-1 style
  /// sequential consumption, or no bitmap index available.
  bool scan_all = false;
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

/// \brief The reusable mark/consume step: applies AnyActive lookahead
/// marking for `demand` over the window [start, start + count) and
/// appends every block that must be read — not in `consumed`, and marked
/// (or every unconsumed block when demand.scan_all or `index` is null) —
/// to `reads`, in block order. Returns the number of unconsumed window
/// blocks the policy skipped. `scratch`/`marks` are caller-provided so
/// repeated calls do not allocate.
int64_t CollectBlockDemand(const BitmapIndex* index, const BlockDemand& demand,
                           BlockId start, int count, const BitVector& consumed,
                           std::vector<uint64_t>* scratch,
                           std::vector<uint8_t>* marks,
                           std::vector<BlockId>* reads);

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_BLOCK_POLICY_H_
