#include "service/stage1_revalidator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "engine/io_manager.h"
#include "stats/hypergeometric.h"
#include "util/random.h"

namespace fastmatch {

namespace {

/// Minimum fresh rows to draw (rounded up to whole blocks). The test
/// power grows with the sample; 4096 rows resolves marginal shifts of a
/// few percent at kDriftDelta.
constexpr int64_t kSampleRows = 4096;
/// Family-wise false-drift rate: a STABLE prior is wrongly evicted with
/// probability <= kDriftDelta. Split across candidates (Bonferroni).
constexpr double kDriftDelta = 1e-3;
/// Seed for the block draw (replayable, like every other sampler).
constexpr uint64_t kDrawSeed = 0x5eedf00d;

}  // namespace

Result<RevalidationReport> RevalidateStage1(
    std::shared_ptr<const ColumnStore> store, int z_attr,
    const std::vector<int>& x_attrs, const Stage1Snapshot& prior,
    uint64_t generation) {
  if (store == nullptr) {
    return Status::InvalidArgument("RevalidateStage1: store is null");
  }
  if (prior.rows_drawn <= 0) {
    return Status::InvalidArgument(
        "RevalidateStage1: prior has no rows (nothing to test against)");
  }
  FASTMATCH_ASSIGN_OR_RETURN(StoreView view, store->PinViewAt(generation));
  FASTMATCH_ASSIGN_OR_RETURN(
      auto io, IoManager::Create(store, z_attr,
                                 std::vector<int>(x_attrs), std::move(view)));
  const StorePin& pin = io->pin();
  if (io->num_candidates() != prior.counts.num_candidates()) {
    return Status::InvalidArgument(
        "RevalidateStage1: prior candidate count does not match the store's "
        "z-attribute cardinality");
  }
  const int64_t total_rows = pin.num_rows;
  if (total_rows <= 0) {
    return Status::FailedPrecondition(
        "RevalidateStage1: pinned generation is empty");
  }

  // Draw distinct uniform blocks until the row budget is met. Blocks of
  // a pre-shuffled store are themselves uniform row samples (§4.1), so
  // a uniform block subset is a uniform without-replacement row sample.
  std::vector<BlockId> blocks(static_cast<size_t>(pin.num_blocks));
  std::iota(blocks.begin(), blocks.end(), BlockId{0});
  Rng rng(kDrawSeed);
  rng.Shuffle(&blocks);

  CountMatrix fresh(io->num_candidates(), io->num_groups());
  RevalidationReport report;
  for (BlockId b : blocks) {
    if (report.fresh_rows >= kSampleRows) break;
    report.fresh_rows += io->ReadBlock(b, &fresh);
    ++report.blocks_read;
  }

  // Per-candidate two-sided hypergeometric test of the prior's marginal
  // against the fresh draw. N = pinned rows, K_c = the prior's implied
  // candidate total at this generation, s = fresh sample size.
  const int num_candidates = fresh.num_candidates();
  const int64_t s = report.fresh_rows;
  const double bonferroni =
      kDriftDelta / static_cast<double>(std::max(num_candidates, 1));
  for (int c = 0; c < num_candidates; ++c) {
    const double p_c = static_cast<double>(prior.counts.RowTotal(c)) /
                       static_cast<double>(prior.rows_drawn);
    const int64_t k = std::clamp<int64_t>(
        std::llround(p_c * static_cast<double>(total_rows)), 0, total_rows);
    const int64_t f = fresh.RowTotal(c);
    const double lower = HypergeomCdf(f, total_rows, k, s);
    const double upper =
        f > 0 ? 1.0 - HypergeomCdf(f - 1, total_rows, k, s) : 1.0;
    const double p_value = std::min(1.0, 2.0 * std::min(lower, upper));
    if (p_value < report.min_p_value) {
      report.min_p_value = p_value;
      report.worst_candidate = c;
    }
    if (p_value < bonferroni) {
      report.verdict = RevalidationVerdict::kDrifting;
    }
  }
  return report;
}

}  // namespace fastmatch
