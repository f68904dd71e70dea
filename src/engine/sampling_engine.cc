#include "engine/sampling_engine.h"

#include "util/logging.h"

namespace fastmatch {

Result<std::unique_ptr<SamplingEngine>> SamplingEngine::Create(
    std::shared_ptr<const ColumnStore> store,
    std::shared_ptr<const BitmapIndex> z_index, int z_attr,
    std::vector<int> x_attrs, EngineOptions options) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  // Pin once up front: the whole run (geometry checks, cursor seeding,
  // every block read) resolves against this snapshot, so a concurrent
  // append cannot shift the grid mid-run.
  StoreView view = store->PinView();
  if (view.pin().num_rows == 0) {
    return Status::FailedPrecondition("empty store");
  }
  if (options.policy != BlockSelection::kScanAll) {
    if (z_index == nullptr) {
      return Status::InvalidArgument(
          "AnyActive policies require a bitmap index on the candidate "
          "attribute");
    }
    if (z_index->attribute() != z_attr) {
      return Status::InvalidArgument(
          "bitmap index was built for a different attribute");
    }
    if (z_index->store_id() != view.pin().store_id) {
      return Status::InvalidArgument(
          "bitmap index was built on a different store");
    }
    // Single-query runs demand an exactly matching index (the batch
    // executor's covered-prefix rule is for shared scans that outlive
    // index builds; here a mismatch is a caller bug).
    if (z_index->num_blocks() != view.pin().num_blocks ||
        z_index->num_rows() != view.pin().num_rows) {
      return Status::InvalidArgument(
          "bitmap index block count does not match store");
    }
  }
  if (options.lookahead < 1) {
    return Status::InvalidArgument("lookahead must be >= 1");
  }
  FASTMATCH_ASSIGN_OR_RETURN(
      auto io,
      IoManager::Create(store, z_attr, std::move(x_attrs), std::move(view)));
  return std::unique_ptr<SamplingEngine>(new SamplingEngine(
      std::move(store), std::move(z_index), std::move(io), options));
}

SamplingEngine::SamplingEngine(std::shared_ptr<const ColumnStore> store,
                               std::shared_ptr<const BitmapIndex> z_index,
                               std::unique_ptr<IoManager> io,
                               EngineOptions options)
    : store_(std::move(store)),
      index_(std::move(z_index)),
      io_(std::move(io)),
      options_(options),
      cursor_(io_->pin().num_blocks, options_.seed) {
  exhausted_.assign(io_->num_candidates(), false);
}

int64_t SamplingEngine::ConsumeBlock(BlockId b, CountMatrix* out) {
  const int64_t rows = io_->ReadBlock(b, out);
  cursor_.Consume(b);
  ++stats_.blocks_read;
  stats_.rows_read += rows;
  return rows;
}

int64_t SamplingEngine::SampleRows(int64_t m, CountMatrix* out) {
  // Stage-1 I/O: plain sequential consumption; the paper's block choice
  // for the pruning stage is "just scan each block sequentially".
  int64_t drawn = 0;
  while (drawn < m && !AllConsumed()) {
    drawn += ConsumeBlock(cursor_.NextUnconsumed(), out);
  }
  return drawn;
}

void SamplingEngine::SampleUntilTargets(const std::vector<int64_t>& targets,
                                        CountMatrix* out,
                                        std::vector<bool>* exhausted) {
  const int vz = io_->num_candidates();
  FASTMATCH_CHECK_EQ(static_cast<int>(targets.size()), vz);
  FASTMATCH_CHECK_EQ(static_cast<int>(exhausted->size()), vz);

  // Targets demand samples drawn during this call: a candidate's fresh
  // count is its row total minus the total at entry (the machine's
  // pooled-minus-held rule), whatever `out` already holds from earlier
  // rounds.
  std::vector<int64_t> entry(static_cast<size_t>(vz));
  for (int i = 0; i < vz; ++i) entry[static_cast<size_t>(i)] = out->RowTotal(i);
  const auto fresh = [&](int i) {
    return out->RowTotal(i) - entry[static_cast<size_t>(i)];
  };
  std::vector<BlockDemand> demand(1);
  BlockDemand& d = demand[0];
  d.scan_all = options_.policy == BlockSelection::kScanAll;
  d.index = index_.get();
  d.naive = options_.policy == BlockSelection::kAnyActiveSync;
  d.exhausted = &exhausted_;
  const auto refresh_unmet = [&] {
    d.unmet.clear();
    for (int i = 0; i < vz; ++i) {
      if (targets[i] >= 0 && !exhausted_[i] && fresh(i) < targets[i]) {
        d.unmet.push_back(i);
      }
    }
  };
  const bool lookahead =
      options_.policy == BlockSelection::kAnyActiveLookahead;
  const int window = d.naive ? 1 : options_.lookahead;

  refresh_unmet();
  // This call's targets are new unmet sets: an idle cycle counts from
  // here.
  cursor_.RestartIdleCycle();
  std::vector<BlockId> reads;
  int since_check = 0;
  while (!d.unmet.empty() && !AllConsumed()) {
    if (cursor_.NextWindow(demand, window, &reads, &stats_.blocks_skipped)) {
      break;  // the unmet candidates are exhausted
    }
    if (reads.empty()) continue;
    if (lookahead) ++stats_.marker_batches;
    // Read in block order; every 16 reads refresh the unmet list and stop
    // early, cursor on the next block, once every target is met.
    for (const BlockId b : reads) {
      ConsumeBlock(b, out);
      if (++since_check < 16) continue;
      since_check = 0;
      refresh_unmet();
      if (d.unmet.empty()) {
        cursor_.StopAfter(b);
        break;
      }
    }
    // FastMatch refreshes the unmet list before every window; the
    // baselines keep the 16-read cadence.
    if (lookahead && !d.unmet.empty()) refresh_unmet();
  }

  // A consumed store has enumerated every candidate.
  if (AllConsumed()) exhausted_.assign(exhausted_.size(), true);
  for (int i = 0; i < vz; ++i) {
    if (exhausted_[i]) (*exhausted)[i] = true;
    // Postcondition: every requested target is met or the candidate is
    // fully enumerated.
    FASTMATCH_CHECK(targets[i] < 0 || exhausted_[i] || fresh(i) >= targets[i])
        << "candidate " << i << " target unmet without exhaustion";
  }
}

}  // namespace fastmatch
