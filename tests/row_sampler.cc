#include "row_sampler.h"

#include <numeric>

namespace fastmatch {

Result<std::unique_ptr<RowSampler>> RowSampler::Create(
    std::shared_ptr<const ColumnStore> store, int z_attr,
    std::vector<int> x_attrs, uint64_t seed) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  FASTMATCH_ASSIGN_OR_RETURN(
      CountDomain domain, ComputeCountDomain(store->schema(), z_attr, x_attrs));
  return std::unique_ptr<RowSampler>(new RowSampler(
      std::move(store), z_attr, std::move(x_attrs), std::move(domain), seed));
}

RowSampler::RowSampler(std::shared_ptr<const ColumnStore> store, int z_attr,
                       std::vector<int> x_attrs, CountDomain domain,
                       uint64_t seed)
    : store_(std::move(store)),
      z_attr_(z_attr),
      x_attrs_(std::move(x_attrs)),
      x_cards_(std::move(domain.x_cards)),
      num_candidates_(domain.num_candidates),
      num_groups_(domain.num_groups) {
  perm_.resize(store_->num_rows());
  std::iota(perm_.begin(), perm_.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&perm_);
}

int RowSampler::GroupOf(RowId row) const {
  int g = 0;
  for (size_t i = 0; i < x_attrs_.size(); ++i) {
    g = g * x_cards_[i] +
        static_cast<int>(store_->column(x_attrs_[i]).Get(row));
  }
  return g;
}

int64_t RowSampler::SampleRows(int64_t m, CountMatrix* out) {
  const int64_t n = static_cast<int64_t>(perm_.size());
  int64_t drawn = 0;
  const Column& z_col = store_->column(z_attr_);
  while (drawn < m && cursor_ < n) {
    const RowId row = perm_[cursor_++];
    out->Add(static_cast<int>(z_col.Get(row)), GroupOf(row));
    ++drawn;
  }
  return drawn;
}

void RowSampler::SampleUntilTargets(const std::vector<int64_t>& targets,
                                    CountMatrix* out,
                                    std::vector<bool>* exhausted) {
  FASTMATCH_CHECK_EQ(static_cast<int>(targets.size()), num_candidates_);
  FASTMATCH_CHECK_EQ(static_cast<int>(exhausted->size()), num_candidates_);

  // Fresh counts of this call only: targets demand newly drawn samples.
  // Seeding from out->RowTotal would conflate earlier rounds' samples
  // with this call's when the caller reuses one matrix across rounds.
  std::vector<int64_t> fresh(num_candidates_, 0);

  int64_t unmet = 0;
  for (int i = 0; i < num_candidates_; ++i) {
    if (targets[i] >= 0 && fresh[i] < targets[i]) ++unmet;
  }

  const int64_t n = static_cast<int64_t>(perm_.size());
  const Column& z_col = store_->column(z_attr_);
  while (cursor_ < n && unmet > 0) {
    const RowId row = perm_[cursor_++];
    const int z = static_cast<int>(z_col.Get(row));
    out->Add(z, GroupOf(row));
    ++fresh[z];
    if (targets[z] >= 0 && fresh[z] == targets[z]) --unmet;
  }

  if (cursor_ >= n) {
    // The whole relation has been consumed: every candidate's cumulative
    // counts are exact.
    std::fill(exhausted->begin(), exhausted->end(), true);
  }
}

}  // namespace fastmatch
