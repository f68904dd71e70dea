// Reference Sampler: uniform row-level sampling without replacement.
//
// Maintains a private random permutation of all row ids and walks it.
// This is the statistically cleanest sampler (exactly the model of the
// HistSim proofs) but does nothing to exploit locality — it exists to
// validate the statistics layer and as a baseline; the production path is
// engine/sampling_engine.h.
//
// Supports composite grouping attributes (Appendix A.1.3): when several
// x-attributes are given, the group id is their mixed-radix code and
// |VX| is the product of cardinalities.

#ifndef FASTMATCH_TESTS_ROW_SAMPLER_H_
#define FASTMATCH_TESTS_ROW_SAMPLER_H_

#include <memory>
#include <vector>

#include "core/sampler.h"
#include "core/verify.h"
#include "storage/column_store.h"
#include "util/random.h"
#include "util/result.h"

namespace fastmatch {

class RowSampler : public Sampler {
 public:
  /// \brief Creates a sampler over `store` grouping by `x_attrs` with
  /// candidates from `z_attr`.
  static Result<std::unique_ptr<RowSampler>> Create(
      std::shared_ptr<const ColumnStore> store, int z_attr,
      std::vector<int> x_attrs, uint64_t seed);

  int num_candidates() const override { return num_candidates_; }
  int num_groups() const override { return num_groups_; }
  int64_t total_rows() const override { return store_->num_rows(); }

  int64_t SampleRows(int64_t m, CountMatrix* out) override;
  void SampleUntilTargets(const std::vector<int64_t>& targets,
                          CountMatrix* out,
                          std::vector<bool>* exhausted) override;
  bool AllConsumed() const override {
    return cursor_ >= static_cast<int64_t>(perm_.size());
  }
  int64_t rows_consumed() const override { return cursor_; }

 private:
  RowSampler(std::shared_ptr<const ColumnStore> store, int z_attr,
             std::vector<int> x_attrs, CountDomain domain, uint64_t seed);

  /// Mixed-radix group id of a row.
  int GroupOf(RowId row) const;

  std::shared_ptr<const ColumnStore> store_;
  int z_attr_;
  std::vector<int> x_attrs_;
  std::vector<int> x_cards_;
  int num_candidates_ = 0;
  int num_groups_ = 0;

  std::vector<RowId> perm_;  // private uniform permutation of row ids
  int64_t cursor_ = 0;       // rows consumed so far
};

}  // namespace fastmatch

#endif  // FASTMATCH_TESTS_ROW_SAMPLER_H_
