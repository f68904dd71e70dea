#include "engine/measure_biased.h"

#include <vector>

#include "util/random.h"

namespace fastmatch {

Result<std::shared_ptr<ColumnStore>> BuildMeasureBiasedSample(
    const ColumnStore& store, int y_attr, int64_t sample_rows,
    uint64_t seed) {
  const int num_attrs = store.schema().num_attributes();
  if (y_attr < 0 || y_attr >= num_attrs) {
    return Status::InvalidArgument("y_attr out of range");
  }
  if (sample_rows <= 0) {
    return Status::InvalidArgument("sample_rows must be > 0");
  }
  // One pinned view for the weights and the draws: a concurrent append
  // cannot tear either.
  const StoreView view = store.PinView();
  const int64_t n = view.pin().num_rows;
  if (n == 0) return Status::FailedPrecondition("empty store");

  // Row weights = Y magnitudes.
  std::vector<double> weights(static_cast<size_t>(n));
  double total = 0;
  for (RowId r = 0; r < n; ++r) {
    weights[static_cast<size_t>(r)] =
        static_cast<double>(view.Get(y_attr, r));
    total += weights[static_cast<size_t>(r)];
  }
  if (total <= 0) {
    return Status::FailedPrecondition(
        "measure attribute is zero everywhere; biased sample undefined");
  }

  AliasSampler row_sampler(weights);
  Rng rng(seed);

  auto sample =
      std::make_shared<ColumnStore>(store.schema(), StorageOptions{});
  sample->Reserve(sample_rows);
  std::vector<Value> row(num_attrs);
  for (int64_t i = 0; i < sample_rows; ++i) {
    const RowId r = static_cast<RowId>(row_sampler.Sample(&rng));
    for (int a = 0; a < num_attrs; ++a) {
      row[static_cast<size_t>(a)] = view.Get(a, r);
    }
    sample->AppendRow(row);
  }
  return sample;
}

}  // namespace fastmatch
