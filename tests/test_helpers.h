// Shared fixtures for the fastmatch test suite.

#ifndef FASTMATCH_TESTS_TEST_HELPERS_H_
#define FASTMATCH_TESTS_TEST_HELPERS_H_

#include <memory>
#include <vector>

#include "core/histogram.h"
#include "core/verify.h"
#include "engine/executor.h"
#include "index/bitmap_index.h"
#include "storage/column_store.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/result.h"

namespace fastmatch {
namespace testing_util {

/// \brief Builds a two-column store ("Z", "X") where candidate i has
/// exactly per_candidate_rows[i] rows and its X values follow dists[i]
/// *deterministically* (largest-remainder rounding), then shuffles rows.
/// Exact histograms and distances are therefore known in closed form.
inline std::shared_ptr<ColumnStore> MakeExactStore(
    const std::vector<int64_t>& per_candidate_rows,
    const std::vector<Distribution>& dists, uint64_t seed,
    int rows_per_block = 0) {
  FASTMATCH_CHECK_EQ(per_candidate_rows.size(), dists.size());
  const int vz = static_cast<int>(dists.size());
  const int vx = static_cast<int>(dists[0].size());

  std::vector<Value> z_col, x_col;
  for (int i = 0; i < vz; ++i) {
    const int64_t n = per_candidate_rows[static_cast<size_t>(i)];
    // Largest-remainder apportionment of n rows over vx bins.
    std::vector<int64_t> bins(static_cast<size_t>(vx));
    std::vector<std::pair<double, int>> remainders;
    int64_t assigned = 0;
    for (int j = 0; j < vx; ++j) {
      const double want =
          dists[static_cast<size_t>(i)][static_cast<size_t>(j)] *
          static_cast<double>(n);
      bins[static_cast<size_t>(j)] = static_cast<int64_t>(want);
      assigned += bins[static_cast<size_t>(j)];
      remainders.push_back(
          {want - static_cast<double>(bins[static_cast<size_t>(j)]), j});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](auto& a, auto& b) { return a.first > b.first; });
    for (int64_t r = 0; r < n - assigned; ++r) {
      bins[static_cast<size_t>(remainders[static_cast<size_t>(r)].second)]++;
    }
    for (int j = 0; j < vx; ++j) {
      for (int64_t c = 0; c < bins[static_cast<size_t>(j)]; ++c) {
        z_col.push_back(static_cast<Value>(i));
        x_col.push_back(static_cast<Value>(j));
      }
    }
  }

  StorageOptions options;
  options.rows_per_block_override = rows_per_block;
  auto store = ColumnStore::FromColumns(
      Schema({{"Z", static_cast<uint32_t>(vz)},
              {"X", static_cast<uint32_t>(vx)}}),
      {std::move(z_col), std::move(x_col)}, options);
  FASTMATCH_CHECK(store.ok()) << store.status().ToString();
  (*store)->Shuffle(seed);
  return std::move(store).value();
}

/// \brief Distributions with a planted similarity structure: candidate i
/// is at l1 distance exactly 2*offsets[i] from the uniform base shape.
/// Mass `offset` is moved onto bin 1, taken evenly from all other bins
/// (valid for offset <= (vx-1)/vx).
inline std::vector<Distribution> PlantedDistributions(
    int vz, int vx, const std::vector<double>& offsets) {
  FASTMATCH_CHECK_EQ(static_cast<size_t>(vz), offsets.size());
  FASTMATCH_CHECK_GE(vx, 2);
  std::vector<Distribution> dists;
  Distribution base(static_cast<size_t>(vx), 1.0 / vx);
  for (int i = 0; i < vz; ++i) {
    Distribution d = base;
    const double off = offsets[static_cast<size_t>(i)];
    const double per_bin = off / static_cast<double>(vx - 1);
    FASTMATCH_CHECK_LE(per_bin, base[0]);
    for (int j = 0; j < vx; ++j) d[static_cast<size_t>(j)] -= per_bin;
    d[1] += off + per_bin;
    dists.push_back(std::move(d));
  }
  return dists;
}

}  // namespace testing_util

/// Shape of a MakeQueryBatch batch.
struct TrafficOptions {
  int num_queries = 8;
  /// Base algorithm parameters applied to every query.
  HistSimParams params;
  /// Seeds the target draws, and stamps distinct per-query params.seed
  /// values. params.seed only drives scan-start randomness when a query
  /// runs alone through RunQuery; a batch uses one shared cursor seeded
  /// by BatchOptions::seed.
  uint64_t seed = 1;
};

/// \brief Builds `options.num_queries` engine-ready queries over `store`,
/// all on (z_attr, x_attrs) and sharing `index` (null: the batch
/// executor then scans sequentially), each targeting the exact
/// histogram of a randomly drawn non-empty candidate ("find candidates
/// similar to this one"). The targets come from one exact-count scan.
inline Result<std::vector<BoundQuery>> MakeQueryBatch(
    std::shared_ptr<const ColumnStore> store,
    std::shared_ptr<const BitmapIndex> index, int z_attr,
    std::vector<int> x_attrs, const TrafficOptions& options) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (options.num_queries < 1) {
    return Status::InvalidArgument("num_queries must be >= 1");
  }
  FASTMATCH_RETURN_IF_ERROR(options.params.Validate());

  FASTMATCH_ASSIGN_OR_RETURN(CountMatrix exact,
                             ComputeExactCounts(*store, z_attr, x_attrs));
  const int vz = exact.num_candidates();
  const int vx = exact.num_groups();

  Rng rng(options.seed);
  std::vector<BoundQuery> batch;
  batch.reserve(static_cast<size_t>(options.num_queries));
  for (int q = 0; q < options.num_queries; ++q) {
    BoundQuery query;
    query.store = store;
    query.z_index = index;
    query.z_attr = z_attr;
    query.x_attrs = x_attrs;
    query.params = options.params;
    query.params.seed = options.seed + static_cast<uint64_t>(q) + 1;
    Distribution target;
    for (int attempt = 0; attempt < vz && target.empty(); ++attempt) {
      const int c = static_cast<int>(rng.Uniform(static_cast<uint64_t>(vz)));
      target = exact.NormalizedRow(c);
    }
    if (target.empty()) target = UniformDistribution(vx);
    query.target = std::move(target);
    batch.push_back(std::move(query));
  }
  return batch;
}

}  // namespace fastmatch

#endif  // FASTMATCH_TESTS_TEST_HELPERS_H_
