// Histogram count containers.
//
// A candidate's estimated visualization r_i is a vector of |VX| counts; a
// run of HistSim maintains one such vector per candidate. CountMatrix packs
// them row-major (|VZ| x |VX|) with per-candidate sample totals, which is
// the layout both the statistics and the scan kernels want.

#ifndef FASTMATCH_CORE_HISTOGRAM_H_
#define FASTMATCH_CORE_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"

namespace fastmatch {

/// A normalized histogram (discrete distribution), entries sum to 1.
using Distribution = std::vector<double>;

/// \brief Per-candidate histogram counts, row-major (|VZ| rows of |VX|).
class CountMatrix {
 public:
  CountMatrix() = default;
  CountMatrix(int num_candidates, int num_groups)
      : num_candidates_(num_candidates),
        num_groups_(num_groups),
        counts_(static_cast<size_t>(num_candidates) * num_groups, 0),
        row_totals_(num_candidates, 0) {}

  int num_candidates() const { return num_candidates_; }
  int num_groups() const { return num_groups_; }

  /// \brief Records one sampled tuple (candidate z, group x).
  void Add(int candidate, int group) {
    counts_[static_cast<size_t>(candidate) * num_groups_ + group] += 1;
    row_totals_[candidate] += 1;
  }

  /// \brief Counts row for one candidate.
  std::span<const int64_t> Row(int candidate) const {
    return {counts_.data() + static_cast<size_t>(candidate) * num_groups_,
            static_cast<size_t>(num_groups_)};
  }

  /// \brief Samples accumulated for a candidate (sum of its row).
  int64_t RowTotal(int candidate) const { return row_totals_[candidate]; }

  /// \brief Adds `other` cell-wise (accumulating a round into the total).
  void Merge(const CountMatrix& other);

  /// \brief Zeroes all cells and totals, keeping the shape.
  void Reset();

  /// \brief Normalized distribution of a candidate's row. Rows with zero
  /// total yield the empty vector (caller decides the convention).
  Distribution NormalizedRow(int candidate) const;

  /// \brief Direct cell access.
  int64_t At(int candidate, int group) const {
    return counts_[static_cast<size_t>(candidate) * num_groups_ + group];
  }

  /// \brief Mutable raw access for scan kernels (candidate-major).
  int64_t* MutableData() { return counts_.data(); }
  int64_t* MutableRowTotals() { return row_totals_.data(); }

 private:
  int num_candidates_ = 0;
  int num_groups_ = 0;
  std::vector<int64_t> counts_;
  std::vector<int64_t> row_totals_;
};

/// \brief Normalizes an integer count vector; empty result when total is 0.
Distribution Normalize(std::span<const int64_t> counts);

/// \brief Normalizes a non-negative weight vector; empty when sum is 0.
Distribution Normalize(const std::vector<double>& weights);

/// \brief Uniform distribution over n groups.
Distribution UniformDistribution(int n);

}  // namespace fastmatch

#endif  // FASTMATCH_CORE_HISTOGRAM_H_
