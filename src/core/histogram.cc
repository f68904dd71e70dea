#include "core/histogram.h"

namespace fastmatch {

void CountMatrix::Merge(const CountMatrix& other) {
  FASTMATCH_CHECK_EQ(num_candidates_, other.num_candidates_);
  FASTMATCH_CHECK_EQ(num_groups_, other.num_groups_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  for (size_t i = 0; i < row_totals_.size(); ++i) {
    row_totals_[i] += other.row_totals_[i];
  }
}

void CountMatrix::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(row_totals_.begin(), row_totals_.end(), 0);
}

Distribution CountMatrix::NormalizedRow(int candidate) const {
  return Normalize(Row(candidate));
}

Distribution Normalize(std::span<const int64_t> counts) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return {};
  Distribution out(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    out[i] = static_cast<double>(counts[i]) / static_cast<double>(total);
  }
  return out;
}

Distribution Normalize(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) return {};
  Distribution out(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) out[i] = weights[i] / total;
  return out;
}

Distribution UniformDistribution(int n) {
  FASTMATCH_CHECK_GT(n, 0);
  return Distribution(n, 1.0 / n);
}

}  // namespace fastmatch
