// Hypergeometric distribution, in log space.
//
// Stage 1 of HistSim tests each candidate for under-representation: after
// drawing m tuples uniformly without replacement from N, the number of
// tuples n_i seen for a candidate with N_i total tuples follows
// HypGeo(N, N_i, m). The P-value of the test with null "N_i >= sigma*N" is
// the lower-tail CDF at the observed n_i with K = ceil(sigma*N) (paper
// Section 3.3).
//
// The paper uses Boost's implementation; we provide our own, numerically
// stable via an incremental log-ratio recurrence, plus a precomputed table
// so that P-values for all candidates share one O(max n_i) computation
// (the paper's Section 3.5 complexity note).

#ifndef FASTMATCH_STATS_HYPERGEOMETRIC_H_
#define FASTMATCH_STATS_HYPERGEOMETRIC_H_

#include <cstdint>
#include <vector>

namespace fastmatch {

/// \brief log P(X = j) for X ~ HypGeo(N, K, m); -inf outside the support.
///
/// N = population size, K = number of "successes" in the population,
/// m = number of draws without replacement.
double LogHypergeomPmf(int64_t j, int64_t N, int64_t K, int64_t m);

/// \brief Lower-tail log P(X <= j) for X ~ HypGeo(N, K, m).
double LogHypergeomCdf(int64_t j, int64_t N, int64_t K, int64_t m);

/// \brief Precomputed lower-tail CDF table for fixed (N, K, m).
///
/// Building the table up to j_max costs O(j_max); each lookup is O(1).
/// HistSim stage 1 builds one table with K = ceil(sigma*N) and evaluates
/// every candidate against it.
class HypergeomCdfTable {
 public:
  /// \param N population size (total rows)
  /// \param K hypothesized success count (ceil(sigma*N))
  /// \param m draws (stage-1 sample size)
  /// \param j_max largest observation that will be queried
  HypergeomCdfTable(int64_t N, int64_t K, int64_t m, int64_t j_max);

  /// \brief log P(X <= j); j may exceed j_max (then the tail is complete
  /// and the result is 0 == log 1 when j >= min(K, m)).
  double LogCdf(int64_t j) const;

  int64_t population() const { return N_; }
  int64_t successes() const { return K_; }
  int64_t draws() const { return m_; }

 private:
  int64_t N_, K_, m_;
  int64_t support_lo_;  // max(0, m - (N - K))
  int64_t support_hi_;  // min(K, m)
  std::vector<double> log_cdf_;  // log_cdf_[i] = log P(X <= support_lo_ + i)
};

}  // namespace fastmatch

#endif  // FASTMATCH_STATS_HYPERGEOMETRIC_H_
