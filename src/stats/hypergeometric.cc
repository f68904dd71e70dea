#include "stats/hypergeometric.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math.h"

namespace fastmatch {

namespace {

int64_t SupportLo(int64_t N, int64_t K, int64_t m) {
  return std::max<int64_t>(0, m - (N - K));
}

int64_t SupportHi(int64_t K, int64_t m) { return std::min(K, m); }

void CheckParams(int64_t N, int64_t K, int64_t m) {
  FASTMATCH_CHECK_GE(N, 0);
  FASTMATCH_CHECK_GE(K, 0);
  FASTMATCH_CHECK_LE(K, N);
  FASTMATCH_CHECK_GE(m, 0);
  FASTMATCH_CHECK_LE(m, N);
}

}  // namespace

double LogHypergeomPmf(int64_t j, int64_t N, int64_t K, int64_t m) {
  CheckParams(N, K, m);
  if (j < SupportLo(N, K, m) || j > SupportHi(K, m)) return NegInf();
  return LogChoose(K, j) + LogChoose(N - K, m - j) - LogChoose(N, m);
}

double LogHypergeomCdf(int64_t j, int64_t N, int64_t K, int64_t m) {
  CheckParams(N, K, m);
  const int64_t lo = SupportLo(N, K, m);
  const int64_t hi = SupportHi(K, m);
  if (j < lo) return NegInf();
  if (j >= hi) return 0.0;
  // Incremental pmf recurrence in log space:
  //   f(x+1)/f(x) = (K-x)(m-x) / ((x+1)(N-K-m+x+1))
  double log_pmf = LogHypergeomPmf(lo, N, K, m);
  double log_acc = log_pmf;
  for (int64_t x = lo; x < j; ++x) {
    log_pmf += std::log(static_cast<double>(K - x)) +
               std::log(static_cast<double>(m - x)) -
               std::log(static_cast<double>(x + 1)) -
               std::log(static_cast<double>(N - K - m + x + 1));
    log_acc = LogAdd(log_acc, log_pmf);
  }
  return std::min(0.0, log_acc);
}

HypergeomCdfTable::HypergeomCdfTable(int64_t N, int64_t K, int64_t m,
                                     int64_t j_max)
    : N_(N), K_(K), m_(m) {
  CheckParams(N, K, m);
  support_lo_ = SupportLo(N, K, m);
  support_hi_ = SupportHi(K, m);
  const int64_t top = std::min(j_max, support_hi_);
  if (top < support_lo_) return;  // Entire queried range is below support.
  log_cdf_.reserve(static_cast<size_t>(top - support_lo_ + 1));
  double log_pmf = LogHypergeomPmf(support_lo_, N, K, m);
  double log_acc = log_pmf;
  log_cdf_.push_back(std::min(0.0, log_acc));
  for (int64_t x = support_lo_; x < top; ++x) {
    log_pmf += std::log(static_cast<double>(K - x)) +
               std::log(static_cast<double>(m - x)) -
               std::log(static_cast<double>(x + 1)) -
               std::log(static_cast<double>(N - K - m + x + 1));
    log_acc = LogAdd(log_acc, log_pmf);
    log_cdf_.push_back(std::min(0.0, log_acc));
  }
}

double HypergeomCdfTable::LogCdf(int64_t j) const {
  if (j < support_lo_) return NegInf();
  if (j >= support_hi_) return 0.0;
  const size_t idx = static_cast<size_t>(j - support_lo_);
  if (idx < log_cdf_.size()) return log_cdf_[idx];
  // Beyond the precomputed range but inside the support: fall back to the
  // direct computation. (Callers sized j_max correctly should not hit this.)
  return LogHypergeomCdf(j, N_, K_, m_);
}

}  // namespace fastmatch
