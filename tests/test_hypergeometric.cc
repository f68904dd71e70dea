#include "stats/hypergeometric.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/math.h"

namespace fastmatch {
namespace {

/// Exact pmf by direct binomial-coefficient arithmetic for small cases.
double ExactPmf(int64_t j, int64_t N, int64_t K, int64_t m) {
  auto choose = [](int64_t n, int64_t k) -> double {
    if (k < 0 || k > n) return 0.0;
    double r = 1;
    for (int64_t i = 0; i < k; ++i) {
      r *= static_cast<double>(n - i) / static_cast<double>(i + 1);
    }
    return r;
  };
  return choose(K, j) * choose(N - K, m - j) / choose(N, m);
}

TEST(HypergeomTest, PmfMatchesExactSmallCases) {
  for (int64_t N : {10, 20, 35}) {
    for (int64_t K : {0L, 3L, 7L, N}) {
      if (K > N) continue;
      for (int64_t m : {0L, 1L, 5L, N}) {
        if (m > N) continue;
        for (int64_t j = -1; j <= m + 1; ++j) {
          const double expected = ExactPmf(j, N, K, m);
          const double actual = std::exp(LogHypergeomPmf(j, N, K, m));
          EXPECT_NEAR(actual, expected, 1e-10)
              << "j=" << j << " N=" << N << " K=" << K << " m=" << m;
        }
      }
    }
  }
}

TEST(HypergeomTest, PmfSumsToOne) {
  const int64_t N = 50, K = 18, m = 23;
  double total = 0;
  for (int64_t j = 0; j <= m; ++j) {
    total += std::exp(LogHypergeomPmf(j, N, K, m));
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(HypergeomTest, CdfMonotoneAndBounded) {
  const int64_t N = 100, K = 30, m = 40;
  double prev = 0;
  for (int64_t j = 0; j <= m; ++j) {
    const double c = std::exp(LogHypergeomCdf(j, N, K, m));
    EXPECT_GE(c + 1e-12, prev);
    EXPECT_LE(c, 1.0 + 1e-12);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-10);
}

TEST(HypergeomTest, CdfMatchesPmfSum) {
  const int64_t N = 60, K = 25, m = 30;
  double acc = 0;
  for (int64_t j = 0; j <= m; ++j) {
    acc += std::exp(LogHypergeomPmf(j, N, K, m));
    EXPECT_NEAR(std::exp(LogHypergeomCdf(j, N, K, m)), std::min(acc, 1.0),
                1e-9)
        << j;
  }
}

TEST(HypergeomTest, SupportEdges) {
  // With N=10, K=7, m=6: at least m-(N-K)=3 successes must be drawn.
  EXPECT_EQ(LogHypergeomPmf(2, 10, 7, 6), NegInf());
  EXPECT_GT(std::exp(LogHypergeomPmf(3, 10, 7, 6)), 0.0);
  // No more than min(K, m) successes.
  EXPECT_EQ(LogHypergeomPmf(7, 10, 7, 6), NegInf());
  EXPECT_EQ(LogHypergeomCdf(2, 10, 7, 6), NegInf());
  EXPECT_DOUBLE_EQ(LogHypergeomCdf(6, 10, 7, 6), 0.0);
}

TEST(HypergeomTest, MeanMatchesTheory) {
  // E[X] = m*K/N.
  const int64_t N = 200, K = 60, m = 50;
  double mean = 0;
  for (int64_t j = 0; j <= m; ++j) {
    mean += j * std::exp(LogHypergeomPmf(j, N, K, m));
  }
  EXPECT_NEAR(mean, static_cast<double>(m) * K / N, 1e-8);
}

TEST(HypergeomTest, LargePopulationUnderrepresentationPValue) {
  // The paper's stage-1 setting: N=600M, K=sigma*N=480k, m=500k draws.
  // E[n_i] = 400 under the null; observing 0 must be astronomically
  // unlikely but still a finite, well-behaved log-probability.
  const int64_t N = 600000000, K = 480000, m = 500000;
  const double lp0 = LogHypergeomCdf(0, N, K, m);
  EXPECT_TRUE(std::isfinite(lp0));
  EXPECT_LT(lp0, -350);  // ~ -400 in the Poisson approximation
  EXPECT_GT(lp0, -500);
  // Observing the mean should have high CDF mass (~0.5).
  const double lp_mean = LogHypergeomCdf(400, N, K, m);
  EXPECT_GT(std::exp(lp_mean), 0.4);
  EXPECT_LT(std::exp(lp_mean), 0.65);
}

TEST(HypergeomCdfTableTest, AgreesWithDirectCdf) {
  const int64_t N = 5000, K = 150, m = 800;
  HypergeomCdfTable table(N, K, m, /*j_max=*/150);
  for (int64_t j = 0; j <= 150; ++j) {
    EXPECT_NEAR(table.LogCdf(j), LogHypergeomCdf(j, N, K, m), 1e-9) << j;
  }
}

TEST(HypergeomCdfTableTest, QueriesBeyondPrecomputedRange) {
  const int64_t N = 5000, K = 150, m = 800;
  HypergeomCdfTable table(N, K, m, /*j_max=*/10);
  // Inside support but beyond the table: falls back to direct computation.
  EXPECT_NEAR(table.LogCdf(50), LogHypergeomCdf(50, N, K, m), 1e-9);
  // At/above the support top: log(1) = 0.
  EXPECT_DOUBLE_EQ(table.LogCdf(150), 0.0);
  EXPECT_DOUBLE_EQ(table.LogCdf(100000), 0.0);
}

TEST(HypergeomCdfTableTest, DegenerateParameters) {
  // K = 0: zero successes always; CDF at 0 is already 1.
  HypergeomCdfTable t0(100, 0, 10, 5);
  EXPECT_DOUBLE_EQ(t0.LogCdf(0), 0.0);
  // m = 0: no draws, zero successes certain.
  HypergeomCdfTable t1(100, 40, 0, 5);
  EXPECT_DOUBLE_EQ(t1.LogCdf(0), 0.0);
  // m = N: all drawn, X = K exactly.
  HypergeomCdfTable t2(20, 8, 20, 10);
  EXPECT_EQ(t2.LogCdf(7), NegInf());
  EXPECT_DOUBLE_EQ(t2.LogCdf(8), 0.0);
}

}  // namespace
}  // namespace fastmatch
