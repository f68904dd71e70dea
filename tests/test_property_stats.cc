// Parameterized property sweeps over the statistics substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "stats/deviation.h"
#include "stats/hypergeometric.h"
#include "stats/multiple_testing.h"
#include "util/math.h"
#include "util/random.h"

namespace fastmatch {
namespace {

// ------------------------------------------------------- deviation bound

struct DevCase {
  int64_t vx;
  double delta;
};

class DeviationSweep : public ::testing::TestWithParam<DevCase> {};

TEST_P(DeviationSweep, InversionRoundTrips) {
  const auto [vx, delta] = GetParam();
  const double log_delta = std::log(delta);
  for (double eps : {0.01, 0.02, 0.04, 0.08, 0.16, 0.5}) {
    const int64_t n = DeviationSamples(eps, vx, log_delta);
    ASSERT_GT(n, 0);
    EXPECT_LE(DeviationEpsilon(n, vx, log_delta), eps + 1e-12);
    if (n > 1) {
      EXPECT_GT(DeviationEpsilon(n - 1, vx, log_delta), eps - 1e-9);
    }
  }
}

TEST_P(DeviationSweep, PValueConsistentWithEpsilon) {
  const auto [vx, delta] = GetParam();
  const double log_delta = std::log(delta);
  // Drawing exactly DeviationSamples gives a P-value <= delta when the
  // observed deviation equals eps.
  for (double eps : {0.02, 0.05, 0.1}) {
    const int64_t n = DeviationSamples(eps, vx, log_delta);
    EXPECT_LE(LogDeviationPValue(eps, n, vx), log_delta + 1e-9);
  }
}

TEST_P(DeviationSweep, MonotoneInSamples) {
  const auto [vx, delta] = GetParam();
  const double log_delta = std::log(delta);
  double prev = 10;
  for (int64_t n : {10, 100, 1000, 10000, 100000}) {
    const double eps = DeviationEpsilon(n, vx, log_delta);
    EXPECT_LT(eps, prev);
    prev = eps;
    // P-value at fixed eps decreases in n.
    EXPECT_LE(LogDeviationPValue(0.1, n * 10, vx),
              LogDeviationPValue(0.1, n, vx));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeviationSweep,
    ::testing::Values(DevCase{2, 0.01}, DevCase{2, 0.2}, DevCase{7, 0.01},
                      DevCase{24, 0.01}, DevCase{24, 0.001},
                      DevCase{351, 0.01}, DevCase{351, 0.1}),
    [](const auto& info) {
      return "vx" + std::to_string(info.param.vx) + "_d" +
             std::to_string(static_cast<int>(info.param.delta * 1000));
    });

// ---------------------------------------------------------- hypergeometric

struct HypCase {
  int64_t N, K, m;
};

class HypergeomSweep : public ::testing::TestWithParam<HypCase> {};

TEST_P(HypergeomSweep, PmfNormalized) {
  const auto [N, K, m] = GetParam();
  double total = 0;
  for (int64_t j = 0; j <= std::min(K, m); ++j) {
    total += HypergeomPmf(j, N, K, m);
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST_P(HypergeomSweep, CdfMonotoneMatchesTable) {
  const auto [N, K, m] = GetParam();
  const int64_t top = std::min(K, m);
  HypergeomCdfTable table(N, K, m, top);
  double prev = -1;
  for (int64_t j = 0; j <= top; ++j) {
    const double c = std::exp(table.LogCdf(j));
    EXPECT_GE(c + 1e-12, prev) << j;
    const double direct = LogHypergeomCdf(j, N, K, m);
    if (std::isinf(direct)) {
      // Below the support (j < m - (N - K)): both must report -inf.
      EXPECT_TRUE(std::isinf(table.LogCdf(j))) << j;
    } else {
      EXPECT_NEAR(table.LogCdf(j), direct, 1e-8) << j;
    }
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-8);
}

TEST_P(HypergeomSweep, MeanWithinSupport) {
  const auto [N, K, m] = GetParam();
  double mean = 0;
  for (int64_t j = 0; j <= std::min(K, m); ++j) {
    mean += static_cast<double>(j) * HypergeomPmf(j, N, K, m);
  }
  EXPECT_NEAR(mean, static_cast<double>(m) * K / N,
              1e-6 * std::max<double>(1.0, mean));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HypergeomSweep,
    ::testing::Values(HypCase{100, 10, 20}, HypCase{100, 90, 20},
                      HypCase{1000, 1, 999}, HypCase{1000, 500, 500},
                      HypCase{5000, 4, 100}, HypCase{333, 111, 222}),
    [](const auto& info) {
      std::string name = "N";
      name += std::to_string(info.param.N);
      name += "_K";
      name += std::to_string(info.param.K);
      name += "_m";
      name += std::to_string(info.param.m);
      return name;
    });

// ------------------------------------------------------- multiple testing

class HolmSweep : public ::testing::TestWithParam<int> {};

TEST_P(HolmSweep, DominatesBonferroniOnRandomFamilies) {
  const int family = GetParam();
  Rng rng(static_cast<uint64_t>(family) * 977);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> ps(static_cast<size_t>(family));
    for (auto& p : ps) {
      p = std::log(rng.NextDouble() + 1e-12) * (1 + rng.Uniform(4));
    }
    const double log_alpha = std::log(0.05);
    auto holm = HolmBonferroniReject(ps, log_alpha);
    auto bonf = BonferroniReject(ps, log_alpha);
    // Holm rejects a superset of Bonferroni.
    EXPECT_GE(holm.size(), bonf.size());
    for (int idx : bonf) {
      EXPECT_NE(std::find(holm.begin(), holm.end(), idx), holm.end());
    }
    // And every rejected P-value is individually below alpha.
    for (int idx : holm) {
      EXPECT_LE(ps[static_cast<size_t>(idx)], log_alpha);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FamilySizes, HolmSweep,
                         ::testing::Values(1, 2, 5, 20, 100, 1000));

}  // namespace
}  // namespace fastmatch
