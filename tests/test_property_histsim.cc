// Parameterized end-to-end property sweeps of HistSim: for a grid of
// (epsilon, k, metric), the algorithm must terminate, return k winners,
// and satisfy both guarantees against exact ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/histsim.h"
#include "row_sampler.h"
#include "core/verify.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct SweepCase {
  double epsilon;
  int k;
  Metric metric;
};

class HistSimSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  // 14 candidates: a tight cluster of 6 near the target, then strangers
  // with generous gaps, so every k in [1, 6] has a clear answer and
  // larger k crosses into the stranger band.
  static constexpr int kVx = 8;

  void SetUp() override {
    offsets_ = {0.0,  0.005, 0.01, 0.015, 0.02, 0.025, 0.18,
                0.21, 0.24,  0.27, 0.3,   0.33, 0.36,  0.39};
    auto dists = PlantedDistributions(14, kVx, offsets_);
    store_ = MakeExactStore(std::vector<int64_t>(14, 25000), dists, 99, 50);
    exact_ = ComputeExactCounts(*store_, 0, {1}).value();
    target_ = UniformDistribution(kVx);
  }

  std::vector<double> offsets_;
  std::shared_ptr<ColumnStore> store_;
  CountMatrix exact_;
  Distribution target_;
};

TEST_P(HistSimSweep, TerminatesAndSatisfiesGuarantees) {
  const SweepCase c = GetParam();
  HistSimParams p;
  p.k = c.k;
  p.epsilon = c.epsilon;
  p.metric = c.metric;
  p.delta = 0.05;
  p.sigma = 0;
  p.stage1_samples = 5000;

  GroundTruth truth = ComputeGroundTruth(exact_, target_, c.metric, 0, c.k);

  int violations = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto sampler = RowSampler::Create(store_, 0, {1}, seed).value();
    HistSim histsim(p, target_);
    auto result = histsim.Run(sampler.get());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->topk.size(), static_cast<size_t>(c.k));
    // Output sorted by estimated distance.
    for (size_t i = 1; i < result->topk_distances.size(); ++i) {
      EXPECT_LE(result->topk_distances[i - 1], result->topk_distances[i]);
    }
    auto check = CheckGuarantees(*result, exact_, truth, target_, p);
    violations += !check.separation_ok || !check.reconstruction_ok;
  }
  // 3 runs at delta = 0.05 each; the bound is loose, tolerate at most 1.
  EXPECT_LE(violations, 1);
}

TEST_P(HistSimSweep, WinnersRespectPlantedCluster) {
  const SweepCase c = GetParam();
  HistSimParams p;
  p.k = c.k;
  p.epsilon = c.epsilon;
  p.metric = c.metric;
  p.delta = 0.05;
  p.sigma = 0;
  p.stage1_samples = 5000;
  auto sampler = RowSampler::Create(store_, 0, {1}, 7).value();
  HistSim histsim(p, target_);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  // The planted cluster (ids 0..5) sits far closer to the target than
  // the stranger band — the gap exceeds every epsilon in the grid. So:
  // when k <= 6 every winner must come from the cluster, and when k
  // crosses the cluster boundary (k > 6) the whole cluster must be among
  // the winners (the extra slots necessarily go to strangers, whose
  // relative order within their band is not pinned down by the gap).
  std::set<int> winners(result->topk.begin(), result->topk.end());
  if (c.k <= 6) {
    for (int i : result->topk) {
      EXPECT_LT(i, 6);
    }
  } else {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(winners.count(i))
          << "cluster member " << i << " missing from top-" << c.k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HistSimSweep,
    ::testing::Values(SweepCase{0.03, 1, Metric::kL1},
                      SweepCase{0.03, 3, Metric::kL1},
                      SweepCase{0.03, 6, Metric::kL1},
                      SweepCase{0.06, 3, Metric::kL1},
                      SweepCase{0.06, 8, Metric::kL1},
                      SweepCase{0.12, 3, Metric::kL1},
                      SweepCase{0.12, 12, Metric::kL1},
                      SweepCase{0.06, 3, Metric::kL2},
                      SweepCase{0.12, 6, Metric::kL2}),
    [](const auto& info) {
      return "eps" +
             std::to_string(static_cast<int>(info.param.epsilon * 100)) +
             "_k" + std::to_string(info.param.k) + "_" +
             std::string(MetricName(info.param.metric));
    });

// ---------------------------------------------------------- sigma sweep

class SigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SigmaSweep, PrunedCandidatesAreActuallyRare) {
  const double sigma = GetParam();
  // Mixed selectivities spanning the sigma grid.
  std::vector<int64_t> counts = {60,    600,   6000,  20000,
                                 20000, 20000, 20000, 20000};
  auto dists = PlantedDistributions(
      8, 4, {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35});
  auto store = MakeExactStore(counts, dists, 11, 50);
  const int64_t n = store->num_rows();

  HistSimParams p;
  p.k = 2;
  p.epsilon = 0.08;
  p.delta = 0.05;
  p.sigma = sigma;
  p.stage1_samples = 20000;
  auto sampler = RowSampler::Create(store, 0, {1}, 13).value();
  HistSim histsim(p, UniformDistribution(4));
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < 8; ++i) {
    if (result->pruned[i]) {
      // Guarantee: pruned implies N_i/N < sigma (w.h.p.).
      EXPECT_LT(static_cast<double>(counts[static_cast<size_t>(i)]),
                sigma * static_cast<double>(n))
          << "candidate " << i << " wrongly pruned at sigma=" << sigma;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SigmaSweep,
                         ::testing::Values(0.0, 0.0005, 0.002, 0.01, 0.05),
                         [](const auto& info) {
                           std::string name = "s";
                           name += std::to_string(
                               static_cast<int>(info.param * 100000));
                           return name;
                         });

}  // namespace
}  // namespace fastmatch
