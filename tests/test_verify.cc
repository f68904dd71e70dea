#include "core/verify.h"

#include <gtest/gtest.h>

#include "core/distance.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

TEST(ExactCountsTest, MatchesConstruction) {
  auto dists = PlantedDistributions(3, 4, {0.0, 0.1, 0.2});
  auto store = MakeExactStore({400, 800, 1200}, dists, 1);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  EXPECT_EQ(exact.RowTotal(0), 400);
  EXPECT_EQ(exact.RowTotal(1), 800);
  EXPECT_EQ(exact.RowTotal(2), 1200);
  // Candidate 0 is exactly uniform over 4 bins.
  for (int g = 0; g < 4; ++g) EXPECT_EQ(exact.At(0, g), 100);
  // Candidate 1 has offset 0.1: bin 1 holds 0.25 + 0.1 + 0.1/3 of the
  // mass, the rest is spread evenly; largest-remainder rounding keeps
  // every bin within 1 of its ideal count.
  for (int g = 0; g < 4; ++g) {
    EXPECT_NEAR(static_cast<double>(exact.At(1, g)), dists[1][g] * 800, 1.0);
  }
  EXPECT_NEAR(L1Distance(exact.NormalizedRow(1), UniformDistribution(4)),
              0.2, 2e-3);
}

TEST(ExactCountsTest, ValidatesAttributes) {
  auto store = MakeExactStore({100}, PlantedDistributions(1, 4, {0.0}), 2);
  EXPECT_FALSE(ComputeExactCounts(*store, -1, {1}).ok());
  EXPECT_FALSE(ComputeExactCounts(*store, 0, {}).ok());
  EXPECT_FALSE(ComputeExactCounts(*store, 0, {5}).ok());
}

TEST(GroundTruthTest, RanksBySelectivityAndDistance) {
  auto dists = PlantedDistributions(5, 4, {0.0, 0.05, 0.1, 0.15, 0.2});
  auto store = MakeExactStore({100, 10000, 10000, 10000, 10000}, dists, 3);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);

  // Without sigma, candidate 0 (distance 0) leads.
  GroundTruth t0 = ComputeGroundTruth(exact, target, Metric::kL1, 0.0, 2);
  EXPECT_EQ(t0.topk, (std::vector<int>{0, 1}));

  // With sigma = 0.01 (N = 40100, threshold 401), candidate 0 is
  // ineligible and drops out.
  GroundTruth t1 = ComputeGroundTruth(exact, target, Metric::kL1, 0.01, 2);
  EXPECT_FALSE(t1.eligible[0]);
  EXPECT_EQ(t1.topk, (std::vector<int>{1, 2}));
}

TEST(GroundTruthTest, DistancesMatchPlantedOffsets) {
  auto dists = PlantedDistributions(3, 4, {0.0, 0.05, 0.1});
  auto store = MakeExactStore({10000, 10000, 10000}, dists, 4);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  GroundTruth t = ComputeGroundTruth(exact, UniformDistribution(4),
                                     Metric::kL1, 0.0, 2);
  EXPECT_NEAR(t.distances[0], 0.0, 1e-3);
  EXPECT_NEAR(t.distances[1], 0.1, 1e-3);  // l1 = 2 * offset
  EXPECT_NEAR(t.distances[2], 0.2, 1e-3);
}

TEST(CheckGuaranteesTest, PerfectAnswerPasses) {
  auto dists = PlantedDistributions(4, 4, {0.0, 0.1, 0.2, 0.3});
  auto store = MakeExactStore({5000, 5000, 5000, 5000}, dists, 5);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);
  HistSimParams params;
  params.k = 2;
  params.epsilon = 0.05;
  params.sigma = 0;
  GroundTruth truth = ComputeGroundTruth(exact, target, Metric::kL1, 0, 2);

  MatchResult result;
  result.topk = truth.topk;
  result.counts = exact;  // exact histograms
  auto check = CheckGuarantees(result, exact, truth, target, params);
  EXPECT_TRUE(check.separation_ok);
  EXPECT_TRUE(check.reconstruction_ok);
  EXPECT_NEAR(check.delta_d, 0.0, 1e-12);
}

TEST(CheckGuaranteesTest, DetectsSeparationViolation) {
  // Output candidate 3 (distance 0.6) while candidate 0 (distance 0) is
  // eligible and excluded: violates Guarantee 1 for eps = 0.05.
  auto dists = PlantedDistributions(4, 4, {0.0, 0.1, 0.2, 0.3});
  auto store = MakeExactStore({5000, 5000, 5000, 5000}, dists, 6);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);
  HistSimParams params;
  params.k = 2;
  params.epsilon = 0.05;
  params.sigma = 0;
  GroundTruth truth = ComputeGroundTruth(exact, target, Metric::kL1, 0, 2);

  MatchResult result;
  result.topk = {2, 3};  // wrong: true top-2 is {0, 1}
  result.counts = exact;
  auto check = CheckGuarantees(result, exact, truth, target, params);
  EXPECT_FALSE(check.separation_ok);
  EXPECT_NEAR(check.worst_separation, 0.6, 1e-3);
}

TEST(CheckGuaranteesTest, SeparationToleratesNearTies) {
  // Candidates 0 and 1 are 0.02 apart (< eps): returning either is fine.
  auto dists = PlantedDistributions(3, 4, {0.0, 0.01, 0.3});
  auto store = MakeExactStore({5000, 5000, 5000}, dists, 7);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);
  HistSimParams params;
  params.k = 1;
  params.epsilon = 0.05;
  params.sigma = 0;
  GroundTruth truth = ComputeGroundTruth(exact, target, Metric::kL1, 0, 1);
  MatchResult result;
  result.topk = {1};  // not the true best (0), but within eps
  result.counts = exact;
  auto check = CheckGuarantees(result, exact, truth, target, params);
  EXPECT_TRUE(check.separation_ok);
}

TEST(CheckGuaranteesTest, DetectsReconstructionViolation) {
  auto dists = PlantedDistributions(2, 4, {0.0, 0.1});
  auto store = MakeExactStore({5000, 5000}, dists, 8);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);
  HistSimParams params;
  params.k = 1;
  params.epsilon = 0.05;
  params.sigma = 0;
  GroundTruth truth = ComputeGroundTruth(exact, target, Metric::kL1, 0, 1);

  MatchResult result;
  result.topk = {0};
  // Badly skewed estimate for candidate 0.
  result.counts = CountMatrix(2, 4);
  for (int i = 0; i < 100; ++i) result.counts.Add(0, 0);
  auto check = CheckGuarantees(result, exact, truth, target, params);
  EXPECT_FALSE(check.reconstruction_ok);
  EXPECT_GT(check.worst_reconstruction, 1.0);
}

TEST(CheckGuaranteesTest, DetectsFalseExactness) {
  // An exact flag must come with the candidate's true row; a sampled row
  // flagged exact is caught even where both guarantees hold.
  auto dists = PlantedDistributions(2, 4, {0.0, 0.1});
  auto store = MakeExactStore({5000, 5000}, dists, 10);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);
  HistSimParams params;
  params.k = 1;
  params.epsilon = 0.05;
  params.sigma = 0;
  GroundTruth truth = ComputeGroundTruth(exact, target, Metric::kL1, 0, 1);

  MatchResult result;
  result.topk = {0};
  result.counts = exact;
  result.exact = {true, true};
  EXPECT_TRUE(CheckGuarantees(result, exact, truth, target, params).exact_ok);
  // Candidate 1 loses one row: flagged exact, it is now a false claim;
  // unflagged, the same counts are just an estimate.
  result.counts = CountMatrix(2, 4);
  for (int i = 0; i < 2; ++i) {
    for (int g = 0; g < 4; ++g) {
      for (int64_t n = 0; n < exact.At(i, g) - (i == 1 && g == 0); ++n) {
        result.counts.Add(i, g);
      }
    }
  }
  EXPECT_FALSE(CheckGuarantees(result, exact, truth, target, params).exact_ok);
  result.exact = {true, false};
  EXPECT_TRUE(CheckGuarantees(result, exact, truth, target, params).exact_ok);
}

TEST(CheckGuaranteesTest, DeltaDUsesEstimatedHistograms) {
  // Estimated counts slightly off: delta_d reflects estimated-vs-true
  // distance sums and can be negative (paper Section 5.3).
  auto dists = PlantedDistributions(2, 4, {0.05, 0.3});
  auto store = MakeExactStore({5000, 5000}, dists, 9);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  Distribution target = UniformDistribution(4);
  HistSimParams params;
  params.k = 1;
  params.epsilon = 0.05;
  params.sigma = 0;
  GroundTruth truth = ComputeGroundTruth(exact, target, Metric::kL1, 0, 1);

  MatchResult result;
  result.topk = {0};
  // Estimate for candidate 0 exactly uniform -> estimated distance 0 <
  // true distance 0.1 -> delta_d = -1.
  result.counts = CountMatrix(2, 4);
  for (int g = 0; g < 4; ++g) result.counts.Add(0, g);
  auto check = CheckGuarantees(result, exact, truth, target, params);
  EXPECT_NEAR(check.delta_d, -1.0, 1e-9);
}

}  // namespace
}  // namespace fastmatch
