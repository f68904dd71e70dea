#include "row_sampler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

TEST(RowSamplerTest, CreateValidatesArguments) {
  auto store = MakeExactStore({100, 100}, PlantedDistributions(2, 4, {0, 0.1}),
                              1);
  EXPECT_FALSE(RowSampler::Create(nullptr, 0, {1}, 1).ok());
  EXPECT_FALSE(RowSampler::Create(store, 5, {1}, 1).ok());
  EXPECT_FALSE(RowSampler::Create(store, 0, {}, 1).ok());
  EXPECT_FALSE(RowSampler::Create(store, 0, {9}, 1).ok());
  EXPECT_TRUE(RowSampler::Create(store, 0, {1}, 1).ok());
}

TEST(RowSamplerTest, ReportsDomainSizes) {
  auto store = MakeExactStore({50, 50, 50},
                              PlantedDistributions(3, 6, {0, 0.05, 0.1}), 2);
  auto sampler = RowSampler::Create(store, 0, {1}, 7).value();
  EXPECT_EQ(sampler->num_candidates(), 3);
  EXPECT_EQ(sampler->num_groups(), 6);
  EXPECT_EQ(sampler->total_rows(), 150);
}

TEST(RowSamplerTest, SampleRowsDrawsExactlyM) {
  auto store = MakeExactStore({500, 500},
                              PlantedDistributions(2, 4, {0, 0.1}), 3);
  auto sampler = RowSampler::Create(store, 0, {1}, 11).value();
  CountMatrix out(2, 4);
  EXPECT_EQ(sampler->SampleRows(200, &out), 200);
  EXPECT_EQ(out.RowTotal(0) + out.RowTotal(1), 200);
  EXPECT_EQ(sampler->rows_consumed(), 200);
  EXPECT_FALSE(sampler->AllConsumed());
}

TEST(RowSamplerTest, SampleRowsTruncatesAtDataEnd) {
  auto store =
      MakeExactStore({60, 40}, PlantedDistributions(2, 4, {0, 0.1}), 4);
  auto sampler = RowSampler::Create(store, 0, {1}, 13).value();
  CountMatrix out(2, 4);
  EXPECT_EQ(sampler->SampleRows(1000, &out), 100);
  EXPECT_TRUE(sampler->AllConsumed());
  // Complete consumption reproduces the exact histograms.
  EXPECT_EQ(out.RowTotal(0), 60);
  EXPECT_EQ(out.RowTotal(1), 40);
}

TEST(RowSamplerTest, WithoutReplacementAcrossCalls) {
  auto store =
      MakeExactStore({300, 200}, PlantedDistributions(2, 4, {0, 0.1}), 5);
  auto sampler = RowSampler::Create(store, 0, {1}, 17).value();
  CountMatrix total(2, 4);
  for (int i = 0; i < 10; ++i) sampler->SampleRows(50, &total);
  EXPECT_TRUE(sampler->AllConsumed());
  // All 500 rows seen exactly once.
  EXPECT_EQ(total.RowTotal(0), 300);
  EXPECT_EQ(total.RowTotal(1), 200);
}

TEST(RowSamplerTest, SamplesAreUniformAcrossCandidates) {
  // Candidate proportions 1:3 must be reflected in a large sample.
  auto store = MakeExactStore({20000, 60000},
                              PlantedDistributions(2, 4, {0, 0.1}), 6);
  auto sampler = RowSampler::Create(store, 0, {1}, 19).value();
  CountMatrix out(2, 4);
  sampler->SampleRows(8000, &out);
  const double frac =
      static_cast<double>(out.RowTotal(0)) /
      static_cast<double>(out.RowTotal(0) + out.RowTotal(1));
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(RowSamplerTest, SampleUntilTargetsMeetsAllTargets) {
  auto store = MakeExactStore({5000, 5000, 5000},
                              PlantedDistributions(3, 4, {0, 0.05, 0.1}), 7);
  auto sampler = RowSampler::Create(store, 0, {1}, 23).value();
  CountMatrix out(3, 4);
  std::vector<bool> exhausted(3, false);
  sampler->SampleUntilTargets({500, -1, 800}, &out, &exhausted);
  EXPECT_GE(out.RowTotal(0), 500);
  EXPECT_GE(out.RowTotal(2), 800);
  EXPECT_FALSE(exhausted[0]);
  EXPECT_FALSE(exhausted[2]);
}

TEST(RowSamplerTest, SampleUntilTargetsExhaustsOnImpossibleTarget) {
  auto store =
      MakeExactStore({100, 5000}, PlantedDistributions(2, 4, {0, 0.1}), 8);
  auto sampler = RowSampler::Create(store, 0, {1}, 29).value();
  CountMatrix out(2, 4);
  std::vector<bool> exhausted(2, false);
  sampler->SampleUntilTargets({1000, -1}, &out, &exhausted);
  // Candidate 0 has only 100 rows: the sampler must consume everything
  // and report exhaustion.
  EXPECT_TRUE(exhausted[0]);
  EXPECT_TRUE(exhausted[1]);
  EXPECT_TRUE(sampler->AllConsumed());
  EXPECT_EQ(out.RowTotal(0), 100);
}

TEST(RowSamplerTest, CompositeGroupingAttributes) {
  // Two x attributes of cardinalities 4 and 3 -> 12 composite groups.
  std::vector<Value> z, x1, x2;
  for (int i = 0; i < 240; ++i) {
    z.push_back(static_cast<Value>(i % 2));
    x1.push_back(static_cast<Value>(i % 4));
    x2.push_back(static_cast<Value>(i % 3));
  }
  auto store = ColumnStore::FromColumns(
                   Schema({{"Z", 2}, {"X1", 4}, {"X2", 3}}),
                   {std::move(z), std::move(x1), std::move(x2)})
                   .value();
  auto sampler =
      RowSampler::Create(std::move(store), 0, {1, 2}, 31).value();
  EXPECT_EQ(sampler->num_groups(), 12);
  CountMatrix out(2, 12);
  sampler->SampleRows(240, &out);
  // Row i maps to group (i%4)*3 + (i%3); verify totals land in the right
  // composite bins.
  int64_t total = 0;
  for (int g = 0; g < 12; ++g) total += out.At(0, g) + out.At(1, g);
  EXPECT_EQ(total, 240);
}

TEST(RowSamplerTest, SampleUntilTargetsCountsOnlyFreshSamplesPerCall) {
  // Regression: callers may legally accumulate several rounds into one
  // matrix. The sampler used to seed its fresh counters from
  // out->RowTotal, so a second call on a reused matrix returned without
  // drawing anything. Each call must meet its targets with samples drawn
  // during that call.
  auto store =
      MakeExactStore({5000, 5000}, PlantedDistributions(2, 4, {0, 0.1}), 10);
  auto sampler = RowSampler::Create(store, 0, {1}, 41).value();
  CountMatrix out(2, 4);
  std::vector<bool> exhausted(2, false);
  sampler->SampleUntilTargets({100, -1}, &out, &exhausted);
  EXPECT_EQ(out.RowTotal(0), 100);
  sampler->SampleUntilTargets({100, -1}, &out, &exhausted);
  EXPECT_EQ(out.RowTotal(0), 200);
  EXPECT_FALSE(exhausted[0]);
}

TEST(RowSamplerTest, DeterministicUnderSeed) {
  auto store =
      MakeExactStore({1000, 1000}, PlantedDistributions(2, 4, {0, 0.1}), 9);
  auto s1 = RowSampler::Create(store, 0, {1}, 37).value();
  auto s2 = RowSampler::Create(store, 0, {1}, 37).value();
  CountMatrix o1(2, 4), o2(2, 4);
  s1->SampleRows(300, &o1);
  s2->SampleRows(300, &o2);
  for (int i = 0; i < 2; ++i) {
    for (int g = 0; g < 4; ++g) EXPECT_EQ(o1.At(i, g), o2.At(i, g));
  }
}

}  // namespace
}  // namespace fastmatch
