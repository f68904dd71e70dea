#include "engine/executor.h"

#include <gtest/gtest.h>

#include <set>

#include "core/verify.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

BoundQuery MakeQuery(uint64_t seed = 1) {
  // 10 candidates; true top-3 = {0, 1, 2} with a wide gap to the rest.
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.12, 0.15,
                                 0.18, 0.21, 0.24, 0.27, 0.3};
  auto dists = PlantedDistributions(10, 8, offsets);
  auto store =
      MakeExactStore(std::vector<int64_t>(10, 15000), dists, seed, 50);

  BoundQuery q;
  q.store = store;
  q.z_index = BitmapIndex::Build(*store, 0).value();
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = UniformDistribution(8);
  q.params.k = 3;
  q.params.epsilon = 0.05;
  q.params.delta = 0.05;
  q.params.sigma = 0.0;
  q.params.stage1_samples = 5000;
  q.params.seed = seed;
  q.lookahead = 16;
  return q;
}

constexpr Approach kAll[] = {Approach::kScan, Approach::kScanMatch,
                             Approach::kSyncMatch, Approach::kFastMatch};

TEST(ExecutorTest, ApproachNames) {
  EXPECT_EQ(ApproachName(Approach::kScan), "Scan");
  EXPECT_EQ(ApproachName(Approach::kScanMatch), "ScanMatch");
  EXPECT_EQ(ApproachName(Approach::kSyncMatch), "SyncMatch");
  EXPECT_EQ(ApproachName(Approach::kFastMatch), "FastMatch");
}

TEST(ExecutorTest, AllApproachesFindPlantedTopK) {
  BoundQuery q = MakeQuery();
  for (Approach a : kAll) {
    auto out = RunQuery(q, a);
    ASSERT_TRUE(out.ok()) << ApproachName(a) << ": "
                          << out.status().ToString();
    std::set<int> got(out->match.topk.begin(), out->match.topk.end());
    EXPECT_EQ(got, (std::set<int>{0, 1, 2})) << ApproachName(a);
  }
}

TEST(ExecutorTest, ScanIsExact) {
  BoundQuery q = MakeQuery();
  auto out = RunQuery(q, Approach::kScan);
  ASSERT_TRUE(out.ok());
  auto exact = ComputeExactCounts(*q.store, 0, {1}).value();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(out->match.exact[i]);
    for (int g = 0; g < 8; ++g) {
      EXPECT_EQ(out->match.counts.At(i, g), exact.At(i, g));
    }
  }
  EXPECT_EQ(out->stats.engine.rows_read, q.store->num_rows());
}

TEST(ExecutorTest, ApproximateApproachesSatisfyGuarantees) {
  BoundQuery q = MakeQuery();
  auto exact = ComputeExactCounts(*q.store, 0, {1}).value();
  GroundTruth truth = ComputeGroundTruth(exact, q.target, q.params.metric,
                                         q.params.sigma, q.params.k);
  for (Approach a :
       {Approach::kScanMatch, Approach::kSyncMatch, Approach::kFastMatch}) {
    int violations = 0;
    for (uint64_t seed = 0; seed < 5; ++seed) {
      q.params.seed = seed;
      auto out = RunQuery(q, a);
      ASSERT_TRUE(out.ok());
      auto check = CheckGuarantees(out->match, exact, truth, q.target,
                                   q.params);
      violations += !check.separation_ok || !check.reconstruction_ok;
    }
    EXPECT_LE(violations, 1) << ApproachName(a);
  }
}

TEST(ExecutorTest, ApproximateApproachesReadLessThanScan) {
  BoundQuery q = MakeQuery();
  // At this tiny scale the default epsilon's stage-3 target is a large
  // fraction of each winner's 15k tuples; relax epsilon so that partial
  // reads are the expected behaviour being tested.
  q.params.epsilon = 0.12;
  auto fast = RunQuery(q, Approach::kFastMatch);
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->stats.engine.rows_read, q.store->num_rows());
}

TEST(ExecutorTest, RunQueryIsDeterministicPerSeed) {
  // Same query, same seed => the same answer and the same I/O, for every
  // approach: no engine thread's timing can change a run.
  BoundQuery q = MakeQuery(5);
  q.params.epsilon = 0.12;  // partial reads, so skipping decisions matter
  for (Approach a : kAll) {
    auto first = RunQuery(q, a);
    auto second = RunQuery(q, a);
    ASSERT_TRUE(first.ok() && second.ok()) << ApproachName(a);
    EXPECT_EQ(first->match.topk, second->match.topk) << ApproachName(a);
    EXPECT_EQ(first->match.distances, second->match.distances)
        << ApproachName(a);
    const CountMatrix& c1 = first->match.counts;
    const CountMatrix& c2 = second->match.counts;
    ASSERT_EQ(c1.num_candidates(), c2.num_candidates());
    for (int i = 0; i < c1.num_candidates(); ++i) {
      EXPECT_EQ(c1.RowTotal(i), c2.RowTotal(i)) << ApproachName(a);
      for (int g = 0; g < c1.num_groups(); ++g) {
        EXPECT_EQ(c1.At(i, g), c2.At(i, g)) << ApproachName(a);
      }
    }
    const EngineStats& s1 = first->stats.engine;
    const EngineStats& s2 = second->stats.engine;
    EXPECT_EQ(s1.blocks_read, s2.blocks_read) << ApproachName(a);
    EXPECT_EQ(s1.blocks_skipped, s2.blocks_skipped) << ApproachName(a);
    EXPECT_EQ(s1.rows_read, s2.rows_read) << ApproachName(a);
    EXPECT_EQ(s1.marker_batches, s2.marker_batches) << ApproachName(a);
  }
}

TEST(ExecutorTest, OversizedCandidateDomainIsRefusedByEveryCountingPath) {
  // Schema cardinality is declarative: six rows may declare a candidate
  // domain past the 2^24 cell bound. The exact count behind Scan must
  // refuse it as the block reader does, before sizing a |VZ| x |VX|
  // matrix (at 2^31 the narrowing to int would make that size negative).
  for (uint32_t vz : {(1u << 24) + 1, 1u << 31}) {
    auto store = ColumnStore::FromColumns(
                     Schema({{"Z", vz}, {"X", 2}}),
                     {{0, 1, 2, 3, 4, 5}, {0, 1, 0, 1, 0, 1}})
                     .value();
    EXPECT_EQ(ComputeExactCounts(*store, 0, {1}).status().code(),
              StatusCode::kInvalidArgument)
        << vz;
    BoundQuery q;
    q.store = store;
    q.z_attr = 0;
    q.x_attrs = {1};
    q.target = UniformDistribution(2);
    for (Approach a : {Approach::kScan, Approach::kScanMatch}) {
      auto out = RunQuery(q, a);
      ASSERT_FALSE(out.ok()) << ApproachName(a) << " " << vz;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << ApproachName(a) << " " << vz << ": " << out.status().ToString();
    }
  }
}

TEST(ExecutorTest, StatsArePopulated) {
  BoundQuery q = MakeQuery();
  auto out = RunQuery(q, Approach::kFastMatch);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->stats.wall_seconds, 0);
  EXPECT_GT(out->stats.engine.blocks_read, 0);
  EXPECT_GT(out->match.diag.stage1_samples, 0);
  EXPECT_GE(out->match.diag.rounds, 1);
}

TEST(ExecutorTest, ValidatesQuery) {
  BoundQuery q = MakeQuery();
  q.store = nullptr;
  EXPECT_FALSE(RunQuery(q, Approach::kScan).ok());

  q = MakeQuery();
  q.target.clear();
  EXPECT_FALSE(RunQuery(q, Approach::kFastMatch).ok());

  q = MakeQuery();
  q.params.epsilon = -1;
  EXPECT_FALSE(RunQuery(q, Approach::kFastMatch).ok());

  // FastMatch without an index must fail, ScanMatch must succeed.
  q = MakeQuery();
  q.z_index = nullptr;
  EXPECT_FALSE(RunQuery(q, Approach::kFastMatch).ok());
  EXPECT_TRUE(RunQuery(q, Approach::kScanMatch).ok());
}

TEST(ExecutorTest, SigmaPruningExcludesRareCandidates) {
  // Candidate 0 is closest to the target but has few rows: with sigma on,
  // no approach may return it.
  std::vector<double> offsets = {0.0, 0.02, 0.04, 0.2, 0.25, 0.3};
  auto dists = PlantedDistributions(6, 8, offsets);
  auto store = MakeExactStore({300, 30000, 30000, 30000, 30000, 30000},
                              dists, 3, 50);
  BoundQuery q;
  q.store = store;
  q.z_index = BitmapIndex::Build(*store, 0).value();
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = UniformDistribution(8);
  q.params.k = 2;
  q.params.epsilon = 0.05;
  q.params.delta = 0.05;
  q.params.sigma = 0.01;  // sigma*N ~ 1503 > 300
  q.params.stage1_samples = 30000;
  for (Approach a : kAll) {
    auto out = RunQuery(q, a);
    ASSERT_TRUE(out.ok()) << ApproachName(a);
    for (int i : out->match.topk) EXPECT_NE(i, 0) << ApproachName(a);
  }
}

}  // namespace
}  // namespace fastmatch
