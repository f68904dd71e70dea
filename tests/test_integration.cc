// Cross-module integration: all nine paper queries (Table 3) at reduced
// scale, all four approaches, checking top-k agreement with ground truth
// and the probabilistic guarantees.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/queries.h"

namespace fastmatch {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 150000;

  static const SyntheticDataset& Dataset(const std::string& name) {
    static std::map<std::string, SyntheticDataset>* cache =
        new std::map<std::string, SyntheticDataset>();
    auto it = cache->find(name);
    if (it == cache->end()) {
      SyntheticDataset ds;
      if (name == "flights") ds = MakeFlightsLike(kRows, 1001);
      if (name == "taxi") ds = MakeTaxiLike(kRows, 1002);
      if (name == "police") ds = MakePoliceLike(kRows, 1003);
      it = cache->emplace(name, std::move(ds)).first;
    }
    return it->second;
  }

  static HistSimParams SmallScaleParams() {
    HistSimParams p;
    p.epsilon = 0.1;       // scaled up: 150k rows instead of 600M
    p.delta = 0.05;
    p.sigma = 0.0008;
    p.stage1_samples = 20000;
    return p;
  }
};

TEST_F(IntegrationTest, AllQueriesAllApproachesSatisfyGuarantees) {
  int violations = 0, runs = 0;
  for (const PaperQuery& spec : PaperQueries()) {
    const auto& ds = Dataset(spec.dataset);
    auto prepared = PrepareQuery(ds, spec, SmallScaleParams(), nullptr);
    ASSERT_TRUE(prepared.ok()) << spec.id << ": "
                               << prepared.status().ToString();
    for (Approach a : {Approach::kScan, Approach::kScanMatch,
                       Approach::kSyncMatch, Approach::kFastMatch}) {
      auto out = RunQuery(prepared->bound, a);
      ASSERT_TRUE(out.ok()) << spec.id << " " << ApproachName(a) << ": "
                            << out.status().ToString();
      EXPECT_EQ(out->match.topk.size(), prepared->truth.topk.size())
          << spec.id << " " << ApproachName(a);
      auto check = CheckGuarantees(out->match, prepared->exact,
                                   prepared->truth, prepared->bound.target,
                                   prepared->bound.params);
      ++runs;
      if (!check.separation_ok || !check.reconstruction_ok) {
        ++violations;
        ADD_FAILURE() << spec.id << " " << ApproachName(a)
                      << " violated guarantees: sep="
                      << check.worst_separation
                      << " rec=" << check.worst_reconstruction;
      }
      // Delta_d is a reporting metric without a guarantee bound; at this
      // reduced scale queries with tiny |VX| have tiny true distances,
      // inflating the *relative* error, so only sanity-check it here.
      // The paper-scale Delta_d reproduction lives in bench_fig9.
      EXPECT_LT(std::abs(check.delta_d), 2.5)
          << spec.id << " " << ApproachName(a);
    }
  }
  // delta = 0.05 per approximate run; zero violations expected in
  // practice (the bound is loose), and the ADD_FAILURE above pinpoints
  // any offender.
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(runs, 36);
}

TEST_F(IntegrationTest, ApproachesAgreeOnWellSeparatedWinners) {
  // flights-q1: the hub cluster gives distinct winners; Scan and
  // FastMatch must agree on a large majority of the top-k (exact
  // agreement is not required: near-ties within epsilon may swap).
  const auto& ds = Dataset("flights");
  auto prepared =
      PrepareQuery(ds, PaperQueries()[0], SmallScaleParams(), nullptr);
  ASSERT_TRUE(prepared.ok());
  auto scan = RunQuery(prepared->bound, Approach::kScan);
  auto fast = RunQuery(prepared->bound, Approach::kFastMatch);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(fast.ok());
  std::set<int> s(scan->match.topk.begin(), scan->match.topk.end());
  int common = 0;
  for (int i : fast->match.topk) common += s.count(i);
  EXPECT_GE(common, static_cast<int>(s.size()) - 3);
}

TEST_F(IntegrationTest, TargetCandidateAlwaysInItsOwnTopK) {
  // The hub target has distance 0 to itself; every approach must return
  // it first.
  const auto& ds = Dataset("flights");
  auto prepared =
      PrepareQuery(ds, PaperQueries()[0], SmallScaleParams(), nullptr);
  ASSERT_TRUE(prepared.ok());
  for (Approach a : {Approach::kScan, Approach::kFastMatch}) {
    auto out = RunQuery(prepared->bound, a);
    ASSERT_TRUE(out.ok());
    ASSERT_FALSE(out->match.topk.empty());
    EXPECT_EQ(out->match.topk[0], static_cast<int>(ds.hub_candidate))
        << ApproachName(a);
  }
}

TEST_F(IntegrationTest, TaxiPrunesHeavyTail) {
  const auto& ds = Dataset("taxi");
  auto prepared =
      PrepareQuery(ds, PaperQueries()[4], SmallScaleParams(), nullptr);
  ASSERT_TRUE(prepared.ok());
  auto out = RunQuery(prepared->bound, Approach::kFastMatch);
  ASSERT_TRUE(out.ok());
  // Thousands of near-empty locations must be pruned in stage 1.
  EXPECT_GT(out->match.diag.pruned_candidates, 3000);
  // And none of the pruned may appear in the output.
  for (int i : out->match.topk) {
    EXPECT_FALSE(out->match.pruned[i]);
  }
}

TEST_F(IntegrationTest, FastMatchReadsFewerRowsThanScanMatchOnTaxi) {
  // Block skipping must pay off when most candidates are pruned early.
  const auto& ds = Dataset("taxi");
  auto prepared =
      PrepareQuery(ds, PaperQueries()[4], SmallScaleParams(), nullptr);
  ASSERT_TRUE(prepared.ok());
  auto fast = RunQuery(prepared->bound, Approach::kFastMatch);
  auto scan_match = RunQuery(prepared->bound, Approach::kScanMatch);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(scan_match.ok());
  EXPECT_LE(fast->stats.engine.rows_read, scan_match->stats.engine.rows_read);
}

TEST_F(IntegrationTest, ResultsAreReproducibleUnderSeed) {
  const auto& ds = Dataset("police");
  auto prepared =
      PrepareQuery(ds, PaperQueries()[6], SmallScaleParams(), nullptr);
  ASSERT_TRUE(prepared.ok());
  prepared->bound.params.seed = 77;
  auto a = RunQuery(prepared->bound, Approach::kScanMatch);
  auto b = RunQuery(prepared->bound, Approach::kScanMatch);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->match.topk, b->match.topk);
  EXPECT_EQ(a->stats.engine.rows_read, b->stats.engine.rows_read);
}

}  // namespace
}  // namespace fastmatch
