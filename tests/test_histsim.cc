// End-to-end tests of the HistSim algorithm over the reference RowSampler,
// validating the statistics layer independent of the block engine.

#include "core/histsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "row_sampler.h"
#include "core/verify.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

/// Planted scenario: 12 candidates at staggered l1 distances ~2*offset
/// from the uniform target; offsets well separated so the true top-k is
/// unambiguous.
struct Scenario {
  std::shared_ptr<ColumnStore> store;
  Distribution target;
  std::vector<double> offsets;
  CountMatrix exact;
};

Scenario MakeScenario(int64_t rows_per_candidate, uint64_t seed) {
  Scenario s;
  s.offsets = {0.0, 0.01, 0.02, 0.06, 0.09, 0.12,
               0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
  auto dists = PlantedDistributions(12, 8, s.offsets);
  std::vector<int64_t> counts(12, rows_per_candidate);
  s.store = MakeExactStore(counts, dists, seed);
  s.target = UniformDistribution(8);
  s.exact = ComputeExactCounts(*s.store, 0, {1}).value();
  return s;
}

HistSimParams TestParams() {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;  // no pruning in the basic scenario
  p.stage1_samples = 3000;
  p.seed = 42;
  return p;
}

TEST(HistSimTest, FindsWellSeparatedTopK) {
  Scenario s = MakeScenario(20000, 1);
  HistSimParams p = TestParams();
  auto sampler = RowSampler::Create(s.store, 0, {1}, 7).value();
  HistSim histsim(p, s.target);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // True top-3 = candidates 0, 1, 2 (offsets 0, 0.01, 0.02 vs next 0.06:
  // gap 0.08 > epsilon).
  std::set<int> got(result->topk.begin(), result->topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(HistSimTest, DistancesSortedAscending) {
  Scenario s = MakeScenario(20000, 2);
  auto sampler = RowSampler::Create(s.store, 0, {1}, 11).value();
  HistSim histsim(TestParams(), s.target);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->topk_distances.size(); ++i) {
    EXPECT_LE(result->topk_distances[i - 1], result->topk_distances[i]);
  }
}

TEST(HistSimTest, GuaranteesHoldAcrossSeeds) {
  Scenario s = MakeScenario(20000, 3);
  HistSimParams p = TestParams();
  GroundTruth truth =
      ComputeGroundTruth(s.exact, s.target, p.metric, p.sigma, p.k);
  int g1_violations = 0, g2_violations = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    auto sampler = RowSampler::Create(s.store, 0, {1}, seed).value();
    p.seed = seed;
    HistSim histsim(p, s.target);
    auto result = histsim.Run(sampler.get());
    ASSERT_TRUE(result.ok());
    auto check = CheckGuarantees(*result, s.exact, truth, s.target, p);
    g1_violations += !check.separation_ok;
    g2_violations += !check.reconstruction_ok;
  }
  // delta = 0.05 per run; 12 runs with zero tolerance would be flaky by
  // design, but the bound is loose in practice: allow at most 1.
  EXPECT_LE(g1_violations, 1);
  EXPECT_LE(g2_violations, 1);
}

TEST(HistSimTest, ReconstructionMeetsEpsilon) {
  Scenario s = MakeScenario(30000, 4);
  HistSimParams p = TestParams();
  auto sampler = RowSampler::Create(s.store, 0, {1}, 13).value();
  HistSim histsim(p, s.target);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  for (int i : result->topk) {
    const double err = HistDistance(p.metric, result->counts.NormalizedRow(i),
                                    s.exact.NormalizedRow(i));
    EXPECT_LT(err, p.epsilon) << "candidate " << i;
  }
}

TEST(HistSimTest, Stage1PrunesRareCandidates) {
  // One candidate with far fewer rows than sigma*N.
  std::vector<int64_t> counts = {50, 40000, 40000, 40000};
  auto dists = PlantedDistributions(4, 8, {0.0, 0.05, 0.1, 0.15});
  auto store = MakeExactStore(counts, dists, 5);
  HistSimParams p = TestParams();
  p.k = 2;
  p.sigma = 0.01;  // sigma*N ~ 1200 >> 50
  p.stage1_samples = 20000;
  auto sampler = RowSampler::Create(store, 0, {1}, 17).value();
  HistSim histsim(p, UniformDistribution(8));
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->pruned[0]);
  EXPECT_FALSE(result->pruned[1]);
  EXPECT_EQ(result->diag.pruned_candidates, 1);
  // The rare candidate (closest to target!) must not be in the output.
  EXPECT_EQ(std::count(result->topk.begin(), result->topk.end(), 0), 0);
}

TEST(HistSimTest, Stage1KeepsFrequentCandidatesWithHighProbability) {
  std::vector<int64_t> counts(6, 20000);
  auto store = MakeExactStore(
      counts, PlantedDistributions(6, 8, {0, 0.05, 0.1, 0.15, 0.2, 0.25}), 6);
  HistSimParams p = TestParams();
  p.sigma = 0.0008;  // everyone is far above threshold
  p.stage1_samples = 5000;
  auto sampler = RowSampler::Create(store, 0, {1}, 19).value();
  HistSim histsim(p, UniformDistribution(8));
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->diag.pruned_candidates, 0);
}

TEST(HistSimTest, ExhaustionYieldsExactResults) {
  // Tiny dataset: every stage exhausts the data; output must equal truth.
  std::vector<int64_t> counts = {200, 200, 200, 200, 200};
  auto dists = PlantedDistributions(5, 4, {0.0, 0.08, 0.16, 0.24, 0.3});
  auto store = MakeExactStore(counts, dists, 7);
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  HistSimParams p = TestParams();
  p.k = 2;
  p.sigma = 0;
  p.stage1_samples = 100;
  auto sampler = RowSampler::Create(store, 0, {1}, 23).value();
  HistSim histsim(p, UniformDistribution(4));
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->diag.data_exhausted);
  std::set<int> got(result->topk.begin(), result->topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1}));
  // Exhausted counts are exact.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(result->exact[i]);
    EXPECT_EQ(result->counts.RowTotal(i), 200);
  }
}

TEST(HistSimTest, KLargerThanCandidateCount) {
  std::vector<int64_t> counts = {5000, 5000, 5000};
  auto store =
      MakeExactStore(counts, PlantedDistributions(3, 4, {0, 0.1, 0.2}), 8);
  HistSimParams p = TestParams();
  p.k = 10;
  p.sigma = 0;
  auto sampler = RowSampler::Create(store, 0, {1}, 29).value();
  HistSim histsim(p, UniformDistribution(4));
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  // All three candidates returned.
  EXPECT_EQ(result->topk.size(), 3u);
}

TEST(HistSimTest, InvalidParamsRejected) {
  Scenario s = MakeScenario(1000, 9);
  auto sampler = RowSampler::Create(s.store, 0, {1}, 31).value();
  HistSimParams p = TestParams();
  p.epsilon = 0;
  EXPECT_FALSE(HistSim(p, s.target).Run(sampler.get()).ok());
  p = TestParams();
  p.delta = 1.5;
  EXPECT_FALSE(HistSim(p, s.target).Run(sampler.get()).ok());
  p = TestParams();
  p.k = 0;
  EXPECT_FALSE(HistSim(p, s.target).Run(sampler.get()).ok());
}

TEST(HistSimTest, NullSamplerRejected) {
  Scenario s = MakeScenario(1000, 10);
  HistSim histsim(TestParams(), s.target);
  EXPECT_EQ(histsim.Run(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HistSimTest, WrongTargetSizeRejected) {
  Scenario s = MakeScenario(1000, 11);
  auto sampler = RowSampler::Create(s.store, 0, {1}, 37).value();
  HistSim histsim(TestParams(), UniformDistribution(5));  // |VX| is 8
  EXPECT_FALSE(histsim.Run(sampler.get()).ok());
}

TEST(HistSimTest, SeparateEpsilonsForGuarantees) {
  // Appendix A.2.1: tighter reconstruction than separation.
  Scenario s = MakeScenario(30000, 12);
  HistSimParams p = TestParams();
  p.eps_separation = 0.1;
  p.eps_reconstruction = 0.03;
  auto sampler = RowSampler::Create(s.store, 0, {1}, 41).value();
  HistSim histsim(p, s.target);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  for (int i : result->topk) {
    const double err = HistDistance(p.metric, result->counts.NormalizedRow(i),
                                    s.exact.NormalizedRow(i));
    EXPECT_LT(err, 0.03);
  }
}

TEST(HistSimTest, KRangeExtensionPicksWideGap) {
  // Appendix A.2.3: offsets have a conspicuous gap after the 5th
  // candidate; with k in [2, 6], HistSim should choose the boundary with
  // the widest gap.
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.03, 0.04,
                                 0.30, 0.32, 0.34, 0.36, 0.38};
  auto dists = PlantedDistributions(10, 8, offsets);
  auto store = MakeExactStore(std::vector<int64_t>(10, 20000), dists, 13);
  HistSimParams p = TestParams();
  p.k = 2;
  p.k_hi = 6;
  auto sampler = RowSampler::Create(store, 0, {1}, 43).value();
  HistSim histsim(p, UniformDistribution(8));
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->diag.chosen_k, 5);
  EXPECT_EQ(result->topk.size(), 5u);
}

TEST(HistSimTest, L2MetricSupported) {
  Scenario s = MakeScenario(20000, 14);
  HistSimParams p = TestParams();
  p.metric = Metric::kL2;
  // The target was resolved under l1 but is a plain distribution; re-use.
  auto sampler = RowSampler::Create(s.store, 0, {1}, 47).value();
  HistSim histsim(p, s.target);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  std::set<int> got(result->topk.begin(), result->topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(HistSimTest, TinyEpsilonRejectedInsteadOfOverflowing) {
  // eps = 1e-12 pushes the sample-size formulas past int64: the machine
  // must reject the parameters instead of running on saturated targets.
  Scenario s = MakeScenario(1000, 16);
  auto sampler = RowSampler::Create(s.store, 0, {1}, 59).value();
  HistSimParams p = TestParams();
  p.epsilon = 1e-12;
  auto result = HistSim(p, s.target).Run(sampler.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------ machine protocol

TEST(HistSimMachineTest, DrivesToCompletionViaDemands) {
  Scenario s = MakeScenario(20000, 17);
  auto sampler = RowSampler::Create(s.store, 0, {1}, 61).value();
  HistSimMachine machine(TestParams(), s.target);
  ASSERT_TRUE(machine.Begin(sampler->num_candidates(), sampler->num_groups(),
                            sampler->total_rows())
                  .ok());
  EXPECT_EQ(machine.demand().kind, SampleDemand::Kind::kRows);
  int phases = 0;
  // Every Supply passes the whole sample so far (the pooled contract).
  CountMatrix pooled(12, 8);
  while (!machine.done()) {
    ASSERT_LT(phases++, 100) << "machine does not converge";
    const SampleDemand& demand = machine.demand();
    std::vector<bool> exhausted(12, false);
    if (demand.kind == SampleDemand::Kind::kRows) {
      sampler->SampleRows(demand.rows, &pooled);
    } else {
      sampler->SampleUntilTargets(demand.targets, &pooled, &exhausted);
    }
    ASSERT_TRUE(machine
                    .Supply(pooled, exhausted, sampler->AllConsumed(),
                            sampler->rows_consumed())
                    .ok());
  }
  MatchResult result = machine.TakeResult();
  std::set<int> got(result.topk.begin(), result.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(HistSimMachineTest, ManualDriveMatchesRunDriver) {
  // Driving the machine by hand must be byte-equivalent to HistSim::Run
  // over an identically-seeded sampler (the driver is a thin loop).
  Scenario s = MakeScenario(20000, 18);
  HistSimParams p = TestParams();
  auto s1 = RowSampler::Create(s.store, 0, {1}, 67).value();
  auto s2 = RowSampler::Create(s.store, 0, {1}, 67).value();

  auto run_result = HistSim(p, s.target).Run(s1.get());
  ASSERT_TRUE(run_result.ok());

  HistSimMachine machine(p, s.target);
  ASSERT_TRUE(machine.Begin(s2->num_candidates(), s2->num_groups(),
                            s2->total_rows())
                  .ok());
  CountMatrix pooled(12, 8);
  while (!machine.done()) {
    const SampleDemand& demand = machine.demand();
    std::vector<bool> exhausted(12, false);
    if (demand.kind == SampleDemand::Kind::kRows) {
      s2->SampleRows(demand.rows, &pooled);
    } else {
      s2->SampleUntilTargets(demand.targets, &pooled, &exhausted);
    }
    ASSERT_TRUE(machine
                    .Supply(pooled, exhausted, s2->AllConsumed(),
                            s2->rows_consumed())
                    .ok());
  }
  MatchResult manual = machine.TakeResult();
  EXPECT_EQ(manual.topk, run_result->topk);
  for (int i = 0; i < 12; ++i) {
    for (int g = 0; g < 8; ++g) {
      ASSERT_EQ(manual.counts.At(i, g), run_result->counts.At(i, g));
    }
  }
}

TEST(HistSimMachineTest, BeginRejectsProtocolViolations) {
  Scenario s = MakeScenario(1000, 19);
  HistSimMachine machine(TestParams(), s.target);
  ASSERT_TRUE(machine.Begin(12, 8, s.store->num_rows()).ok());
  // Begin twice is a protocol error.
  EXPECT_EQ(machine.Begin(12, 8, s.store->num_rows()).code(),
            StatusCode::kFailedPrecondition);
  // Empty domain / empty relation are rejected up front.
  HistSimMachine m2(TestParams(), s.target);
  EXPECT_FALSE(m2.Begin(0, 8, 100).ok());
  HistSimMachine m3(TestParams(), s.target);
  EXPECT_EQ(m3.Begin(12, 8, 0).code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- warm stage-1 starts
// Begin(..., Stage1Prior): the machine advances past stage 1 on a prior
// sample. The contract is equivalence: a warm Begin must be
// indistinguishable from a cold Begin followed by a Supply of the same
// sample.

TEST(HistSimMachineTest, WarmBeginMatchesColdSupplyBitForBit) {
  Scenario s = MakeScenario(20000, 21);
  HistSimParams p = TestParams();
  auto s1 = RowSampler::Create(s.store, 0, {1}, 71).value();
  auto s2 = RowSampler::Create(s.store, 0, {1}, 71).value();

  // Cold: Begin, then satisfy the stage-1 demand from the sampler.
  HistSimMachine cold(p, s.target);
  ASSERT_TRUE(cold.Begin(12, 8, s.store->num_rows()).ok());
  ASSERT_EQ(cold.demand().kind, SampleDemand::Kind::kRows);
  CountMatrix stage1(12, 8);
  const int64_t drawn = s1->SampleRows(cold.demand().rows, &stage1);
  ASSERT_TRUE(cold.Supply(stage1, std::vector<bool>(12, false),
                          s1->AllConsumed(), drawn)
                  .ok());

  // Warm: the identical stage-1 sample handed to Begin as a prior (s2
  // shares s1's seed, so the two machines' sample streams line up).
  CountMatrix stage1_again(12, 8);
  const int64_t drawn_again = s2->SampleRows(p.stage1_samples, &stage1_again);
  ASSERT_EQ(drawn_again, drawn);
  Stage1Prior prior;
  prior.counts = &stage1_again;
  prior.rows_drawn = drawn_again;
  HistSimMachine warm(p, s.target);
  ASSERT_TRUE(warm.Begin(12, 8, s.store->num_rows(), &prior).ok());

  // From here both machines must issue identical demands and, fed
  // identical streams, produce identical results.
  int phases = 0;
  while (!cold.done() && !warm.done()) {
    ASSERT_LT(phases++, 100) << "machines do not converge";
    ASSERT_EQ(cold.demand().kind, warm.demand().kind);
    ASSERT_EQ(cold.demand().rows, warm.demand().rows);
    ASSERT_EQ(cold.demand().targets, warm.demand().targets);
    for (RowSampler* sampler : {s1.get(), s2.get()}) {
      // Each machine's pool starts at its stage-1 sample.
      HistSimMachine& machine = sampler == s1.get() ? cold : warm;
      CountMatrix& pooled = sampler == s1.get() ? stage1 : stage1_again;
      std::vector<bool> exhausted(12, false);
      sampler->SampleUntilTargets(machine.demand().targets, &pooled,
                                  &exhausted);
      ASSERT_TRUE(machine
                      .Supply(pooled, exhausted, sampler->AllConsumed(),
                              sampler->rows_consumed())
                      .ok());
    }
  }
  ASSERT_TRUE(cold.done());
  ASSERT_TRUE(warm.done());
  MatchResult cold_result = cold.TakeResult();
  MatchResult warm_result = warm.TakeResult();
  EXPECT_EQ(warm_result.topk, cold_result.topk);
  EXPECT_EQ(warm_result.distances, cold_result.distances);
  EXPECT_EQ(warm_result.exact, cold_result.exact);
  for (int i = 0; i < 12; ++i) {
    for (int g = 0; g < 8; ++g) {
      ASSERT_EQ(warm_result.counts.At(i, g), cold_result.counts.At(i, g));
    }
  }
  EXPECT_FALSE(cold_result.diag.stage1_warm);
  EXPECT_TRUE(warm_result.diag.stage1_warm);
  EXPECT_EQ(warm_result.diag.stage1_samples, cold_result.diag.stage1_samples);
}

TEST(HistSimMachineTest, WarmBeginValidation) {
  Scenario s = MakeScenario(1000, 22);
  CountMatrix counts(12, 8);

  // Missing counts.
  {
    Stage1Prior prior;
    prior.rows_drawn = 100;
    HistSimMachine machine(TestParams(), s.target);
    EXPECT_EQ(machine.Begin(12, 8, s.store->num_rows(), &prior).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(machine.failed());
  }
  // Non-positive row count.
  {
    Stage1Prior prior;
    prior.counts = &counts;
    prior.rows_drawn = 0;
    HistSimMachine machine(TestParams(), s.target);
    EXPECT_EQ(machine.Begin(12, 8, s.store->num_rows(), &prior).code(),
              StatusCode::kInvalidArgument);
  }
  // Domain mismatch.
  {
    CountMatrix wrong(5, 8);
    Stage1Prior prior;
    prior.counts = &wrong;
    prior.rows_drawn = 100;
    HistSimMachine machine(TestParams(), s.target);
    EXPECT_EQ(machine.Begin(12, 8, s.store->num_rows(), &prior).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(HistSimMachineTest, WarmBeginAllConsumedCompletesInstantly) {
  // A prior covering the whole relation carries exact counts: the
  // machine must finish at Begin with the ground-truth result, never
  // issuing a demand.
  Scenario s = MakeScenario(500, 23);
  Stage1Prior prior;
  prior.counts = &s.exact;
  prior.rows_drawn = s.store->num_rows();
  HistSimMachine machine(TestParams(), s.target);
  ASSERT_TRUE(machine.Begin(12, 8, s.store->num_rows(), &prior).ok());
  ASSERT_TRUE(machine.done());
  EXPECT_EQ(machine.demand().kind, SampleDemand::Kind::kNone);
  MatchResult result = machine.TakeResult();
  std::set<int> got(result.topk.begin(), result.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  EXPECT_TRUE(result.diag.data_exhausted);
  EXPECT_TRUE(result.diag.stage1_warm);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(result.exact[i]);
    EXPECT_EQ(result.counts.RowTotal(i), s.exact.RowTotal(i));
  }
}

TEST(HistSimTest, DiagnosticsArePopulated) {
  Scenario s = MakeScenario(20000, 15);
  auto sampler = RowSampler::Create(s.store, 0, {1}, 53).value();
  HistSimParams p = TestParams();
  HistSim histsim(p, s.target);
  auto result = histsim.Run(sampler.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->diag.stage1_samples, p.stage1_samples);
  EXPECT_GE(result->diag.rounds, 1);
  EXPECT_GT(result->diag.stage2_samples, 0);
  EXPECT_EQ(result->diag.chosen_k, 3);
}

}  // namespace
}  // namespace fastmatch
