#include "engine/sampling_engine.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "engine/scan_kernel.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct EngineFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<BitmapIndex> index;
  CountMatrix exact;
};

EngineFixture MakeFixture(std::vector<int64_t> counts, int vx, uint64_t seed,
                          int rows_per_block = 50,
                          double offset_step = 0.02) {
  EngineFixture f;
  std::vector<double> offsets(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = offset_step * static_cast<double>(i);
  }
  f.store = MakeExactStore(counts, PlantedDistributions(
                                       static_cast<int>(counts.size()), vx,
                                       offsets),
                           seed, rows_per_block);
  f.index = BitmapIndex::Build(*f.store, 0).value();
  f.exact = ComputeExactCounts(*f.store, 0, {1}).value();
  return f;
}

std::unique_ptr<SamplingEngine> MakeEngine(const EngineFixture& f,
                                           BlockSelection policy,
                                           uint64_t seed = 7,
                                           int lookahead = 16) {
  EngineOptions options;
  options.policy = policy;
  options.lookahead = lookahead;
  options.seed = seed;
  return SamplingEngine::Create(f.store, f.index, 0, {1}, options).value();
}

constexpr BlockSelection kAllPolicies[] = {
    BlockSelection::kScanAll, BlockSelection::kAnyActiveSync,
    BlockSelection::kAnyActiveLookahead};

TEST(SamplingEngineTest, CreateValidation) {
  auto f = MakeFixture({1000, 1000}, 4, 1);
  EngineOptions options;
  options.policy = BlockSelection::kAnyActiveLookahead;
  // Missing index.
  EXPECT_FALSE(SamplingEngine::Create(f.store, nullptr, 0, {1}, options).ok());
  // Index built for the wrong attribute.
  auto x_index = BitmapIndex::Build(*f.store, 1).value();
  EXPECT_FALSE(SamplingEngine::Create(f.store, x_index, 0, {1}, options).ok());
  // ScanAll works without an index.
  options.policy = BlockSelection::kScanAll;
  EXPECT_TRUE(SamplingEngine::Create(f.store, nullptr, 0, {1}, options).ok());
  // Bad lookahead.
  options.policy = BlockSelection::kAnyActiveLookahead;
  options.lookahead = 0;
  EXPECT_FALSE(SamplingEngine::Create(f.store, f.index, 0, {1}, options).ok());
}

TEST(SamplingEngineTest, SampleRowsBlockRounded) {
  auto f = MakeFixture({5000, 5000}, 4, 2);
  auto engine = MakeEngine(f, BlockSelection::kScanAll);
  CountMatrix out(2, 4);
  const int64_t drawn = engine->SampleRows(1000, &out);
  // Reads whole blocks of 50 rows: overshoot < one block.
  EXPECT_GE(drawn, 1000);
  EXPECT_LT(drawn, 1050);
  EXPECT_EQ(out.RowTotal(0) + out.RowTotal(1), drawn);
  EXPECT_EQ(engine->rows_consumed(), drawn);
}

TEST(SamplingEngineTest, FullConsumptionIsExact) {
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({3000, 2000, 1000}, 4, 3);
    auto engine = MakeEngine(f, policy);
    CountMatrix out(3, 4);
    engine->SampleRows(1000000, &out);
    EXPECT_TRUE(engine->AllConsumed());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(out.RowTotal(i), f.exact.RowTotal(i));
      for (int g = 0; g < 4; ++g) {
        EXPECT_EQ(out.At(i, g), f.exact.At(i, g));
      }
    }
  }
}

TEST(SamplingEngineTest, SampleUntilTargetsMeetsTargetsAllPolicies) {
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({20000, 20000, 20000, 20000}, 4, 4);
    auto engine = MakeEngine(f, policy);
    CountMatrix out(4, 4);
    std::vector<bool> exhausted(4, false);
    const std::vector<int64_t> targets = {500, -1, 2000, 100};
    engine->SampleUntilTargets(targets, &out, &exhausted);
    EXPECT_GE(out.RowTotal(0), 500) << "policy " << static_cast<int>(policy);
    EXPECT_GE(out.RowTotal(2), 2000);
    EXPECT_GE(out.RowTotal(3), 100);
    EXPECT_FALSE(exhausted[0]);
  }
}

TEST(SamplingEngineTest, WithoutReplacementAcrossPhases) {
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({8000, 8000}, 4, 5);
    auto engine = MakeEngine(f, policy);
    CountMatrix total(2, 4);
    engine->SampleRows(2000, &total);
    CountMatrix round(2, 4);
    std::vector<bool> exhausted(2, false);
    engine->SampleUntilTargets({3000, 3000}, &round, &exhausted);
    total.Merge(round);
    round.Reset();
    engine->SampleUntilTargets({100000, 100000}, &round, &exhausted);
    total.Merge(round);
    // Everything consumed exactly once: totals equal the exact counts.
    EXPECT_TRUE(engine->AllConsumed());
    EXPECT_TRUE(exhausted[0]);
    EXPECT_TRUE(exhausted[1]);
    for (int i = 0; i < 2; ++i) {
      for (int g = 0; g < 4; ++g) {
        EXPECT_EQ(total.At(i, g), f.exact.At(i, g))
            << "policy " << static_cast<int>(policy);
      }
    }
  }
}

TEST(SamplingEngineTest, ExhaustionOnImpossibleTarget) {
  struct Case {
    EngineFixture f;
    std::vector<int64_t> targets;
  };
  std::vector<Case> cases;
  // Candidate 0 has 500 rows; demand 10000 of it only.
  cases.push_back({MakeFixture({500, 50000}, 4, 6), {10000, -1}});
  // Past the AVX2 kernel's stack tally (|VZ| = kScanTallyMaxCandidates
  // + 1, so reads take the scalar kernel): demand more of every
  // candidate than exists.
  const int wide = kScanTallyMaxCandidates + 1;
  std::vector<int64_t> wide_counts(static_cast<size_t>(wide));
  for (int i = 0; i < wide; ++i) {
    wide_counts[static_cast<size_t>(i)] = 5 + i % 20;
  }
  cases.push_back({MakeFixture(wide_counts, 4, 17, 50, 0.0005),
                   std::vector<int64_t>(static_cast<size_t>(wide), 1000)});
  for (const Case& c : cases) {
    const int vz = c.f.exact.num_candidates();
    for (BlockSelection policy : kAllPolicies) {
      SCOPED_TRACE("vz " + std::to_string(vz) + " policy " +
                   std::to_string(static_cast<int>(policy)));
      auto engine = MakeEngine(c.f, policy);
      CountMatrix out(vz, 4);
      std::vector<bool> exhausted(static_cast<size_t>(vz), false);
      engine->SampleUntilTargets(c.targets, &out, &exhausted);
      for (int i = 0; i < vz; ++i) {
        if (c.targets[static_cast<size_t>(i)] < 0) continue;
        ASSERT_TRUE(exhausted[static_cast<size_t>(i)]) << "candidate " << i;
        ASSERT_EQ(out.RowTotal(i), c.f.exact.RowTotal(i)) << "candidate " << i;
        for (int g = 0; g < 4; ++g) {
          ASSERT_EQ(out.At(i, g), c.f.exact.At(i, g)) << "candidate " << i;
        }
      }
    }
  }
}

TEST(SamplingEngineTest, AnyActiveSkipsBlocksForLocalizedCandidates) {
  // Unshuffled data: candidate 0 in the first half of blocks only,
  // candidate 1 in the second half. Targeting only candidate 1 must not
  // read most candidate-0-only blocks.
  std::vector<Value> z, x;
  for (int i = 0; i < 5000; ++i) z.push_back(0), x.push_back(0);
  for (int i = 0; i < 5000; ++i) z.push_back(1), x.push_back(1);
  StorageOptions opt;
  opt.rows_per_block_override = 50;
  auto store = ColumnStore::FromColumns(Schema({{"Z", 2}, {"X", 4}}),
                                        {std::move(z), std::move(x)}, opt)
                   .value();
  auto index = BitmapIndex::Build(*store, 0).value();

  for (BlockSelection policy : {BlockSelection::kAnyActiveSync,
                                BlockSelection::kAnyActiveLookahead}) {
    EngineOptions options;
    options.policy = policy;
    options.lookahead = 8;
    options.seed = 9;
    auto engine =
        SamplingEngine::Create(store, index, 0, {1}, options).value();
    CountMatrix out(2, 4);
    std::vector<bool> exhausted(2, false);
    engine->SampleUntilTargets({-1, 2000}, &out, &exhausted);
    EXPECT_GE(out.RowTotal(1), 2000);
    // Candidate-0-only blocks must be skipped, not read: at most a
    // handful of stray reads from batch granularity.
    EXPECT_EQ(out.RowTotal(0), 0) << "policy " << static_cast<int>(policy);
    EXPECT_GT(engine->stats().blocks_skipped, 0);
  }
}

TEST(SamplingEngineTest, ScanAllNeverSkips) {
  auto f = MakeFixture({5000, 5000}, 4, 7);
  auto engine = MakeEngine(f, BlockSelection::kScanAll);
  CountMatrix out(2, 4);
  std::vector<bool> exhausted(2, false);
  engine->SampleUntilTargets({1000, 1000}, &out, &exhausted);
  EXPECT_EQ(engine->stats().blocks_skipped, 0);
}

TEST(SamplingEngineTest, DeterministicAcrossRuns) {
  // Same seed, same calls => same samples and accounting, for every
  // policy: stage 1, then two targeted phases.
  auto f = MakeFixture({10000, 10000, 3000}, 4, 8);
  for (BlockSelection policy : kAllPolicies) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    struct Run {
      CountMatrix out{3, 4};
      std::vector<bool> exhausted = std::vector<bool>(3, false);
      EngineStats stats;
      int64_t rows_consumed = 0;
    };
    Run runs[2];
    for (Run& run : runs) {
      auto engine = MakeEngine(f, policy, 33);
      engine->SampleRows(3000, &run.out);
      engine->SampleUntilTargets({2000, -1, 1500}, &run.out, &run.exhausted);
      engine->SampleUntilTargets({500, 4000, 100000}, &run.out,
                                 &run.exhausted);
      run.stats = engine->stats();
      run.rows_consumed = engine->rows_consumed();
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(runs[0].out.RowTotal(i), runs[1].out.RowTotal(i));
      for (int g = 0; g < 4; ++g) {
        EXPECT_EQ(runs[0].out.At(i, g), runs[1].out.At(i, g));
      }
    }
    EXPECT_EQ(runs[0].exhausted, runs[1].exhausted);
    EXPECT_EQ(runs[0].stats.blocks_read, runs[1].stats.blocks_read);
    EXPECT_EQ(runs[0].stats.blocks_skipped, runs[1].stats.blocks_skipped);
    EXPECT_EQ(runs[0].stats.rows_read, runs[1].stats.rows_read);
    EXPECT_EQ(runs[0].stats.marker_batches, runs[1].stats.marker_batches);
    EXPECT_EQ(runs[0].rows_consumed, runs[1].rows_consumed);
  }
}

TEST(SamplingEngineTest, DifferentSeedsStartAtDifferentBlocks) {
  auto f = MakeFixture({10000, 10000}, 4, 9);
  CountMatrix o1(2, 4), o2(2, 4);
  MakeEngine(f, BlockSelection::kScanAll, 1)->SampleRows(500, &o1);
  MakeEngine(f, BlockSelection::kScanAll, 2)->SampleRows(500, &o2);
  bool differs = false;
  for (int i = 0; i < 2 && !differs; ++i) {
    for (int g = 0; g < 4; ++g) {
      if (o1.At(i, g) != o2.At(i, g)) differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(SamplingEngineTest, SamplesAreUniformPerCandidate) {
  // Engine samples whole blocks of shuffled data; each candidate's
  // conditional X distribution in the sample must match its true one.
  auto f = MakeFixture({40000, 40000}, 4, 10);
  auto engine = MakeEngine(f, BlockSelection::kScanAll, 11);
  CountMatrix out(2, 4);
  engine->SampleRows(10000, &out);
  for (int i = 0; i < 2; ++i) {
    const Distribution est = out.NormalizedRow(i);
    const Distribution tru = f.exact.NormalizedRow(i);
    EXPECT_LT(L1Distance(est, tru), 0.06) << "candidate " << i;
  }
}

TEST(SamplingEngineTest, SampleUntilTargetsCountsOnlyFreshSamplesPerCall) {
  // Regression (same bug as RowSampler): a call's fresh counts start at
  // zero, not at out->RowTotal, when the caller reuses one matrix across
  // rounds.
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({20000, 20000}, 4, 12);
    auto engine = MakeEngine(f, policy);
    CountMatrix out(2, 4);
    std::vector<bool> exhausted(2, false);
    engine->SampleUntilTargets({500, -1}, &out, &exhausted);
    const int64_t after_first = out.RowTotal(0);
    EXPECT_GE(after_first, 500) << "policy " << static_cast<int>(policy);
    engine->SampleUntilTargets({500, -1}, &out, &exhausted);
    EXPECT_GE(out.RowTotal(0), after_first + 500)
        << "policy " << static_cast<int>(policy);
  }
}

// ------------------------------------------------ degenerate stores

TEST(SamplingEngineTest, EmptyStoreRejected) {
  auto store = std::make_shared<ColumnStore>(Schema({{"Z", 2}, {"X", 4}}));
  EngineOptions options;
  options.policy = BlockSelection::kScanAll;
  auto result = SamplingEngine::Create(store, nullptr, 0, {1}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SamplingEngineTest, SingleBlockStoreAllPolicies) {
  // The whole relation fits one (short) block: every policy must consume
  // it in one read and account for it exactly once.
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({60, 40}, 4, 13, /*rows_per_block=*/128);
    ASSERT_EQ(f.store->num_blocks(), 1);
    auto engine = MakeEngine(f, policy);
    CountMatrix out(2, 4);
    EXPECT_EQ(engine->SampleRows(10, &out), 100);  // block granularity
    EXPECT_TRUE(engine->AllConsumed());
    EXPECT_EQ(engine->stats().blocks_read, 1);
    EXPECT_EQ(engine->stats().rows_read, 100);
    // Every further demand resolves by exhaustion without re-reading.
    std::vector<bool> exhausted(2, false);
    engine->SampleUntilTargets({1000, 1000}, &out, &exhausted);
    EXPECT_TRUE(exhausted[0]);
    EXPECT_TRUE(exhausted[1]);
    EXPECT_EQ(engine->stats().blocks_read, 1)
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(engine->rows_consumed(), 100);
  }
}

TEST(SamplingEngineTest, SingleBlockImpossibleTargetExhausts) {
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({60, 40}, 4, 14, /*rows_per_block=*/128);
    auto engine = MakeEngine(f, policy);
    CountMatrix out(2, 4);
    std::vector<bool> exhausted(2, false);
    engine->SampleUntilTargets({1000, -1}, &out, &exhausted);
    EXPECT_TRUE(exhausted[0]) << "policy " << static_cast<int>(policy);
    EXPECT_EQ(out.RowTotal(0), 60);
    EXPECT_TRUE(engine->AllConsumed());
    EXPECT_EQ(engine->stats().blocks_read, 1);
    EXPECT_EQ(engine->stats().rows_read, engine->rows_consumed());
  }
}

TEST(SamplingEngineTest, StatsConsistentOnFullConsumption) {
  // Without-replacement invariant on the counters: at full consumption
  // every block was read exactly once and rows_read equals the relation.
  for (BlockSelection policy : kAllPolicies) {
    auto f = MakeFixture({3000, 2000}, 4, 15);
    auto engine = MakeEngine(f, policy);
    CountMatrix out(2, 4);
    std::vector<bool> exhausted(2, false);
    engine->SampleUntilTargets({100000, 100000}, &out, &exhausted);
    EXPECT_TRUE(engine->AllConsumed());
    EXPECT_EQ(engine->stats().blocks_read, f.store->num_blocks())
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(engine->stats().rows_read, f.store->num_rows());
    EXPECT_EQ(engine->rows_consumed(), f.store->num_rows());
  }
}

TEST(SamplingEngineTest, AllCandidatesPrunedSurfacesErrorWithSaneStats) {
  // Degenerate query shape: sigma prunes everyone. HistSim fails with
  // FailedPrecondition and the engine's accounting stays consistent.
  auto f = MakeFixture({500, 500, 500}, 4, 16);
  auto engine = MakeEngine(f, BlockSelection::kAnyActiveLookahead);
  HistSimParams p;
  p.k = 1;
  p.epsilon = 0.1;
  p.delta = 0.05;
  p.sigma = 0.9;
  p.stage1_samples = 2000;  // consumes everything: exact pruning path
  HistSim histsim(p, UniformDistribution(4));
  auto result = histsim.Run(engine.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->stats().rows_read, engine->rows_consumed());
  EXPECT_GT(engine->stats().blocks_read, 0);
  EXPECT_TRUE(engine->AllConsumed());
}

TEST(SamplingEngineTest, LookaheadSizesAgree) {
  // The lookahead batch size must not change which samples are valid:
  // all sizes must meet targets and stay without-replacement.
  auto f = MakeFixture({20000, 20000, 20000}, 4, 11);
  for (int lookahead : {1, 2, 16, 128, 4096}) {
    auto engine =
        MakeEngine(f, BlockSelection::kAnyActiveLookahead, 13, lookahead);
    CountMatrix out(3, 4);
    std::vector<bool> exhausted(3, false);
    engine->SampleUntilTargets({3000, 3000, 3000}, &out, &exhausted);
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(out.RowTotal(i), 3000) << "lookahead " << lookahead;
    }
    EXPECT_LE(engine->rows_consumed(), f.store->num_rows());
  }
}

}  // namespace
}  // namespace fastmatch
