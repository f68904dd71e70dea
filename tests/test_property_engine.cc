// Parameterized property sweeps of the sampling engine: across policies,
// lookahead values and block sizes, the engine must (a) meet every
// requested target or prove exhaustion, (b) never read a row twice, and
// (c) reproduce the exact histograms on full consumption.

#include <gtest/gtest.h>

#include "core/verify.h"
#include "engine/sampling_engine.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct EngineCase {
  BlockSelection policy;
  int lookahead;
  int rows_per_block;
};

std::string PolicyName(BlockSelection p) {
  switch (p) {
    case BlockSelection::kScanAll:
      return "ScanAll";
    case BlockSelection::kAnyActiveSync:
      return "Sync";
    case BlockSelection::kAnyActiveLookahead:
      return "Lookahead";
  }
  return "?";
}

class EngineSweep : public ::testing::TestWithParam<EngineCase> {
 protected:
  void SetUp() override {
    const EngineCase c = GetParam();
    // Uneven candidate sizes, including one small candidate to exercise
    // exhaustion under aggressive targets.
    std::vector<int64_t> counts = {400, 9000, 15000, 27000, 3000};
    auto dists =
        PlantedDistributions(5, 6, {0.0, 0.05, 0.1, 0.15, 0.2});
    store_ = MakeExactStore(counts, dists, 21, c.rows_per_block);
    index_ = BitmapIndex::Build(*store_, 0).value();
    exact_ = ComputeExactCounts(*store_, 0, {1}).value();
  }

  std::unique_ptr<SamplingEngine> NewEngine(uint64_t seed) {
    const EngineCase c = GetParam();
    EngineOptions options;
    options.policy = c.policy;
    options.lookahead = c.lookahead;
    options.seed = seed;
    return SamplingEngine::Create(store_, index_, 0, {1}, options).value();
  }

  std::shared_ptr<ColumnStore> store_;
  std::shared_ptr<BitmapIndex> index_;
  CountMatrix exact_;
};

TEST_P(EngineSweep, TargetsMetOrExhausted) {
  auto engine = NewEngine(3);
  CountMatrix out(5, 6);
  std::vector<bool> exhausted(5, false);
  const std::vector<int64_t> targets = {1000, 2000, -1, 5000, 4000};
  engine->SampleUntilTargets(targets, &out, &exhausted);
  for (int i = 0; i < 5; ++i) {
    if (targets[i] < 0) continue;
    EXPECT_TRUE(out.RowTotal(i) >= targets[i] || exhausted[i])
        << "candidate " << i;
    if (exhausted[i]) {
      // Exhausted candidates are exactly enumerated within this phase
      // plus nothing prior (fresh engine), i.e. equal to exact counts.
      EXPECT_EQ(out.RowTotal(i), exact_.RowTotal(i));
    }
  }
}

TEST_P(EngineSweep, NeverReadsMoreRowsThanExist) {
  auto engine = NewEngine(5);
  CountMatrix out(5, 6);
  std::vector<bool> exhausted(5, false);
  engine->SampleUntilTargets({100000, 100000, 100000, 100000, 100000}, &out,
                             &exhausted);
  EXPECT_LE(engine->rows_consumed(), store_->num_rows());
  EXPECT_TRUE(engine->AllConsumed());
  // Full consumption across phases reproduces exact counts cell-wise.
  for (int i = 0; i < 5; ++i) {
    for (int g = 0; g < 6; ++g) {
      EXPECT_EQ(out.At(i, g), exact_.At(i, g)) << i << "," << g;
    }
  }
}

TEST_P(EngineSweep, MultiPhaseCountsRemainDisjoint) {
  auto engine = NewEngine(7);
  CountMatrix total(5, 6);
  // Phase 1: stage-1 style.
  engine->SampleRows(6000, &total);
  // Phases 2-4: shifting targets.
  for (int64_t t : {500, 1500, 4000}) {
    CountMatrix round(5, 6);
    std::vector<bool> exhausted(5, false);
    engine->SampleUntilTargets({t, t, t, t, t}, &round, &exhausted);
    total.Merge(round);
  }
  // The union of all phases never exceeds the exact counts (without
  // replacement) in any cell.
  for (int i = 0; i < 5; ++i) {
    for (int g = 0; g < 6; ++g) {
      EXPECT_LE(total.At(i, g), exact_.At(i, g)) << i << "," << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Values(
        EngineCase{BlockSelection::kScanAll, 1, 50},
        EngineCase{BlockSelection::kScanAll, 1, 7},
        EngineCase{BlockSelection::kAnyActiveSync, 1, 50},
        EngineCase{BlockSelection::kAnyActiveSync, 1, 300},
        EngineCase{BlockSelection::kAnyActiveLookahead, 1, 50},
        EngineCase{BlockSelection::kAnyActiveLookahead, 16, 50},
        EngineCase{BlockSelection::kAnyActiveLookahead, 1024, 50},
        EngineCase{BlockSelection::kAnyActiveLookahead, 16, 7},
        EngineCase{BlockSelection::kAnyActiveLookahead, 4096, 300}),
    [](const auto& info) {
      return PolicyName(info.param.policy) + "_la" +
             std::to_string(info.param.lookahead) + "_b" +
             std::to_string(info.param.rows_per_block);
    });

// ------------------------------------------------ lookahead sweep

// Lookahead windows stop early, mid-window, once every target is met;
// sweep window sizes and seeds so that early stops land at many window
// offsets, and check that no exhaustion claim outlives a stop (the
// engine once derived exhaustion from marks whose reads were
// discarded).
TEST(LookaheadStress, RepeatedRunsKeepPostconditions) {
  std::vector<int64_t> counts = {2000, 8000, 12000, 20000};
  auto dists = PlantedDistributions(4, 6, {0.0, 0.07, 0.14, 0.21});
  auto store = MakeExactStore(counts, dists, 31, 25);
  auto index = BitmapIndex::Build(*store, 0).value();
  auto exact = ComputeExactCounts(*store, 0, {1}).value();

  for (int trial = 0; trial < 40; ++trial) {
    EngineOptions options;
    options.policy = BlockSelection::kAnyActiveLookahead;
    options.lookahead = 8 + (trial % 5) * 31;
    options.seed = static_cast<uint64_t>(trial);
    auto engine =
        SamplingEngine::Create(store, index, 0, {1}, options).value();
    CountMatrix out(4, 6);
    std::vector<bool> exhausted(4, false);
    const std::vector<int64_t> targets = {3000, 3000, 3000, 3000};
    engine->SampleUntilTargets(targets, &out, &exhausted);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(out.RowTotal(i) >= targets[i] || exhausted[i])
          << "trial " << trial << " candidate " << i;
      if (exhausted[i]) {
        // Exhaustion claims must be true: candidate fully enumerated.
        ASSERT_EQ(out.RowTotal(i), exact.RowTotal(i))
            << "trial " << trial << " candidate " << i
            << ": false exhaustion claim";
      }
      ASSERT_LE(out.RowTotal(i), exact.RowTotal(i));
    }
    ASSERT_LE(engine->rows_consumed(), store->num_rows());
  }
}

}  // namespace
}  // namespace fastmatch
