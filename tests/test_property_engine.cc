// Parameterized property sweeps of the sampling engine: across policies,
// lookahead values and block sizes, the engine must (a) meet every
// requested target or prove exhaustion, (b) never read a row twice, and
// (c) reproduce the exact histograms on full consumption. Across every
// path that produces an answer, (d) a candidate flagged exact carries
// its true histogram.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/verify.h"
#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "engine/sampling_engine.h"
#include "service/query_scheduler.h"
#include "service/stage1_cache.h"
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

// ------------------------------------------------ exactness property

/// Checks every answer of one path with GuaranteeCheck::exact_ok and
/// counts the exact flags it saw, so a path that never flags a
/// candidate exact shows up as vacuous.
class ExactnessLedger {
 public:
  ExactnessLedger(const CountMatrix& exact, const HistSimParams& params)
      : exact_(exact), params_(params) {}

  void Check(const std::string& path, const BoundQuery& query,
             const Status& status, const MatchResult& match) {
    ASSERT_TRUE(status.ok()) << path << ": " << status.ToString();
    const GroundTruth truth = ComputeGroundTruth(
        exact_, query.target, params_.metric, params_.sigma, params_.k);
    EXPECT_TRUE(
        CheckGuarantees(match, exact_, truth, query.target, params_).exact_ok)
        << path << ": a candidate flagged exact has a row other than its "
        << "true row";
    for (bool e : match.exact) flags_[path] += e;
  }

  const std::map<std::string, int>& flags() const { return flags_; }

 private:
  const CountMatrix& exact_;
  const HistSimParams params_;
  std::map<std::string, int> flags_;
};

TEST(ExactnessProperty, EveryAnswerPathFlagsOnlyTrueRows) {
  // Skewed candidates (200,000 down to 50 rows): the rare ones reach the
  // zero-read-cycle exhaustion rule long before the scan consumes the
  // store, so exact and estimated candidates share one answer.
  const std::vector<int64_t> rows = {200000, 100000, 50000, 20000,
                                     5000,   1200,   300,   50};
  auto store = MakeExactStore(
      rows, PlantedDistributions(8, 6, {0.0, 0.02, 0.05, 0.08, 0.11, 0.14,
                                        0.17, 0.2}),
      41, /*rows_per_block=*/50);
  std::shared_ptr<const BitmapIndex> index =
      BitmapIndex::Build(*store, 0).value();
  const CountMatrix exact = ComputeExactCounts(*store, 0, {1}).value();
  HistSimParams params;
  params.k = 2;
  params.epsilon = 0.1;
  params.delta = 0.05;
  params.sigma = 0.0;
  params.stage1_samples = 2000;
  const auto query = [&](int target, uint64_t seed) {
    BoundQuery q;
    q.store = store;
    q.z_index = index;
    q.z_attr = 0;
    q.x_attrs = {1};
    q.target = exact.NormalizedRow(target);
    q.params = params;
    q.params.seed = seed;
    q.lookahead = 32;
    return q;
  };
  const auto options = [](uint64_t seed) {
    BatchOptions o;
    o.num_threads = 2;
    o.chunk_blocks = 32;
    o.seed = seed;
    return o;
  };
  ExactnessLedger ledger(exact, params);

  for (uint64_t seed : {1u, 2u, 3u}) {
    for (Approach a : {Approach::kScanMatch, Approach::kSyncMatch,
                       Approach::kFastMatch}) {
      const BoundQuery q = query(static_cast<int>(seed % 3), seed);
      auto out = RunQuery(q, a);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ledger.Check(std::string(ApproachName(a)), q, Status::OK(), out->match);
    }

    // A closed cold batch that exports its stage-1 sample.
    Stage1Cache cache;
    BatchOptions cold_options = options(seed);
    cold_options.stage1_sink = &cache;
    std::vector<BoundQuery> cold = {query(0, seed), query(1, seed + 10),
                                    query(3, seed + 20)};
    std::vector<BatchItem> items =
        BatchExecutor::Create(cold, cold_options).value()->Run();
    for (size_t i = 0; i < items.size(); ++i) {
      ledger.Check("cold batch", cold[i], items[i].status, items[i].match);
    }
    const std::shared_ptr<const Stage1Snapshot> snapshot =
        cache
            .Lookup(store->id(), kWholeStorePartition, 0, {1},
                    params.stage1_samples, store->Pin().generation)
            .snapshot;
    ASSERT_NE(snapshot, nullptr);

    // A fresh batch mixing warm and cold queries would pool the priors
    // with a scan that rereads their rows: it is refused, so it has no
    // answer to check.
    std::vector<BoundQuery> mixed = {query(1, seed + 30), query(2, seed + 40),
                                     query(0, seed + 50)};
    mixed[0].stage1_warm = snapshot;
    mixed[2].stage1_warm = snapshot;
    ASSERT_LT(snapshot->rows_drawn, store->num_rows());
    EXPECT_EQ(
        BatchExecutor::Create(mixed, options(seed + 100)).status().code(),
        StatusCode::kInvalidArgument);

    // Every query warm from the snapshot, resumed from its scan.
    std::vector<BoundQuery> warm = {query(2, seed + 60), query(0, seed + 70)};
    for (BoundQuery& q : warm) q.stage1_warm = snapshot;
    BatchOptions resumed = options(seed + 200);
    resumed.resume = snapshot->scan;
    items = BatchExecutor::Create(warm, resumed).value()->Run();
    for (size_t i = 0; i < items.size(); ++i) {
      ledger.Check("resumed batch", warm[i], items[i].status, items[i].match);
    }

    // A best-effort harvest taken mid-scan.
    std::vector<BoundQuery> harvest = {query(3, seed + 80),
                                       query(1, seed + 90)};
    auto exec = BatchExecutor::Create(harvest, options(seed + 300)).value();
    exec->Start();
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(exec->Step());
    ASSERT_TRUE(exec->EvictWithResult(0).ok());
    while (exec->Step()) {
    }
    items = exec->TakeItems();
    EXPECT_TRUE(items[0].match.best_effort);
    for (size_t i = 0; i < items.size(); ++i) {
      ledger.Check("harvest", harvest[i], items[i].status, items[i].match);
    }

    // The scheduler with the cache on: a cold wave publishes, the next
    // waves launch warm.
    SchedulerOptions sched;
    sched.batch = options(seed + 400);
    sched.max_batch_queries = 2;
    sched.max_queue_wait_seconds = 0.002;
    sched.stage1_cache = true;
    QueryScheduler scheduler(sched);
    for (int wave = 0; wave < 3; ++wave) {
      std::vector<BoundQuery> submitted;
      std::vector<QueryHandle> handles;
      for (int t : {0, 2}) {
        submitted.push_back(query(t, seed + 500 + 10 * wave + t));
        auto handle = scheduler.Submit(submitted.back());
        ASSERT_TRUE(handle.ok());
        handles.push_back(std::move(*handle));
      }
      for (size_t i = 0; i < handles.size(); ++i) {
        SchedulerItem item = handles[i].Get();
        ledger.Check("scheduler", submitted[i], item.status, item.match);
      }
    }
    EXPECT_GT(scheduler.stats().stage1_hits, 0);
  }

  for (const auto& [path, flags] : ledger.flags()) {
    EXPECT_GT(flags, 0) << path << " never flagged a candidate exact";
  }
}

}  // namespace
}  // namespace fastmatch
