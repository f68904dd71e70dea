// Tests of the shared-scan batch executor: correctness per query,
// bit-for-bit determinism across worker counts, shared-read accounting
// against independent FastMatch runs, degenerate batches, a concurrency
// stress for the worker-pool shard-merge path, and the MakeQueryBatch
// test helper.

#include "engine/batch_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/verify.h"
#include "engine/executor.h"
#include "service/stage1_cache.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct BatchFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
  CountMatrix exact;
  Distribution target;
};

/// 12 candidates at staggered distances from uniform (as in the HistSim
/// scenario) so the true top-3 is {0, 1, 2}.
BatchFixture MakeBatchFixture(int64_t rows_per_candidate, uint64_t seed,
                              int rows_per_block = 50) {
  BatchFixture f;
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
                                 0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
  auto dists = PlantedDistributions(12, 8, offsets);
  f.store = MakeExactStore(std::vector<int64_t>(12, rows_per_candidate),
                           dists, seed, rows_per_block);
  f.index = BitmapIndex::Build(*f.store, 0).value();
  f.exact = ComputeExactCounts(*f.store, 0, {1}).value();
  f.target = UniformDistribution(8);
  return f;
}

HistSimParams BatchParams() {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 3000;
  p.seed = 42;
  return p;
}

BoundQuery MakeQuery(const BatchFixture& f, Distribution target,
                     uint64_t seed = 42) {
  BoundQuery q;
  q.store = f.store;
  q.z_index = f.index;
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = std::move(target);
  q.params = BatchParams();
  q.params.seed = seed;
  return q;
}

BatchOptions Options(int threads, uint64_t seed = 7, int chunk = 64) {
  BatchOptions o;
  o.num_threads = threads;
  o.chunk_blocks = chunk;
  o.seed = seed;
  return o;
}

TEST(MakeQueryBatchTest, Validation) {
  BatchFixture f = MakeBatchFixture(500, 1);
  TrafficOptions topt;
  topt.params = BatchParams();
  EXPECT_FALSE(MakeQueryBatch(nullptr, nullptr, 0, {1}, topt).ok());
  topt.num_queries = 0;
  EXPECT_FALSE(MakeQueryBatch(f.store, nullptr, 0, {1}, topt).ok());
}

TEST(MakeQueryBatchTest, DistinctSeedsSharedTemplate) {
  BatchFixture f = MakeBatchFixture(500, 2);
  TrafficOptions topt;
  topt.num_queries = 5;
  topt.params = BatchParams();
  topt.seed = 7;
  auto batch = MakeQueryBatch(f.store, nullptr, 0, {1}, topt).value();
  ASSERT_EQ(batch.size(), 5u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].store.get(), f.store.get());
    EXPECT_EQ(batch[i].z_attr, 0);
    EXPECT_EQ(batch[i].x_attrs, std::vector<int>{1});
    EXPECT_EQ(batch[i].target.size(), 8u);
    for (size_t j = i + 1; j < batch.size(); ++j) {
      EXPECT_NE(batch[i].params.seed, batch[j].params.seed);
    }
  }
}

TEST(BatchExecutorTest, CreateValidation) {
  BatchFixture f = MakeBatchFixture(2000, 1);
  // Empty batch.
  EXPECT_FALSE(BatchExecutor::Create({}, Options(2)).ok());
  // Bad options.
  EXPECT_FALSE(
      BatchExecutor::Create({MakeQuery(f, f.target)}, Options(0)).ok());
  EXPECT_FALSE(
      BatchExecutor::Create({MakeQuery(f, f.target)}, Options(2, 7, 0)).ok());
  // Mixed stores are a structural error.
  BatchFixture g = MakeBatchFixture(2000, 2);
  EXPECT_FALSE(
      BatchExecutor::Create({MakeQuery(f, f.target), MakeQuery(g, g.target)},
                            Options(2))
          .ok());
  // A well-formed batch is accepted.
  EXPECT_TRUE(BatchExecutor::Create({MakeQuery(f, f.target)}, Options(2)).ok());
}

TEST(BatchExecutorTest, MalformedIndexRejectedRegardlessOfBatchOrder) {
  // Regression: index validation must apply to every query, not only the
  // one that first binds an index to the template.
  BatchFixture f = MakeBatchFixture(2000, 11);
  auto wrong_index = BitmapIndex::Build(*f.store, 1).value();  // X, not Z
  BoundQuery good = MakeQuery(f, f.target);
  BoundQuery bad = MakeQuery(f, f.target);
  bad.z_index = wrong_index;
  for (const auto& batch :
       {std::vector<BoundQuery>{good, bad}, std::vector<BoundQuery>{bad, good}}) {
    auto executor = BatchExecutor::Create(batch, Options(2)).value();
    std::vector<BatchItem> items = executor->Run();
    int ok = 0, invalid = 0;
    for (const BatchItem& item : items) {
      if (item.status.ok()) {
        ++ok;
      } else if (item.status.code() == StatusCode::kInvalidArgument) {
        ++invalid;
      }
    }
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(invalid, 1);
  }
}

TEST(BatchExecutorTest, SingleQueryFindsTopK) {
  BatchFixture f = MakeBatchFixture(20000, 3);
  auto executor =
      BatchExecutor::Create({MakeQuery(f, f.target)}, Options(2)).value();
  std::vector<BatchItem> items = executor->Run();
  ASSERT_EQ(items.size(), 1u);
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  EXPECT_GT(executor->stats().blocks_read, 0);
  EXPECT_EQ(executor->stats().num_templates, 1);
}

TEST(BatchExecutorTest, BitForBitIdenticalAcrossThreadCounts) {
  BatchFixture f = MakeBatchFixture(20000, 4);
  TrafficOptions topt;
  topt.num_queries = 3;
  topt.params = BatchParams();
  topt.seed = 11;
  auto batch = MakeQueryBatch(f.store, f.index, 0, {1}, topt).value();

  std::vector<std::vector<BatchItem>> runs;
  std::vector<int64_t> blocks;
  for (int threads : {1, 2, 5}) {
    auto executor = BatchExecutor::Create(batch, Options(threads)).value();
    runs.push_back(executor->Run());
    blocks.push_back(executor->stats().blocks_read);
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(blocks[r], blocks[0]);
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t q = 0; q < runs[r].size(); ++q) {
      ASSERT_TRUE(runs[r][q].status.ok());
      EXPECT_EQ(runs[r][q].match.topk, runs[0][q].match.topk);
      const CountMatrix& a = runs[0][q].match.counts;
      const CountMatrix& b = runs[r][q].match.counts;
      for (int i = 0; i < a.num_candidates(); ++i) {
        for (int g = 0; g < a.num_groups(); ++g) {
          ASSERT_EQ(a.At(i, g), b.At(i, g))
              << "thread-count divergence at query " << q << " cell " << i
              << "," << g;
        }
      }
    }
  }
}

TEST(BatchExecutorTest, SharedScanReadsFewerBlocksThanIndependentRuns) {
  // Small store + eps tight enough that winners need (nearly) full
  // enumeration: a single FastMatch run reads most blocks, so B
  // independent runs pay ~B x that, while the batch pays it once.
  BatchFixture f = MakeBatchFixture(2000, 5);
  const int kBatch = 4;

  BoundQuery single = MakeQuery(f, f.target);
  single.params.epsilon = 0.04;
  auto single_out = RunQuery(single, Approach::kFastMatch);
  ASSERT_TRUE(single_out.ok()) << single_out.status().ToString();
  const int64_t single_blocks = single_out->stats.engine.blocks_read;
  ASSERT_GT(single_blocks, 0);

  std::vector<BoundQuery> batch;
  for (int i = 0; i < kBatch; ++i) {
    BoundQuery q = MakeQuery(f, f.target, /*seed=*/100 + i);
    q.params.epsilon = 0.04;
    batch.push_back(std::move(q));
  }
  auto executor = BatchExecutor::Create(batch, Options(2)).value();
  std::vector<BatchItem> items = executor->Run();
  for (const BatchItem& item : items) {
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    std::set<int> got(item.match.topk.begin(), item.match.topk.end());
    EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  }
  // The acceptance inequality: strictly fewer unique block reads than B
  // independent runs.
  EXPECT_LT(executor->stats().blocks_read, kBatch * single_blocks)
      << "batch=" << executor->stats().blocks_read
      << " single=" << single_blocks;

  // Amortization = B, made exact: B identical queries (same target, same
  // seed) place identical demands, so their shared scan reads exactly
  // what a batch of one reads at equal BatchOptions.
  BoundQuery same = MakeQuery(f, f.target, /*seed=*/100);
  same.params.epsilon = 0.04;
  auto one = BatchExecutor::Create({same}, Options(2)).value();
  one->Run();
  const std::vector<BoundQuery> copies(kBatch, same);
  auto many = BatchExecutor::Create(copies, Options(2)).value();
  for (const BatchItem& item : many->Run()) {
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
  }
  EXPECT_EQ(many->stats().blocks_read, one->stats().blocks_read);
  EXPECT_EQ(many->stats().rows_read, one->stats().rows_read);
}

TEST(BatchExecutorTest, CandidateTargetQueriesMeetGuarantees) {
  BatchFixture f = MakeBatchFixture(20000, 6);
  TrafficOptions topt;
  topt.num_queries = 4;
  topt.params = BatchParams();
  topt.seed = 21;
  auto batch = MakeQueryBatch(f.store, f.index, 0, {1}, topt).value();
  auto executor = BatchExecutor::Create(batch, Options(3)).value();
  std::vector<BatchItem> items = executor->Run();
  ASSERT_EQ(items.size(), batch.size());
  int violations = 0;
  for (size_t q = 0; q < items.size(); ++q) {
    ASSERT_TRUE(items[q].status.ok()) << items[q].status.ToString();
    GroundTruth truth =
        ComputeGroundTruth(f.exact, batch[q].target, batch[q].params.metric,
                           batch[q].params.sigma, batch[q].params.k);
    auto check = CheckGuarantees(items[q].match, f.exact, truth,
                                 batch[q].target, batch[q].params);
    violations += !check.separation_ok || !check.reconstruction_ok;
  }
  // delta = 0.05 per query; the bound is loose in practice, but zero
  // tolerance over 4 draws would be flaky by design: allow at most 1.
  EXPECT_LE(violations, 1);
}

TEST(BatchExecutorTest, MixedTemplatesShareTheScan) {
  // Three attributes: queries grouping by X1 and by X2 form two
  // templates; blocks are still read once (block_scans == 2x blocks).
  std::vector<Value> z, x1, x2;
  Rng rng(99);
  for (int i = 0; i < 30000; ++i) {
    const int c = static_cast<int>(rng.Uniform(3));
    z.push_back(static_cast<Value>(c));
    x1.push_back(static_cast<Value>(rng.Uniform(4)));
    x2.push_back(static_cast<Value>((c + static_cast<int>(rng.Uniform(2))) % 3));
  }
  StorageOptions opt;
  opt.rows_per_block_override = 50;
  auto store =
      ColumnStore::FromColumns(Schema({{"Z", 3}, {"X1", 4}, {"X2", 3}}),
                               {std::move(z), std::move(x1), std::move(x2)},
                               opt)
          .value();
  auto index = BitmapIndex::Build(*store, 0).value();

  HistSimParams p = BatchParams();
  p.k = 1;
  p.epsilon = 0.1;
  BoundQuery qa;
  qa.store = store;
  qa.z_index = index;
  qa.z_attr = 0;
  qa.x_attrs = {1};
  qa.target = UniformDistribution(4);
  qa.params = p;
  BoundQuery qb = qa;
  qb.x_attrs = {2};
  qb.target = UniformDistribution(3);

  auto executor = BatchExecutor::Create({qa, qb}, Options(2)).value();
  std::vector<BatchItem> items = executor->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  ASSERT_TRUE(items[1].status.ok()) << items[1].status.ToString();
  EXPECT_EQ(executor->stats().num_templates, 2);
  // Each unique block read feeds up to both templates (one may finish
  // first); scans never exceed 2 x unique reads — the amortization.
  EXPECT_GE(executor->stats().block_scans, executor->stats().blocks_read);
  EXPECT_LE(executor->stats().block_scans,
            2 * executor->stats().blocks_read);
  // Both queries' estimates line up with their template's ground truth.
  const CountMatrix exact_a = ComputeExactCounts(*store, 0, {1}).value();
  const CountMatrix exact_b = ComputeExactCounts(*store, 0, {2}).value();
  GroundTruth truth_a =
      ComputeGroundTruth(exact_a, qa.target, p.metric, p.sigma, p.k);
  GroundTruth truth_b =
      ComputeGroundTruth(exact_b, qb.target, p.metric, p.sigma, p.k);
  EXPECT_TRUE(CheckGuarantees(items[0].match, exact_a, truth_a, qa.target, p)
                  .separation_ok);
  EXPECT_TRUE(CheckGuarantees(items[1].match, exact_b, truth_b, qb.target, p)
                  .separation_ok);
}

TEST(BatchExecutorTest, PerQueryFailureDoesNotSinkTheBatch) {
  BatchFixture f = MakeBatchFixture(20000, 7);
  BoundQuery good = MakeQuery(f, f.target);
  BoundQuery bad_target = MakeQuery(f, UniformDistribution(5));  // |VX| is 8
  BoundQuery all_pruned = MakeQuery(f, f.target);
  all_pruned.params.sigma = 0.9;  // every candidate is ~1/12 of the data
  all_pruned.params.stage1_samples = f.store->num_rows();  // exact pruning

  auto executor =
      BatchExecutor::Create({good, bad_target, all_pruned}, Options(2))
          .value();
  std::vector<BatchItem> items = executor->Run();
  ASSERT_EQ(items.size(), 3u);
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(items[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(items[2].status.code(), StatusCode::kFailedPrecondition);
}

TEST(BatchExecutorTest, ExhaustionYieldsExactResultsForEveryQuery) {
  // Tiny store: every query exhausts the data; all counts must equal the
  // exact histograms and the top-k must equal ground truth.
  BatchFixture f = MakeBatchFixture(200, 8, /*rows_per_block=*/25);
  HistSimParams p = BatchParams();
  p.k = 2;
  p.stage1_samples = 100;
  std::vector<BoundQuery> batch;
  for (int i = 0; i < 3; ++i) {
    BoundQuery q = MakeQuery(f, f.target, 50 + i);
    q.params = p;
    q.params.seed = 50 + static_cast<uint64_t>(i);
    batch.push_back(std::move(q));
  }
  auto executor = BatchExecutor::Create(batch, Options(2)).value();
  std::vector<BatchItem> items = executor->Run();
  for (const BatchItem& item : items) {
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    EXPECT_TRUE(item.match.diag.data_exhausted);
    std::set<int> got(item.match.topk.begin(), item.match.topk.end());
    EXPECT_EQ(got, (std::set<int>{0, 1}));
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(item.match.exact[i]);
      EXPECT_EQ(item.match.counts.RowTotal(i), f.exact.RowTotal(i));
    }
  }
  // The whole store was read exactly once.
  EXPECT_EQ(executor->stats().blocks_read, f.store->num_blocks());
  EXPECT_EQ(executor->stats().rows_read, f.store->num_rows());
}

TEST(BatchExecutorTest, WorksWithoutAnIndex) {
  // No bitmap index: the executor degrades to sequential consumption
  // (scan-all), like ScanMatch.
  BatchFixture f = MakeBatchFixture(20000, 9);
  BoundQuery q = MakeQuery(f, f.target);
  q.z_index = nullptr;
  auto executor = BatchExecutor::Create({q}, Options(2)).value();
  std::vector<BatchItem> items = executor->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(executor->stats().blocks_skipped, 0);
}

// ------------------------------------------------ streaming admission
// The Start/Step/TakeItems protocol and mid-flight Join: a joined query
// is fed from the scan suffix only and must be bit-for-bit equivalent to
// a solo batch resumed from the donor's captured scan state.

void ExpectSameCounts(const CountMatrix& a, const CountMatrix& b,
                      const char* what) {
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (int i = 0; i < a.num_candidates(); ++i) {
    for (int g = 0; g < a.num_groups(); ++g) {
      ASSERT_EQ(a.At(i, g), b.At(i, g))
          << what << ": divergence at cell " << i << "," << g;
    }
  }
}

TEST(BatchExecutorStreamTest, StepwiseDriveMatchesRun) {
  BatchFixture f = MakeBatchFixture(20000, 12);
  TrafficOptions topt;
  topt.num_queries = 3;
  topt.params = BatchParams();
  topt.seed = 31;
  auto batch = MakeQueryBatch(f.store, f.index, 0, {1}, topt).value();

  auto run_exec = BatchExecutor::Create(batch, Options(2)).value();
  std::vector<BatchItem> run_items = run_exec->Run();

  auto step_exec = BatchExecutor::Create(batch, Options(2)).value();
  step_exec->Start();
  while (step_exec->Step()) {
  }
  EXPECT_TRUE(step_exec->finished());
  EXPECT_EQ(step_exec->num_active(), 0);
  std::vector<BatchItem> step_items = step_exec->TakeItems();

  ASSERT_EQ(run_items.size(), step_items.size());
  EXPECT_EQ(run_exec->stats().blocks_read, step_exec->stats().blocks_read);
  for (size_t q = 0; q < run_items.size(); ++q) {
    ASSERT_TRUE(step_items[q].status.ok());
    EXPECT_EQ(run_items[q].match.topk, step_items[q].match.topk);
    ExpectSameCounts(run_items[q].match.counts, step_items[q].match.counts,
                     "stepwise vs run");
  }
}

TEST(BatchExecutorStreamTest, JoinedQueryMatchesSuffixSoloRunEveryThreadCount) {
  // The acceptance determinism test: run query A to completion, Join B
  // at that chunk boundary, and compare B against a solo batch resumed
  // from the captured scan state — counts must be bit-for-bit identical
  // for every (joined, solo) thread-count combination.
  BatchFixture f = MakeBatchFixture(20000, 13);
  BoundQuery b = MakeQuery(f, f.exact.NormalizedRow(4), /*seed=*/321);

  // A's loose epsilon makes it finish early, leaving a large suffix.
  BoundQuery a = MakeQuery(f, f.target);
  a.params.epsilon = 0.1;

  std::vector<BatchItem> reference;  // joined B at threads=1
  for (int threads : {1, 2, 5}) {
    auto exec = BatchExecutor::Create({a}, Options(threads)).value();
    exec->Start();
    while (exec->Step()) {
    }
    ASSERT_TRUE(exec->finished());
    // A must leave a real suffix behind, or the scenario is vacuous.
    ASSERT_GT(exec->consumed_blocks(), 0);
    ASSERT_LT(exec->consumed_blocks(), f.store->num_blocks());
    ScanResume capture = exec->CaptureScanState();
    ASSERT_EQ(capture.consumed.Popcount(), exec->consumed_blocks());
    for (size_t i = 0; i < capture.exhausted.size(); ++i) {
      ASSERT_FALSE(capture.exhausted[i]) << "unexpected pre-join exhaustion";
    }

    auto joined = exec->Join(b);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(*joined, 1u);
    while (exec->Step()) {
    }
    std::vector<BatchItem> items = exec->TakeItems();
    ASSERT_EQ(items.size(), 2u);
    ASSERT_TRUE(items[1].status.ok()) << items[1].status.ToString();
    EXPECT_EQ(exec->stats().joined_queries, 1);

    // The suffix-only solo reference, itself at several thread counts.
    for (int solo_threads : {1, 3}) {
      BatchOptions solo_options = Options(solo_threads);
      solo_options.resume = capture;
      auto solo = BatchExecutor::Create({b}, solo_options).value();
      std::vector<BatchItem> solo_items = solo->Run();
      ASSERT_TRUE(solo_items[0].status.ok())
          << solo_items[0].status.ToString();
      EXPECT_EQ(items[1].match.topk, solo_items[0].match.topk);
      EXPECT_EQ(items[1].match.distances, solo_items[0].match.distances);
      EXPECT_EQ(items[1].match.exact, solo_items[0].match.exact);
      ExpectSameCounts(items[1].match.counts, solo_items[0].match.counts,
                       "joined vs suffix-only solo");
    }
    if (reference.empty()) {
      reference = std::move(items);
    } else {
      EXPECT_EQ(items[1].match.topk, reference[1].match.topk);
      ExpectSameCounts(items[1].match.counts, reference[1].match.counts,
                       "joined across thread counts");
    }
  }
}

TEST(BatchExecutorStreamTest, JoinDuringActiveScanDeterministicAcrossThreads) {
  // B joins while A1/A2 are still scanning (a fixed chunk boundary, so
  // every thread count sees the same join point): all three results must
  // be bit-for-bit identical across worker counts.
  BatchFixture f = MakeBatchFixture(20000, 14);
  BoundQuery a1 = MakeQuery(f, f.target, 1);
  BoundQuery a2 = MakeQuery(f, f.exact.NormalizedRow(7), 2);
  BoundQuery b = MakeQuery(f, f.exact.NormalizedRow(2), 3);

  std::vector<std::vector<BatchItem>> runs;
  for (int threads : {1, 2, 5}) {
    auto exec = BatchExecutor::Create({a1, a2}, Options(threads)).value();
    exec->Start();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(exec->Step()) << "fixture finished before the join point";
    }
    auto joined = exec->Join(b);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(*joined, 2u);
    while (exec->Step()) {
    }
    runs.push_back(exec->TakeItems());
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), 3u);
    for (size_t q = 0; q < 3; ++q) {
      ASSERT_TRUE(runs[r][q].status.ok());
      EXPECT_EQ(runs[r][q].match.topk, runs[0][q].match.topk);
      ExpectSameCounts(runs[r][q].match.counts, runs[0][q].match.counts,
                       "mid-scan join across thread counts");
    }
  }
}

TEST(BatchExecutorStreamTest, JoinedQueriesMeetGuarantees) {
  // Statistical sanity: queries admitted mid-flight still satisfy the
  // paper's separation/reconstruction guarantees (their suffix samples
  // are uniform without replacement over the relation).
  BatchFixture f = MakeBatchFixture(20000, 15);
  auto exec =
      BatchExecutor::Create({MakeQuery(f, f.target, 1)}, Options(2)).value();
  exec->Start();
  ASSERT_TRUE(exec->Step());
  ASSERT_TRUE(exec->Step());
  std::vector<BoundQuery> joined_queries = {
      MakeQuery(f, f.exact.NormalizedRow(1), 11),
      MakeQuery(f, f.exact.NormalizedRow(6), 12),
      MakeQuery(f, f.target, 13)};
  std::vector<size_t> indices;
  for (const BoundQuery& q : joined_queries) {
    auto joined = exec->Join(q);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    indices.push_back(*joined);
  }
  while (exec->Step()) {
  }
  std::vector<BatchItem> items = exec->TakeItems();
  EXPECT_EQ(exec->stats().joined_queries, 3);
  int violations = 0;
  for (size_t j = 0; j < joined_queries.size(); ++j) {
    const BatchItem& item = items[indices[j]];
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    const HistSimParams& p = joined_queries[j].params;
    GroundTruth truth = ComputeGroundTruth(f.exact, joined_queries[j].target,
                                           p.metric, p.sigma, p.k);
    auto check = CheckGuarantees(item.match, f.exact, truth,
                                 joined_queries[j].target, p);
    violations += !check.separation_ok || !check.reconstruction_ok;
  }
  // delta = 0.05 per query; zero tolerance over 3 draws would be flaky
  // by design — allow at most 1 (same convention as the batch tests).
  EXPECT_LE(violations, 1);
}

TEST(BatchExecutorStreamTest, JoinAfterFinalChunkRejected) {
  // Tiny store: the batch consumes every block. A join arriving after
  // the final chunk has no suffix to sample and must be refused — the
  // caller falls back to a fresh batch.
  BatchFixture f = MakeBatchFixture(200, 16, /*rows_per_block=*/25);
  HistSimParams p = BatchParams();
  p.stage1_samples = 100;
  BoundQuery q = MakeQuery(f, f.target);
  q.params = p;
  auto exec = BatchExecutor::Create({q}, Options(2)).value();
  exec->Start();
  while (exec->Step()) {
  }
  ASSERT_EQ(exec->consumed_blocks(), f.store->num_blocks());

  auto joined = exec->Join(MakeQuery(f, f.target, 99));
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(exec->stats().joined_queries, 0);

  // The fallback: the same query in a fresh batch completes normally.
  auto fresh = BatchExecutor::Create({MakeQuery(f, f.target, 99)}, Options(2))
                   .value();
  std::vector<BatchItem> items = fresh->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
}

TEST(BatchExecutorStreamTest, JoinValidation) {
  BatchFixture f = MakeBatchFixture(2000, 17);
  // Join before Start is a structural error.
  auto exec = BatchExecutor::Create({MakeQuery(f, f.target)}, Options(2))
                  .value();
  EXPECT_EQ(exec->Join(MakeQuery(f, f.target)).status().code(),
            StatusCode::kFailedPrecondition);
  exec->Start();
  // A query over a different store cannot share the scan.
  BatchFixture g = MakeBatchFixture(2000, 18);
  EXPECT_EQ(exec->Join(MakeQuery(g, g.target)).status().code(),
            StatusCode::kInvalidArgument);
  // Per-query binding problems are accepted and surface as item status.
  BoundQuery bad = MakeQuery(f, UniformDistribution(5));  // |VX| is 8
  auto joined = exec->Join(bad);
  ASSERT_TRUE(joined.ok());
  while (exec->Step()) {
  }
  std::vector<BatchItem> items = exec->TakeItems();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  EXPECT_EQ(items[*joined].status.code(), StatusCode::kInvalidArgument);
}

TEST(BatchExecutorStreamTest, EagerCompletionMatchesRetireTimeDelivery) {
  // The eager-delivery property test: for every seed and thread count,
  // an item surfaced through the completion callback the moment its
  // machine finished must be bit-for-bit identical (counts, top-k,
  // distances) to the same query's item from a plain retire-time run of
  // the identical batch. Eager delivery changes WHEN a result is
  // visible, never WHAT it contains.
  for (uint64_t seed : {41u, 42u, 43u}) {
    BatchFixture f = MakeBatchFixture(8000, seed);
    TrafficOptions topt;
    topt.num_queries = 4;
    topt.params = BatchParams();
    topt.seed = seed * 7 + 1;
    auto batch = MakeQueryBatch(f.store, f.index, 0, {1}, topt).value();
    for (int threads : {1, 2, 5}) {
      // Eager run: collect callback items as they surface.
      auto eager_exec = BatchExecutor::Create(batch, Options(threads)).value();
      std::vector<std::optional<BatchItem>> eager(batch.size());
      size_t callbacks = 0;
      eager_exec->SetCompletionCallback(
          [&](size_t index, const BatchItem& item) {
            ASSERT_LT(index, eager.size());
            ASSERT_FALSE(eager[index].has_value())
                << "completion fired twice for query " << index;
            eager[index] = item;
            ++callbacks;
          });
      eager_exec->Start();
      while (eager_exec->Step()) {
      }

      // Retire-time reference: same batch, same options, no callback.
      auto retire_exec = BatchExecutor::Create(batch, Options(threads)).value();
      std::vector<BatchItem> retire = retire_exec->Run();

      ASSERT_EQ(callbacks, batch.size());
      ASSERT_EQ(retire.size(), batch.size());
      for (size_t q = 0; q < batch.size(); ++q) {
        ASSERT_TRUE(eager[q].has_value());
        const BatchItem& e = *eager[q];
        ASSERT_TRUE(e.status.ok()) << e.status.ToString();
        ASSERT_TRUE(retire[q].status.ok());
        EXPECT_EQ(e.match.topk, retire[q].match.topk);
        EXPECT_EQ(e.match.distances, retire[q].match.distances);
        EXPECT_EQ(e.match.exact, retire[q].match.exact);
        ExpectSameCounts(e.match.counts, retire[q].match.counts,
                         "eager vs retire-time");
      }
    }
  }
}

TEST(BatchExecutorStreamTest, EvictRemovesQueryAndSparesTheRest) {
  // Evicting one of two queries mid-scan: the survivor completes with a
  // correct result, the evicted item reports Cancelled, and the
  // completion callback delivers both (the eviction at evict time).
  BatchFixture f = MakeBatchFixture(20000, 31);
  BoundQuery keep = MakeQuery(f, f.target, 1);
  BoundQuery drop = MakeQuery(f, f.exact.NormalizedRow(5), 2);
  drop.params.epsilon = 0.03;  // would run long if not evicted

  auto exec = BatchExecutor::Create({keep, drop}, Options(2)).value();
  std::vector<std::optional<BatchItem>> seen(2);
  exec->SetCompletionCallback([&](size_t index, const BatchItem& item) {
    ASSERT_LT(index, seen.size());
    ASSERT_FALSE(seen[index].has_value());
    seen[index] = item;
  });
  exec->Start();
  ASSERT_TRUE(exec->Step());
  ASSERT_TRUE(exec->Step());
  ASSERT_TRUE(exec->Evict(1).ok());
  ASSERT_TRUE(seen[1].has_value()) << "eviction must fire the callback";
  EXPECT_EQ(seen[1]->status.code(), StatusCode::kCancelled);
  while (exec->Step()) {
  }
  EXPECT_EQ(exec->stats().evicted_queries, 1);
  ASSERT_TRUE(seen[0].has_value()) << "the survivor must be delivered";
  ASSERT_TRUE(seen[0]->status.ok()) << seen[0]->status.ToString();
  std::set<int> got(seen[0]->match.topk.begin(), seen[0]->match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(BatchExecutorStreamTest, EvictionShrinksTheUnionDemand) {
  // A solo tight-epsilon query evicted right after Start: the scan must
  // stop almost immediately (no active query contributes demand), so it
  // reads far fewer blocks than the full run.
  BatchFixture f = MakeBatchFixture(20000, 32);
  BoundQuery q = MakeQuery(f, f.target, 3);
  q.params.epsilon = 0.03;

  auto full = BatchExecutor::Create({q}, Options(2)).value();
  std::vector<BatchItem> full_items = full->Run();
  ASSERT_TRUE(full_items[0].status.ok());

  auto evicted = BatchExecutor::Create({q}, Options(2)).value();
  evicted->Start();
  ASSERT_TRUE(evicted->Step());
  ASSERT_TRUE(evicted->Evict(0).ok());
  while (evicted->Step()) {
  }
  std::vector<BatchItem> evicted_items = evicted->TakeItems();
  EXPECT_EQ(evicted_items[0].status.code(), StatusCode::kCancelled);
  EXPECT_LT(evicted->stats().blocks_read, full->stats().blocks_read / 2);
}

TEST(BatchExecutorStreamTest, EvictValidation) {
  BatchFixture f = MakeBatchFixture(2000, 33);
  auto exec = BatchExecutor::Create({MakeQuery(f, f.target)}, Options(2))
                  .value();
  // Before Start.
  EXPECT_EQ(exec->Evict(0).code(), StatusCode::kFailedPrecondition);
  exec->Start();
  // Unknown index.
  EXPECT_EQ(exec->Evict(7).code(), StatusCode::kOutOfRange);
  while (exec->Step()) {
  }
  // Already completed: the result exists; Evict refuses to discard it.
  EXPECT_EQ(exec->Evict(0).code(), StatusCode::kFailedPrecondition);
  std::vector<BatchItem> items = exec->TakeItems();
  EXPECT_TRUE(items[0].status.ok());
}

TEST(BatchExecutorStreamTest, SharedPoolMatchesPrivatePoolBitForBit) {
  // The pool a batch runs on must be invisible to results: same batch,
  // same quota, the default process pool (null shared_pool) vs an
  // explicit SharedWorkerPool — identical counts, top-k, and I/O
  // accounting for every quota.
  BatchFixture f = MakeBatchFixture(8000, 34);
  TrafficOptions topt;
  topt.num_queries = 3;
  topt.params = BatchParams();
  topt.seed = 77;
  auto batch = MakeQueryBatch(f.store, f.index, 0, {1}, topt).value();

  SharedWorkerPool explicit_pool(4);
  for (int quota : {1, 2, 4}) {
    auto process_exec = BatchExecutor::Create(batch, Options(quota)).value();
    std::vector<BatchItem> process_items = process_exec->Run();

    BatchOptions explicit_options = Options(quota);
    explicit_options.shared_pool = &explicit_pool;
    auto explicit_exec = BatchExecutor::Create(batch, explicit_options).value();
    std::vector<BatchItem> explicit_items = explicit_exec->Run();

    ASSERT_EQ(process_items.size(), explicit_items.size());
    EXPECT_EQ(process_exec->stats().blocks_read,
              explicit_exec->stats().blocks_read);
    for (size_t q = 0; q < process_items.size(); ++q) {
      ASSERT_TRUE(explicit_items[q].status.ok());
      EXPECT_EQ(process_items[q].match.topk, explicit_items[q].match.topk);
      ExpectSameCounts(process_items[q].match.counts,
                       explicit_items[q].match.counts,
                       "process vs explicit pool");
    }
  }
}

TEST(BatchExecutorStreamTest, ResumeValidation) {
  BatchFixture f = MakeBatchFixture(2000, 19);
  BoundQuery q = MakeQuery(f, f.target);

  BatchOptions bad_size = Options(2);
  bad_size.resume = ScanResume{};
  bad_size.resume->consumed = BitVector(f.store->num_blocks() + 1);
  EXPECT_FALSE(BatchExecutor::Create({q}, bad_size).ok());

  BatchOptions bad_cursor = Options(2);
  bad_cursor.resume = ScanResume{};
  bad_cursor.resume->consumed = BitVector(f.store->num_blocks());
  bad_cursor.resume->cursor = f.store->num_blocks();
  EXPECT_FALSE(BatchExecutor::Create({q}, bad_cursor).ok());

  BatchOptions bad_exhausted = Options(2);
  bad_exhausted.resume = ScanResume{};
  bad_exhausted.resume->consumed = BitVector(f.store->num_blocks());
  bad_exhausted.resume->exhausted.assign(5, false);  // |VZ| is 12
  EXPECT_FALSE(BatchExecutor::Create({q}, bad_exhausted).ok());

  // A resume with every block consumed has nothing to scan: the
  // machines would finish instantly on zero samples (same condition
  // Join() rejects).
  BatchOptions all_consumed = Options(2);
  all_consumed.resume = ScanResume{};
  all_consumed.resume->consumed = BitVector(f.store->num_blocks());
  all_consumed.resume->consumed.SetAll();
  EXPECT_EQ(BatchExecutor::Create({q}, all_consumed).status().code(),
            StatusCode::kFailedPrecondition);

  BatchOptions good = Options(2);
  good.resume = ScanResume{};
  good.resume->consumed = BitVector(f.store->num_blocks());
  good.resume->exhausted.assign(12, false);
  EXPECT_TRUE(BatchExecutor::Create({q}, good).ok());
}

// ------------------------------------------------ warm stage-1 starts
// The stage-1 cache path: a cold batch exports its stage-1 snapshot
// (BatchOptions::stage1_sink), later queries consume it
// (BoundQuery::stage1_warm) and skip stage 1. The acceptance property
// mirrors the suffix-join suite: a cache-served query must be
// bit-for-bit identical to a solo run seeded with the same cached
// stage-1 state, across seeds x thread counts.

TEST(BatchExecutorWarmTest, WarmResumeFromSnapshotMatchesColdRunBitForBit) {
  // The strongest equivalence: a warm run resumed from the snapshot's
  // scan state replays exactly the cold run's post-stage-1 sampling, so
  // the cold result and the warm result are the SAME result — stage 1
  // was simply never re-drawn.
  for (uint64_t seed : {51u, 52u, 53u}) {
    BatchFixture f = MakeBatchFixture(20000, seed);
    BoundQuery q = MakeQuery(f, f.target, /*seed=*/seed);
    for (int threads : {1, 2, 5}) {
      Stage1Cache cache;
      BatchOptions cold_options = Options(threads, /*seed=*/seed * 3 + 1);
      cold_options.stage1_sink = &cache;
      auto cold = BatchExecutor::Create({q}, cold_options).value();
      std::vector<BatchItem> cold_items = cold->Run();
      ASSERT_TRUE(cold_items[0].status.ok())
          << cold_items[0].status.ToString();
      EXPECT_EQ(cold->stats().stage1_exports, 1);
      EXPECT_EQ(cold->stats().warm_queries, 0);

      auto snapshot =
          cache.Lookup(f.store->id(), kWholeStorePartition, 0, {1}, q.params.stage1_samples);
      ASSERT_NE(snapshot, nullptr);
      ASSERT_GE(snapshot->rows_drawn, q.params.stage1_samples);

      BoundQuery warm_q = q;
      warm_q.stage1_warm = snapshot;
      BatchOptions warm_options = Options(threads);
      warm_options.resume = snapshot->scan;
      auto warm = BatchExecutor::Create({warm_q}, warm_options).value();
      std::vector<BatchItem> warm_items = warm->Run();
      ASSERT_TRUE(warm_items[0].status.ok())
          << warm_items[0].status.ToString();
      EXPECT_EQ(warm->stats().warm_queries, 1);
      // A warm query never completes a stage-1 phase from the scan, so
      // nothing is exported even with a sink attached (none here).
      EXPECT_EQ(warm->stats().stage1_exports, 0);
      EXPECT_TRUE(warm_items[0].match.diag.stage1_warm);

      EXPECT_EQ(warm_items[0].match.topk, cold_items[0].match.topk);
      EXPECT_EQ(warm_items[0].match.distances, cold_items[0].match.distances);
      EXPECT_EQ(warm_items[0].match.exact, cold_items[0].match.exact);
      ExpectSameCounts(warm_items[0].match.counts, cold_items[0].match.counts,
                       "warm-resumed vs cold");
      // The warm path's whole point: the stage-1 prefix reads are gone.
      EXPECT_LT(warm->stats().blocks_read, cold->stats().blocks_read);
    }
  }
}

TEST(BatchExecutorWarmTest, WarmJoinMatchesWarmSoloResumeEveryThreadCount) {
  // Mid-flight: W joins a running scan with its stage 1 served from
  // cache, so only its stage-2/3 demands touch the suffix. Reference:
  // a solo batch resumed from the join-point scan state with the same
  // warm snapshot — bit-for-bit identical, like the suffix-join
  // property this mirrors.
  BatchFixture f = MakeBatchFixture(20000, 61);
  BoundQuery w = MakeQuery(f, f.exact.NormalizedRow(4), /*seed=*/321);

  // A's loose epsilon makes it finish early, leaving a large suffix;
  // its stage-1 phase populates the cache for the shared template.
  BoundQuery a = MakeQuery(f, f.target);
  a.params.epsilon = 0.1;

  std::vector<BatchItem> reference;
  for (int threads : {1, 2, 5}) {
    Stage1Cache cache;
    BatchOptions options = Options(threads);
    options.stage1_sink = &cache;
    auto exec = BatchExecutor::Create({a}, options).value();
    exec->Start();
    while (exec->Step()) {
    }
    ASSERT_TRUE(exec->finished());
    ASSERT_GT(exec->consumed_blocks(), 0);
    ASSERT_LT(exec->consumed_blocks(), f.store->num_blocks());
    ScanResume capture = exec->CaptureScanState();

    auto snapshot =
        cache.Lookup(f.store->id(), kWholeStorePartition, 0, {1}, w.params.stage1_samples);
    ASSERT_NE(snapshot, nullptr);
    BoundQuery warm_w = w;
    warm_w.stage1_warm = snapshot;

    auto joined = exec->Join(warm_w);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    while (exec->Step()) {
    }
    std::vector<BatchItem> items = exec->TakeItems();
    ASSERT_EQ(items.size(), 2u);
    ASSERT_TRUE(items[1].status.ok()) << items[1].status.ToString();
    EXPECT_TRUE(items[1].match.diag.stage1_warm);
    EXPECT_EQ(exec->stats().warm_queries, 1);

    for (int solo_threads : {1, 3}) {
      BatchOptions solo_options = Options(solo_threads);
      solo_options.resume = capture;
      auto solo = BatchExecutor::Create({warm_w}, solo_options).value();
      std::vector<BatchItem> solo_items = solo->Run();
      ASSERT_TRUE(solo_items[0].status.ok())
          << solo_items[0].status.ToString();
      EXPECT_EQ(items[1].match.topk, solo_items[0].match.topk);
      EXPECT_EQ(items[1].match.distances, solo_items[0].match.distances);
      EXPECT_EQ(items[1].match.exact, solo_items[0].match.exact);
      ExpectSameCounts(items[1].match.counts, solo_items[0].match.counts,
                       "warm joined vs warm suffix-only solo");
    }
    if (reference.empty()) {
      reference = std::move(items);
    } else {
      EXPECT_EQ(items[1].match.topk, reference[1].match.topk);
      ExpectSameCounts(items[1].match.counts, reference[1].match.counts,
                       "warm joined across thread counts");
    }
  }
}

TEST(BatchExecutorWarmTest, WarmQueriesMeetGuarantees) {
  // Statistical soundness of the overlapping case: warm queries in a
  // FRESH batch (no resume) draw stage-2/3 samples from a scan that may
  // revisit the cached prefix's rows. Each phase's statistics use only
  // its own uniform sample, so the paper's guarantees must still hold.
  BatchFixture f = MakeBatchFixture(20000, 62);
  Stage1Cache cache;

  BatchOptions prime_options = Options(2);
  prime_options.stage1_sink = &cache;
  auto prime =
      BatchExecutor::Create({MakeQuery(f, f.target, 1)}, prime_options)
          .value();
  ASSERT_TRUE(prime->Run()[0].status.ok());
  auto snapshot = cache.Lookup(f.store->id(), kWholeStorePartition, 0, {1}, 3000);
  ASSERT_NE(snapshot, nullptr);

  std::vector<BoundQuery> warm_queries = {
      MakeQuery(f, f.exact.NormalizedRow(1), 11),
      MakeQuery(f, f.exact.NormalizedRow(6), 12),
      MakeQuery(f, f.target, 13)};
  for (BoundQuery& q : warm_queries) q.stage1_warm = snapshot;
  auto exec =
      BatchExecutor::Create(warm_queries, Options(2, /*seed=*/97)).value();
  std::vector<BatchItem> items = exec->Run();
  EXPECT_EQ(exec->stats().warm_queries, 3);
  int violations = 0;
  for (size_t j = 0; j < warm_queries.size(); ++j) {
    ASSERT_TRUE(items[j].status.ok()) << items[j].status.ToString();
    EXPECT_TRUE(items[j].match.diag.stage1_warm);
    const HistSimParams& p = warm_queries[j].params;
    GroundTruth truth = ComputeGroundTruth(f.exact, warm_queries[j].target,
                                           p.metric, p.sigma, p.k);
    auto check = CheckGuarantees(items[j].match, f.exact, truth,
                                 warm_queries[j].target, p);
    violations += !check.separation_ok || !check.reconstruction_ok;
  }
  // delta = 0.05 per query; same flakiness convention as the batch and
  // join suites: allow at most 1 of 3.
  EXPECT_LE(violations, 1);
}

TEST(BatchExecutorWarmTest, MismatchedWarmSnapshotSurfacesAsItemStatus) {
  // A warm snapshot whose domain does not match the query's template is
  // a per-query error, never a batch-sinking one.
  BatchFixture f = MakeBatchFixture(2000, 63);
  auto bogus = std::make_shared<Stage1Snapshot>();
  bogus->counts = CountMatrix(5, 4);  // template is 12 x 8
  bogus->rows_drawn = 1000;
  BoundQuery bad = MakeQuery(f, f.target, 1);
  bad.stage1_warm = bogus;
  BoundQuery good = MakeQuery(f, f.target, 2);

  auto exec = BatchExecutor::Create({bad, good}, Options(2)).value();
  std::vector<BatchItem> items = exec->Run();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(items[1].status.ok()) << items[1].status.ToString();
  std::set<int> got(items[1].match.topk.begin(), items[1].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(BatchExecutorWarmTest, OverlappingWarmExhaustionReportsTrueExactCounts) {
  // The overlap-exactness hazard: a warm query in a FRESH batch (no
  // resume) rescans rows already behind its cached prior. Pooled totals
  // are fine as estimates, but when the scan then exhausts the store,
  // "exact" must mean the true histograms — the machine subtracts the
  // overlapping prior before trusting an exhaustion signal, so the
  // result equals ground truth rather than prior + truth.
  BatchFixture f = MakeBatchFixture(200, 65, /*rows_per_block=*/25);
  Stage1Cache cache;
  BoundQuery donor = MakeQuery(f, f.target);
  donor.params.stage1_samples = 100;  // a strict prefix, not the store
  BatchOptions donor_options = Options(2, /*seed=*/7, /*chunk=*/2);
  donor_options.stage1_sink = &cache;
  auto prime = BatchExecutor::Create({donor}, donor_options).value();
  ASSERT_TRUE(prime->Run()[0].status.ok());

  auto snapshot = cache.Lookup(f.store->id(), kWholeStorePartition, 0, {1}, 100);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_LT(snapshot->rows_drawn, f.store->num_rows());

  BoundQuery warm = MakeQuery(f, f.target, 9);
  warm.params.stage1_samples = 100;
  warm.stage1_warm = snapshot;
  auto exec =
      BatchExecutor::Create({warm}, Options(2, /*seed=*/31, /*chunk=*/2))
          .value();
  std::vector<BatchItem> items = exec->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  EXPECT_TRUE(items[0].match.diag.data_exhausted);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(items[0].match.exact[i]);
    // Exact means exact: the prior's double-counted rows must be gone.
    EXPECT_EQ(items[0].match.counts.RowTotal(i), f.exact.RowTotal(i))
        << "candidate " << i << " counts inflated by the cached prior";
  }
  std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(BatchExecutorWarmTest, DonorExhaustionFlagsDroppedForOverlappingWarm) {
  // Variant of the hazard above with a donor snapshot that itself
  // carries an exhausted flag (a small candidate fully enumerated in
  // the donor's stage-1 window). The fresh overlapping scan re-delivers
  // that candidate's rows, so honoring the donor's flag would freeze an
  // "exact" count that every later merge keeps inflating; the machine
  // must drop the flags and re-establish exactness from its own window.
  BatchFixture f = MakeBatchFixture(200, 66, /*rows_per_block=*/25);
  auto snapshot = std::make_shared<Stage1Snapshot>();
  snapshot->counts = CountMatrix(12, 8);
  int64_t prior_rows = 0;
  for (int i = 0; i < 12; ++i) {
    int64_t* row = snapshot->counts.MutableData() + i * 8;
    for (int g = 0; g < 8; ++g) {
      row[g] = i == 0 ? f.exact.At(i, g) : f.exact.At(i, g) / 2;
      snapshot->counts.MutableRowTotals()[i] += row[g];
      prior_rows += row[g];
    }
  }
  snapshot->rows_drawn = prior_rows;
  ASSERT_LT(prior_rows, f.store->num_rows());
  snapshot->scan.exhausted.assign(12, false);
  snapshot->scan.exhausted[0] = true;
  // scan.consumed stays default (empty): bind-time disjointness cannot
  // prove the fresh scan avoids the prior's rows, so the prior is
  // treated as overlapping.

  BoundQuery warm = MakeQuery(f, f.target, 9);
  warm.params.stage1_samples = 100;
  warm.stage1_warm = snapshot;
  auto exec =
      BatchExecutor::Create({warm}, Options(2, /*seed=*/33, /*chunk=*/2))
          .value();
  std::vector<BatchItem> items = exec->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  EXPECT_TRUE(items[0].match.diag.stage1_warm);
  EXPECT_TRUE(items[0].match.diag.data_exhausted);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(items[0].match.exact[i]);
    EXPECT_EQ(items[0].match.counts.RowTotal(i), f.exact.RowTotal(i))
        << "candidate " << i << " inflated by the donor's exhaustion flag";
  }
  std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
  EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
}

TEST(BatchExecutorWarmTest, FullCoverageSnapshotCompletesAtBind) {
  // A snapshot spanning the whole relation carries exact counts: warm
  // queries complete instantly with the exact result and the scan never
  // starts. (Tiny store: the cold donor's stage-1 draw consumes
  // everything.)
  BatchFixture f = MakeBatchFixture(200, 64, /*rows_per_block=*/25);
  Stage1Cache cache;
  BoundQuery donor = MakeQuery(f, f.target);
  donor.params.stage1_samples = f.store->num_rows();
  BatchOptions donor_options = Options(2);
  donor_options.stage1_sink = &cache;
  auto prime = BatchExecutor::Create({donor}, donor_options).value();
  ASSERT_TRUE(prime->Run()[0].status.ok());

  auto snapshot = cache.Lookup(f.store->id(), kWholeStorePartition, 0, {1}, f.store->num_rows());
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->rows_drawn, f.store->num_rows());

  BoundQuery warm = MakeQuery(f, f.exact.NormalizedRow(3), 9);
  warm.stage1_warm = snapshot;
  auto exec = BatchExecutor::Create({warm}, Options(2)).value();
  std::vector<BatchItem> items = exec->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  EXPECT_EQ(exec->stats().blocks_read, 0);
  EXPECT_TRUE(items[0].match.diag.data_exhausted);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(items[0].match.exact[i]);
    EXPECT_EQ(items[0].match.counts.RowTotal(i), f.exact.RowTotal(i));
  }
  // Exact distances to candidate 3's own distribution: 3 is the top hit.
  EXPECT_EQ(items[0].match.topk.front(), 3);
}

// ------------------------------------------------ concurrency stress
// The shard-merge path under repeated batches and varying pool sizes
// (run under FASTMATCH_SANITIZE=thread to certify the WorkerPool and the
// per-chunk fork-join).

TEST(BatchExecutorStress, RepeatedBatchesKeepResultsConsistent) {
  BatchFixture f = MakeBatchFixture(8000, 10);
  TrafficOptions topt;
  topt.num_queries = 6;
  topt.params = BatchParams();
  topt.params.stage1_samples = 2000;
  for (int trial = 0; trial < 6; ++trial) {
    topt.seed = 100 + static_cast<uint64_t>(trial);
    auto batch = MakeQueryBatch(f.store, f.index, 0, {1}, topt).value();
    auto executor =
        BatchExecutor::Create(batch, Options(1 + trial % 4, topt.seed))
            .value();
    std::vector<BatchItem> items = executor->Run();
    for (const BatchItem& item : items) {
      ASSERT_TRUE(item.status.ok()) << "trial " << trial << ": "
                                    << item.status.ToString();
      // Counts never exceed the exact histograms (without replacement).
      for (int i = 0; i < 12; ++i) {
        ASSERT_LE(item.match.counts.RowTotal(i), f.exact.RowTotal(i));
      }
    }
    ASSERT_LE(executor->stats().blocks_read, f.store->num_blocks());
    ASSERT_LE(executor->stats().rows_read, f.store->num_rows());
  }
}

}  // namespace
}  // namespace fastmatch
