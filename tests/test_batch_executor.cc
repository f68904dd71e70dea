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

// ------------------------------------------------ stepwise driving
// The Start/Step/TakeItems protocol, eager completion, eviction and the
// resume contract.

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
  Stage1Cache cache;
  BatchOptions donor_options = Options(2);
  donor_options.stage1_sink = &cache;
  ASSERT_TRUE(BatchExecutor::Create({MakeQuery(f, f.target)}, donor_options)
                  .value()
                  ->Run()[0]
                  .status.ok());
  const std::shared_ptr<const Stage1Snapshot> snapshot =
      cache
          .Lookup(f.store->id(), kWholeStorePartition, 0, {1}, 3000,
                  f.store->Pin().generation)
          .snapshot;
  ASSERT_NE(snapshot, nullptr);

  // Structural cases: the query is warm from a copy of the snapshot whose
  // scan IS the resume, so each fails for its own reason, not for a
  // resume the query is not warm from.
  const auto create = [&](const ScanResume& resume) {
    auto warm = std::make_shared<Stage1Snapshot>(*snapshot);
    warm->scan = resume;
    BoundQuery q = MakeQuery(f, f.target);
    q.stage1_warm = warm;
    BatchOptions options = Options(2);
    options.resume = resume;
    return BatchExecutor::Create({q}, options).status().code();
  };
  ScanResume bad_size = snapshot->scan;
  bad_size.consumed = BitVector(f.store->num_blocks() + 1);
  EXPECT_EQ(create(bad_size), StatusCode::kInvalidArgument);

  ScanResume bad_cursor = snapshot->scan;
  bad_cursor.cursor = f.store->num_blocks();
  EXPECT_EQ(create(bad_cursor), StatusCode::kInvalidArgument);

  // A resume with every block consumed has nothing to scan: the
  // machines would finish instantly on zero samples.
  ScanResume all_consumed = snapshot->scan;
  all_consumed.consumed.SetAll();
  EXPECT_EQ(create(all_consumed), StatusCode::kFailedPrecondition);

  // Store generations start at 1: a resume without one names no block
  // space to re-pin.
  ScanResume no_generation = snapshot->scan;
  no_generation.generation = 0;
  EXPECT_EQ(create(no_generation), StatusCode::kInvalidArgument);

  EXPECT_EQ(create(snapshot->scan), StatusCode::kOk);

  // The resume must be the scan behind every query's prior. A cold query
  // would count only the suffix and could flag a candidate exact on part
  // of its rows.
  BoundQuery warm = MakeQuery(f, f.target, 1);
  warm.stage1_warm = snapshot;
  BatchOptions resumed = Options(2);
  resumed.resume = snapshot->scan;
  EXPECT_EQ(BatchExecutor::Create({warm, MakeQuery(f, f.target, 2)}, resumed)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Warm from a second snapshot object, even one with the same scan.
  BoundQuery other = MakeQuery(f, f.target, 3);
  other.stage1_warm = std::make_shared<Stage1Snapshot>(*snapshot);
  EXPECT_EQ(BatchExecutor::Create({warm, other}, resumed).status().code(),
            StatusCode::kInvalidArgument);
  // Resumed from a position other than the prior's own.
  BatchOptions elsewhere = resumed;
  elsewhere.resume->cursor =
      (snapshot->scan.cursor + 1) % f.store->num_blocks();
  EXPECT_EQ(BatchExecutor::Create({warm}, elsewhere).status().code(),
            StatusCode::kInvalidArgument);
  // Stamped with a generation other than the snapshot's own.
  BoundQuery stale = warm;
  stale.stage1_warm_generation = snapshot->scan.generation + 1;
  EXPECT_EQ(BatchExecutor::Create({stale}, resumed).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(BatchExecutor::Create({warm}, resumed).ok());

  // Without a resume, a partial prior would be pooled with a fresh scan
  // that rereads its rows.
  EXPECT_EQ(BatchExecutor::Create({warm}, Options(2)).status().code(),
            StatusCode::kInvalidArgument);
  // A prior holding every pinned row completes at bind and needs no
  // resume, but only at its own generation: a stamp for another
  // generation is refused.
  auto whole = std::make_shared<Stage1Snapshot>(*snapshot);
  whole->rows_drawn = f.store->num_rows();
  BoundQuery covering = MakeQuery(f, f.target, 4);
  covering.stage1_warm = whole;
  EXPECT_TRUE(BatchExecutor::Create({covering}, Options(2)).ok());
  covering.stage1_warm_generation = whole->scan.generation + 1;
  EXPECT_EQ(BatchExecutor::Create({covering}, Options(2)).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------ warm stage-1 starts
// The stage-1 cache path: a cold batch exports its stage-1 snapshot
// (BatchOptions::stage1_sink), later queries consume it
// (BoundQuery::stage1_warm) and skip stage 1. The acceptance property:
// a cache-served query resumed from the snapshot's scan must be
// bit-for-bit identical to the cold run that exported it, across seeds
// x thread counts.

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
          cache
              .Lookup(f.store->id(), kWholeStorePartition, 0, {1},
                      q.params.stage1_samples, f.store->Pin().generation)
              .snapshot;
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

TEST(BatchExecutorWarmTest, WarmQueriesMeetGuarantees) {
  // Statistical soundness across targets: warm queries with targets
  // other than the donor's resume the snapshot's scan, so each one's
  // sample is the donor's stage-1 prefix continued. Each phase's
  // statistics use only its own uniform sample, so the paper's
  // guarantees must hold for every target.
  BatchFixture f = MakeBatchFixture(20000, 62);
  Stage1Cache cache;

  BatchOptions prime_options = Options(2);
  prime_options.stage1_sink = &cache;
  auto prime =
      BatchExecutor::Create({MakeQuery(f, f.target, 1)}, prime_options)
          .value();
  ASSERT_TRUE(prime->Run()[0].status.ok());
  auto snapshot = cache
                      .Lookup(f.store->id(), kWholeStorePartition, 0, {1},
                              3000, f.store->Pin().generation)
                      .snapshot;
  ASSERT_NE(snapshot, nullptr);

  std::vector<BoundQuery> warm_queries = {
      MakeQuery(f, f.exact.NormalizedRow(1), 11),
      MakeQuery(f, f.exact.NormalizedRow(6), 12),
      MakeQuery(f, f.target, 13)};
  for (BoundQuery& q : warm_queries) q.stage1_warm = snapshot;
  BatchOptions resumed = Options(2, /*seed=*/97);
  resumed.resume = snapshot->scan;
  auto exec = BatchExecutor::Create(warm_queries, resumed).value();
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
  // delta = 0.05 per query; same flakiness convention as the batch
  // suite: allow at most 1 of 3.
  EXPECT_LE(violations, 1);
}

TEST(BatchExecutorWarmTest, MismatchedWarmSnapshotSurfacesAsItemStatus) {
  // A warm snapshot whose domain does not match the query's template is
  // a per-query error, never a structural one: the resumed batch is
  // created and each of its items reports the mismatch.
  BatchFixture f = MakeBatchFixture(2000, 63);
  Stage1Cache cache;
  BatchOptions donor_options = Options(2);
  donor_options.stage1_sink = &cache;
  ASSERT_TRUE(BatchExecutor::Create({MakeQuery(f, f.target)}, donor_options)
                  .value()
                  ->Run()[0]
                  .status.ok());
  auto bogus = std::make_shared<Stage1Snapshot>(
      *cache
           .Lookup(f.store->id(), kWholeStorePartition, 0, {1}, 3000,
                   f.store->Pin().generation)
           .snapshot);
  bogus->counts = CountMatrix(5, 4);  // template is 12 x 8
  BoundQuery first = MakeQuery(f, f.target, 1);
  first.stage1_warm = bogus;
  BoundQuery second = MakeQuery(f, f.exact.NormalizedRow(4), 2);
  second.stage1_warm = bogus;
  BatchOptions resumed = Options(2);
  resumed.resume = bogus->scan;

  auto exec = BatchExecutor::Create({first, second}, resumed).value();
  std::vector<BatchItem> items = exec->Run();
  ASSERT_EQ(items.size(), 2u);
  for (const BatchItem& item : items) {
    EXPECT_EQ(item.status.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(exec->stats().warm_queries, 0);
  EXPECT_EQ(exec->stats().blocks_read, 0);
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

  auto snapshot = cache
                      .Lookup(f.store->id(), kWholeStorePartition, 0, {1},
                              f.store->num_rows(), f.store->Pin().generation)
                      .snapshot;
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->rows_drawn, f.store->num_rows());

  BoundQuery warm = MakeQuery(f, f.exact.NormalizedRow(3), 9);
  warm.stage1_warm = snapshot;
  // In a fresh scan, and resumed from the snapshot's own scan, which has
  // no block left: both complete at bind.
  BatchOptions resumed = Options(2);
  resumed.resume = snapshot->scan;
  for (const BatchOptions& options : {Options(2), resumed}) {
    auto exec = BatchExecutor::Create({warm}, options).value();
    std::vector<BatchItem> items = exec->Run();
    ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    EXPECT_EQ(exec->stats().blocks_read, 0);
    EXPECT_TRUE(items[0].match.diag.data_exhausted);
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(items[0].match.exact[i]);
      EXPECT_EQ(items[0].match.counts.RowTotal(i), f.exact.RowTotal(i));
    }
    // Exact distances to candidate 3's own distribution: 3 is the top
    // hit.
    EXPECT_EQ(items[0].match.topk.front(), 3);
  }
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
