// Append/rebuild equivalence suite for generation-versioned streaming
// ingest (storage/column_store.h AppendBatch):
//
//   * a store grown through AppendBatch waves holds the same row
//     multiset as a fresh-shuffled build and satisfies the same HistSim
//     guarantees (the per-generation sub-shuffle preserves the paper's
//     §4.1 pre-shuffled-relation property per generation prefix),
//     across seeds x thread counts;
//   * a scan pinned at generation g is bit-for-bit stable under
//     concurrent appends — identical results, identical I/O — because
//     appends only ever write rows past every older pin's row count;
//   * a stage-1 snapshot's scan round-trips its generation: a warm
//     batch resumed from it before an append replays identically after
//     it (the resumed batch re-pins the donor's generation, not the
//     current one);
//   * the acceptance property of the stage-1 cache work: a cached prior
//     drawn at generation g is NEVER served at generation g' > g
//     unless the caller stamps it for g' — the executor drops the stale
//     warm start and runs the query cold (this test fails if the
//     generation check is skipped).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/verify.h"
#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "index/bitmap_index.h"
#include "service/stage1_cache.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

constexpr int kCandidates = 12;
constexpr int kGroups = 8;

std::vector<double> StaggeredOffsets() {
  // True top-3 is {0, 1, 2}, same planted structure as the batch tests.
  return {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
          0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
}

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

/// Extracts rows [begin, end) of a quiescent store as FromColumns /
/// AppendBatch-shaped column vectors.
std::vector<std::vector<Value>> SliceColumns(const ColumnStore& store,
                                             RowId begin, RowId end) {
  std::vector<std::vector<Value>> cols(2);
  for (RowId r = begin; r < end; ++r) {
    cols[0].push_back(store.column(0).Get(r));
    cols[1].push_back(store.column(1).Get(r));
  }
  return cols;
}

/// Builds a store holding the same row multiset as `reference` but grown
/// through streaming ingest: rows [0, initial) arrive as the
/// pre-publication build (generation 1), the rest in `waves`
/// AppendBatch calls (generations 2..waves+1).
std::shared_ptr<ColumnStore> GrowStore(const ColumnStore& reference,
                                       int64_t initial, int waves,
                                       uint64_t seed) {
  StorageOptions options;
  options.rows_per_block_override = reference.rows_per_block();
  auto grown = ColumnStore::FromColumns(
                   reference.schema(), SliceColumns(reference, 0, initial),
                   options)
                   .value();
  grown->Shuffle(seed);
  const int64_t total = reference.num_rows();
  const int64_t per_wave = (total - initial + waves - 1) / waves;
  int64_t at = initial;
  int wave = 0;
  while (at < total) {
    const RowId end = std::min<RowId>(total, at + per_wave);
    auto generation =
        grown->AppendBatch(SliceColumns(reference, at, end),
                           seed * 7919 + static_cast<uint64_t>(++wave));
    EXPECT_TRUE(generation.ok()) << generation.status().ToString();
    EXPECT_EQ(generation.value(), static_cast<uint64_t>(1 + wave));
    at = end;
  }
  return grown;
}

/// A small batch whose X marginal is maximally skewed (every row in the
/// last group): appending it drifts every candidate's distribution.
std::vector<std::vector<Value>> DriftColumns(int64_t rows) {
  std::vector<std::vector<Value>> cols(2);
  for (int64_t r = 0; r < rows; ++r) {
    cols[0].push_back(static_cast<Value>(r % kCandidates));
    cols[1].push_back(kGroups - 1);
  }
  return cols;
}

HistSimParams IngestParams(uint64_t seed = 42) {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 3000;
  p.seed = seed;
  return p;
}

BoundQuery MakeQuery(std::shared_ptr<const ColumnStore> store,
                     std::shared_ptr<const BitmapIndex> index,
                     uint64_t seed = 42) {
  BoundQuery q;
  q.store = std::move(store);
  q.z_index = std::move(index);
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = UniformDistribution(kGroups);
  q.params = IngestParams(seed);
  return q;
}

BatchOptions Options(int threads, uint64_t seed = 7, int chunk = 64) {
  BatchOptions o;
  o.num_threads = threads;
  o.chunk_blocks = chunk;
  o.seed = seed;
  return o;
}

// ------------------------------------------------ append/rebuild equivalence

TEST(IngestEquivalenceTest, AppendBuiltStoreSatisfiesTheSameGuarantees) {
  // The tentpole's sampling-soundness claim, exercised end to end: a
  // store grown by AppendBatch waves is as good a HistSim substrate as
  // one shuffled fresh over the full relation — same exact counts (the
  // multiset survived), same guaranteed top-k (the per-generation
  // sub-shuffle kept sequential scans uniform), across seeds, wave
  // counts, thread counts, and with or without a bitmap index (an
  // index-less template consumes the grown store sequentially).
  struct Case {
    uint64_t seed;
    int waves;
    bool indexed;
  };
  const Case cases[] = {{91, 3, true}, {92, 3, true}, {96, 2, false}};
  for (const Case& c : cases) {
    const uint64_t seed = c.seed;
    auto dists = PlantedDistributions(kCandidates, kGroups, StaggeredOffsets());
    auto fresh = MakeExactStore(std::vector<int64_t>(kCandidates, 20000),
                                dists, seed, /*rows_per_block=*/50);
    auto grown = GrowStore(*fresh, fresh->num_rows() / 2, c.waves, seed);
    const uint64_t generation = static_cast<uint64_t>(1 + c.waves);
    ASSERT_EQ(grown->num_rows(), fresh->num_rows());
    ASSERT_EQ(grown->num_blocks(), fresh->num_blocks());
    EXPECT_EQ(grown->generation(), generation);

    CountMatrix exact_fresh = ComputeExactCounts(*fresh, 0, {1}).value();
    CountMatrix exact_grown = ComputeExactCounts(*grown, 0, {1}).value();
    ExpectSameCounts(exact_fresh, exact_grown, "fresh vs append-built");

    std::shared_ptr<const BitmapIndex> index;
    if (c.indexed) index = BitmapIndex::Build(*grown, 0).value();
    for (int threads : {1, 3}) {
      auto executor =
          BatchExecutor::Create({MakeQuery(grown, index, seed)},
                                Options(threads, seed * 5 + 1))
              .value();
      EXPECT_EQ(executor->pin().generation, generation);
      std::vector<BatchItem> items = executor->Run();
      ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
      std::set<int> got(items[0].match.topk.begin(),
                        items[0].match.topk.end());
      EXPECT_EQ(got, (std::set<int>{0, 1, 2}))
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(IngestEquivalenceTest, PinnedScanIsBitForBitStableUnderAppends) {
  // An executor pins its generation at Create; appends landing between
  // its steps must be invisible — not "statistically harmless",
  // IDENTICAL: same top-k, same distances, same counts, same blocks
  // read as a run with no appends at all.
  auto dists = PlantedDistributions(kCandidates, kGroups, StaggeredOffsets());
  auto fresh = MakeExactStore(std::vector<int64_t>(kCandidates, 20000), dists,
                              /*seed=*/93, /*rows_per_block=*/50);
  auto store = GrowStore(*fresh, fresh->num_rows() / 2, /*waves=*/2, 93);
  auto index = BitmapIndex::Build(*store, 0).value();
  const uint64_t start_generation = store->generation();

  for (int threads : {1, 3}) {
    BoundQuery q = MakeQuery(store, index);
    auto baseline = BatchExecutor::Create({q}, Options(threads)).value();
    std::vector<BatchItem> expect = baseline->Run();
    ASSERT_TRUE(expect[0].status.ok()) << expect[0].status.ToString();

    auto exec = BatchExecutor::Create({q}, Options(threads)).value();
    EXPECT_EQ(exec->pin().generation, store->generation());
    const int64_t pinned_blocks = exec->pin().num_blocks;
    exec->Start();
    int step = 0;
    while (exec->Step()) {
      if (step < 4) {
        // Maximally drifted rows: if any of them leaked into the pinned
        // scan, counts (and likely the top-k) would change.
        auto generation = store->AppendBatch(DriftColumns(600),
                                             1000 + static_cast<uint64_t>(step));
        ASSERT_TRUE(generation.ok()) << generation.status().ToString();
      }
      ++step;
    }
    std::vector<BatchItem> items = exec->TakeItems();
    ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    EXPECT_EQ(items[0].match.topk, expect[0].match.topk);
    EXPECT_EQ(items[0].match.distances, expect[0].match.distances);
    EXPECT_EQ(items[0].match.exact, expect[0].match.exact);
    ExpectSameCounts(items[0].match.counts, expect[0].match.counts,
                     "appended-during vs quiescent");
    EXPECT_EQ(exec->stats().blocks_read, baseline->stats().blocks_read);
    EXPECT_EQ(exec->pin().num_blocks, pinned_blocks);
    EXPECT_GT(store->generation(), start_generation);
  }
}

TEST(IngestEquivalenceTest, ResumeRePinsTheDonorGeneration) {
  // A stage-1 snapshot's scan carries the donor's generation: a warm
  // batch resumed from it scans exactly the donor's block space even
  // after the store has grown — the resumed run before and after an
  // append are the same run.
  auto dists = PlantedDistributions(kCandidates, kGroups, StaggeredOffsets());
  auto store = MakeExactStore(std::vector<int64_t>(kCandidates, 20000), dists,
                              /*seed=*/95, /*rows_per_block=*/50);
  auto index = BitmapIndex::Build(*store, 0).value();
  BoundQuery q = MakeQuery(store, index);

  Stage1Cache cache;
  BatchOptions donor_options = Options(2);
  donor_options.stage1_sink = &cache;
  ASSERT_TRUE(
      BatchExecutor::Create({q}, donor_options).value()->Run()[0].status.ok());
  std::shared_ptr<const Stage1Snapshot> snapshot =
      cache
          .Lookup(store->id(), kWholeStorePartition, 0, q.x_attrs,
                  q.params.stage1_samples, 1)
          .snapshot;
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->scan.generation, 1u);
  q.stage1_warm = snapshot;

  BatchOptions resumed_options = Options(2);
  resumed_options.resume = snapshot->scan;
  auto before = BatchExecutor::Create({q}, resumed_options).value();
  std::vector<BatchItem> expect = before->Run();
  ASSERT_TRUE(expect[0].status.ok()) << expect[0].status.ToString();

  ASSERT_TRUE(store->AppendBatch(DriftColumns(2000), 77).ok());
  ASSERT_EQ(store->generation(), 2u);

  auto after = BatchExecutor::Create({q}, resumed_options).value();
  EXPECT_EQ(after->pin().generation, 1u);
  EXPECT_EQ(after->pin().num_blocks, before->pin().num_blocks);
  std::vector<BatchItem> items = after->Run();
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
  EXPECT_EQ(items[0].match.topk, expect[0].match.topk);
  EXPECT_EQ(items[0].match.distances, expect[0].match.distances);
  ExpectSameCounts(items[0].match.counts, expect[0].match.counts,
                   "resume after append vs before");
  EXPECT_EQ(after->stats().blocks_read, before->stats().blocks_read);
}

// ------------------------------------------------ acceptance pinning

TEST(IngestEquivalenceTest, StaleWarmPriorIsNeverServedAcrossGenerations) {
  // THE acceptance property of this change: a cached stage-1 prior
  // drawn at generation g must never be served at generation g' > g
  // unless the caller stamps it for g'. The executor is the last line of
  // defense — a warm start whose generation does not match the batch's
  // pin is DROPPED (counted in stale_warm_dropped) and the query runs
  // cold. If the generation check were skipped, diag.stage1_warm would
  // be true below and this test fails.
  auto dists = PlantedDistributions(kCandidates, kGroups, StaggeredOffsets());
  auto store = MakeExactStore(std::vector<int64_t>(kCandidates, 20000), dists,
                              /*seed=*/97, /*rows_per_block=*/50);
  auto index = BitmapIndex::Build(*store, 0).value();
  BoundQuery q = MakeQuery(store, index);

  Stage1Cache cache;
  BatchOptions cold_options = Options(2);
  cold_options.stage1_sink = &cache;
  auto cold = BatchExecutor::Create({q}, cold_options).value();
  std::vector<BatchItem> cold_items = cold->Run();
  ASSERT_TRUE(cold_items[0].status.ok()) << cold_items[0].status.ToString();

  auto snapshot = cache.Lookup(store->id(), kWholeStorePartition, 0, {1},
                               q.params.stage1_samples, /*generation=*/1)
                      .snapshot;
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->scan.generation, 1u);

  // Positive control at the snapshot's own generation: served warm.
  BoundQuery warm_q = q;
  warm_q.stage1_warm = snapshot;
  {
    auto warm = BatchExecutor::Create({warm_q}, Options(2)).value();
    std::vector<BatchItem> items = warm->Run();
    ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    EXPECT_TRUE(items[0].match.diag.stage1_warm);
    EXPECT_EQ(warm->stats().warm_queries, 1);
    EXPECT_EQ(warm->stats().stale_warm_dropped, 0);
  }

  // The store grows (with drifted rows, to make silent serving WRONG,
  // not just technically stale).
  ASSERT_TRUE(store->AppendBatch(DriftColumns(3000), 55).ok());
  ASSERT_EQ(store->generation(), 2u);

  // Same attachment, no generation stamp: the executor pins
  // generation 2, sees a generation-1 prior, and refuses it.
  {
    auto exec = BatchExecutor::Create({warm_q}, Options(2)).value();
    ASSERT_EQ(exec->pin().generation, 2u);
    std::vector<BatchItem> items = exec->Run();
    ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    EXPECT_FALSE(items[0].match.diag.stage1_warm);
    EXPECT_EQ(exec->stats().warm_queries, 0);
    EXPECT_EQ(exec->stats().stale_warm_dropped, 1);
    // Dropped means ran cold and correct, not served-and-wrong.
    std::set<int> got(items[0].match.topk.begin(), items[0].match.topk.end());
    EXPECT_EQ(got, (std::set<int>{0, 1, 2}));
  }

  // With an explicit stamp for generation 2 (the caller vouches for the
  // prior there; the scheduler never does), the same prior IS served at
  // generation 2: the guard honours the later of the two generations.
  warm_q.stage1_warm_generation = 2;
  {
    auto exec = BatchExecutor::Create({warm_q}, Options(2)).value();
    std::vector<BatchItem> items = exec->Run();
    ASSERT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    EXPECT_TRUE(items[0].match.diag.stage1_warm);
    EXPECT_EQ(exec->stats().warm_queries, 1);
    EXPECT_EQ(exec->stats().stale_warm_dropped, 0);
  }
}

}  // namespace
}  // namespace fastmatch
