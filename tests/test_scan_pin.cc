// Per-seed pins of the scan position: which blocks each engine reads,
// in which order, and what every query answers. The other suites
// compare runs inside one binary (two runs, two thread counts); these
// record exact values, so a refactor of the cursor, the consumed set or
// the exhaustion rule that changes a single read fails here.
//
// The store is skewed (50 to 200,000 rows per candidate), so rare
// candidates reach the zero-read-cycle exhaustion rule as well as the
// all-consumed one. When a behaviour change is deliberate, the failure
// message prints the new row to paste into the table.

#include <gtest/gtest.h>

#include <string>

#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

/// What one run read and answered.
struct Pin {
  int64_t blocks_read;
  int64_t blocks_skipped;
  int64_t rows_read;
  /// EngineStats::marker_batches for RunQuery, BatchStats::chunks for a
  /// batch.
  int64_t windows;
  /// CaptureScanState() after the batch (-1 for RunQuery).
  int64_t cursor;
  int64_t consumed;
  /// Per query: top-k ids, then the exact-candidate count, then an
  /// FNV-1a hash of every count cell, as one string; then, for batches
  /// with a sink, <cursor/consumed> of every exported stage-1 snapshot.
  std::string answers;
};

std::string Answer(const MatchResult& m) {
  std::string s = "[";
  for (int id : m.topk) s += std::to_string(id) + " ";
  int exact = 0;
  for (bool e : m.exact) exact += e;
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < m.counts.num_candidates(); ++i) {
    for (int g = 0; g < m.counts.num_groups(); ++g) {
      h = (h ^ static_cast<uint64_t>(m.counts.At(i, g))) * 1099511628211ull;
    }
  }
  return s + "e" + std::to_string(exact) + " " + std::to_string(h) + "]";
}

void ExpectPin(const Pin& got, const Pin& want, const std::string& what) {
  const bool same = got.blocks_read == want.blocks_read &&
                    got.blocks_skipped == want.blocks_skipped &&
                    got.rows_read == want.rows_read &&
                    got.windows == want.windows && got.cursor == want.cursor &&
                    got.consumed == want.consumed &&
                    got.answers == want.answers;
  EXPECT_TRUE(same) << what << " recorded {" << want.blocks_read << ", "
                    << want.blocks_skipped << ", " << want.rows_read << ", "
                    << want.windows << ", " << want.cursor << ", "
                    << want.consumed << ", \"" << want.answers
                    << "\"}\n      got {" << got.blocks_read << ", "
                    << got.blocks_skipped << ", " << got.rows_read << ", "
                    << got.windows << ", " << got.cursor << ", "
                    << got.consumed << ", \"" << got.answers << "\"},";
}

struct PinFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
  CountMatrix exact;
};

const PinFixture& Fixture() {
  static const PinFixture* f = [] {
    auto* p = new PinFixture;
    const std::vector<int64_t> rows = {200000, 150000, 100000, 80000,
                                       50000,  30000,  10000,  4000,
                                       1200,   400,    150,    50};
    const std::vector<double> offsets = {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
                                         0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
    p->store = MakeExactStore(rows, PlantedDistributions(12, 8, offsets),
                              /*seed=*/3, /*rows_per_block=*/50);
    p->index = BitmapIndex::Build(*p->store, 0).value();
    p->exact = ComputeExactCounts(*p->store, 0, {1}).value();
    return p;
  }();
  return *f;
}

BoundQuery Query(int target_candidate, uint64_t seed, double epsilon = 0.1) {
  const PinFixture& f = Fixture();
  BoundQuery q;
  q.store = f.store;
  q.z_index = f.index;
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = f.exact.NormalizedRow(target_candidate);
  q.params.k = 3;
  q.params.epsilon = epsilon;
  q.params.delta = 0.05;
  q.params.sigma = 0.0;
  q.params.stage1_samples = 3000;
  q.params.seed = seed;
  q.lookahead = 64;
  return q;
}

BatchOptions Options(uint64_t seed) {
  BatchOptions o;
  o.num_threads = 2;
  o.chunk_blocks = 64;
  o.seed = seed;
  return o;
}

Pin BatchPin(const BatchExecutor& exec, const std::vector<BatchItem>& items) {
  const BatchStats& s = exec.stats();
  const ScanResume scan = exec.CaptureScanState();
  Pin pin{s.blocks_read, s.blocks_skipped, s.rows_read, s.chunks,
          scan.cursor,   scan.consumed.Popcount(), ""};
  for (const BatchItem& item : items) {
    EXPECT_TRUE(item.status.ok()) << item.status.ToString();
    pin.answers += Answer(item.match);
  }
  return pin;
}

/// Logs the scan state of every stage-1 snapshot a batch exports.
class ScanLogSink : public Stage1Sink {
 public:
  void Publish(uint64_t, uint64_t, int, const std::vector<int>&,
               std::shared_ptr<const Stage1Snapshot> snapshot) override {
    log += "<" + std::to_string(snapshot->scan.cursor) + "/" +
           std::to_string(snapshot->scan.consumed.Popcount()) + ">";
  }
  std::string log;
};

constexpr uint64_t kSeeds[] = {1, 7, 42};

TEST(ScanPinTest, RunQueryPerSeed) {
  const Approach approaches[] = {Approach::kScanMatch, Approach::kSyncMatch,
                                 Approach::kFastMatch};
  const Pin want[3][3] = {
      {
          {12516, 0, 625800, 0, -1, -1, "[5 4 6 e12 13836667381342176931]"},
          {10376, 4324, 518800, 0, -1, -1, "[5 6 4 e5 10266534437276402305]"},
          {10385, 4304, 519250, 206, -1, -1, "[5 6 4 e5 14041603663786319571]"},
      },
      {
          {12516, 0, 625800, 0, -1, -1, "[5 4 6 e12 13836667381342176931]"},
          {10183, 5729, 509150, 0, -1, -1, "[5 6 4 e5 8374930346815294857]"},
          {10422, 5289, 521100, 242, -1, -1, "[5 6 4 e5 1276460919667087097]"},
      },
      {
          {12516, 0, 625800, 0, -1, -1, "[5 4 6 e12 13836667381342176931]"},
          {11269, 11189, 563450, 0, -1, -1, "[5 4 6 e6 9308395326752320167]"},
          {11301, 11110, 565050, 360, -1, -1,
           "[5 4 6 e6 2812290590169715079]"},
      },
  };
  for (size_t s = 0; s < 3; ++s) {
    for (size_t a = 0; a < 3; ++a) {
      auto out = RunQuery(Query(5, kSeeds[s]), approaches[a]);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      const EngineStats& e = out->stats.engine;
      const Pin got{e.blocks_read, e.blocks_skipped, e.rows_read,
                    e.marker_batches, -1, -1, Answer(out->match)};
      ExpectPin(got, want[s][a],
                std::string(ApproachName(approaches[a])) + " seed " +
                    std::to_string(kSeeds[s]));
    }
  }
}

TEST(ScanPinTest, ClosedBatchPerSeed) {
  const Pin want[3] = {
      {9861, 5310, 493050, 393, 8832, 9861,
       "[0 1 2 e5 17819267987986889783][3 4 2 e5 17819267987986889783]"
       "[5 6 4 e5 17819267987986889783][1 0 2 e5 17819267987986889783]"
       "<8861/64><8861/64><8861/64><8861/64>"},
      {10727, 3863, 536350, 466, 960, 10727,
       "[0 1 2 e6 16482018680137732575][3 4 2 e6 16482018680137732575]"
       "[5 6 4 e6 16482018680137732575][1 0 2 e6 16482018680137732575]"
       "<8832/64><8832/64><8832/64><8832/64>"},
      {12510, 3980, 625500, 831, 4032, 12510,
       "[0 1 2 e5 12246848527150441181][3 4 2 e5 12246848527150441181]"
       "[5 4 6 e7 9672939013939678161][1 0 2 e5 12246848527150441181]"
       "<1113/64><1113/64><1113/64><1113/64>"},
  };
  for (size_t s = 0; s < 3; ++s) {
    std::vector<BoundQuery> batch = {Query(0, 1), Query(3, 2), Query(5, 3),
                                     Query(1, 4)};
    ScanLogSink sink;
    BatchOptions options = Options(kSeeds[s]);
    options.stage1_sink = &sink;
    auto exec = BatchExecutor::Create(batch, options).value();
    const std::vector<BatchItem> items = exec->Run();
    Pin got = BatchPin(*exec, items);
    got.answers += sink.log;
    ExpectPin(got, want[s],
              "closed batch seed " + std::to_string(kSeeds[s]));
  }
}

TEST(ScanPinTest, ResumedBatchPerSeed) {
  const Pin want[3] = {
      {7597, 6590, 379850, 453, 1920, 9235, "[3 4 2 e3 16738202992478742725]"},
      {7279, 6716, 363950, 392, 8768, 9158, "[3 4 2 e3 5893407241707184189]"},
      {7759, 16093, 387950, 704, 11392, 9890, "[3 4 2 e4 767794817369494847]"},
  };
  for (size_t s = 0; s < 3; ++s) {
    // A loose donor finishes early and leaves a suffix; the resumed solo
    // batch scans only that suffix, from the donor's cursor.
    auto donor = BatchExecutor::Create({Query(2, 5, /*epsilon=*/0.2)},
                                       Options(kSeeds[s]))
                     .value();
    donor->Run();
    BatchOptions options = Options(kSeeds[s] + 100);
    options.resume = donor->CaptureScanState();
    auto exec = BatchExecutor::Create({Query(3, 6)}, options).value();
    const std::vector<BatchItem> items = exec->Run();
    ExpectPin(BatchPin(*exec, items), want[s],
              "resumed batch seed " + std::to_string(kSeeds[s]));
  }
}

TEST(ScanPinTest, JoinedBatchPerSeed) {
  const Pin want[3] = {
      {11304, 2533, 565200, 470, 1216, 11304,
       "[0 1 2 e6 12196861376834401103][4 5 3 e6 12196861376834401103]"
       "[2 1 0 e6 12025441076722751239]"
       "<8861/64><8861/64><9053/256>"},
      {10744, 3643, 537200, 459, 512, 10744,
       "[0 1 2 e5 9700922348502135019][4 5 3 e5 9700922348502135019]"
       "[2 1 0 e5 9421602392754449251]"
       "<8832/64><8832/64><9024/256>"},
      {12187, 7210, 609350, 830, 3968, 12187,
       "[0 1 2 e4 10971419473197912785][4 3 5 e6 12040690271531658045]"
       "[2 1 0 e4 3913578506300136951]"
       "<1113/64><1113/64><1305/256>"},
  };
  for (size_t s = 0; s < 3; ++s) {
    ScanLogSink sink;
    BatchOptions options = Options(kSeeds[s]);
    options.stage1_sink = &sink;
    auto exec =
        BatchExecutor::Create({Query(0, 7), Query(4, 8)}, options).value();
    exec->Start();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(exec->Step()) << "batch finished before the join point";
    }
    ASSERT_TRUE(exec->Join(Query(2, 9)).ok());
    while (exec->Step()) {
    }
    const std::vector<BatchItem> items = exec->TakeItems();
    ASSERT_EQ(items.size(), 3u);
    Pin got = BatchPin(*exec, items);
    got.answers += sink.log;
    ExpectPin(got, want[s],
              "joined batch seed " + std::to_string(kSeeds[s]));
  }
}

}  // namespace
}  // namespace fastmatch
