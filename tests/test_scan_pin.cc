// Per-seed pins of the scan position: which blocks each engine reads,
// in which order, and what every query answers, down to the bits of
// every distance and error bar. The other suites compare runs inside
// one binary (two runs, two thread counts); these record exact values,
// so a refactor of the cursor, the consumed set, the exhaustion rule or
// HistSimMachine's accumulators that changes a single read or answer
// bit fails here. Three pins cover the machine's mid-run read paths: a
// fully subscribed batch's whole progress stream, a best-effort harvest
// taken mid-stage-2, and both again for a batch warm-resumed from a
// stage-1 snapshot.
//
// The store is skewed (50 to 200,000 rows per candidate), so rare
// candidates reach the zero-read-cycle exhaustion rule as well as the
// all-consumed one. When a behaviour change is deliberate, the failure
// message prints the new row to paste into the table.

#include <gtest/gtest.h>

#include <bit>
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
  /// The batch's scan cursor and consumed-block count after the run (-1
  /// for RunQuery).
  int64_t cursor;
  int64_t consumed;
  /// Per query: top-k ids, then the exact-candidate count, then an
  /// FNV-1a hash of every count cell and one of the bit patterns of
  /// every distance and error bar, as one string; then, for batches with
  /// a sink, <cursor/consumed> of every exported stage-1 snapshot.
  std::string answers;
};

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// One FNV-1a step over a 64-bit word.
uint64_t Mix(uint64_t h, uint64_t word) {
  return (h ^ word) * 1099511628211ull;
}

uint64_t MixDoubles(uint64_t h, const std::vector<double>& values) {
  for (double v : values) h = Mix(h, std::bit_cast<uint64_t>(v));
  return h;
}

std::string Answer(const MatchResult& m) {
  std::string s = "[";
  for (int id : m.topk) s += std::to_string(id) + " ";
  int exact = 0;
  for (bool e : m.exact) exact += e;
  uint64_t h = kFnvBasis;
  for (int i = 0; i < m.counts.num_candidates(); ++i) {
    for (int g = 0; g < m.counts.num_groups(); ++g) {
      h = Mix(h, static_cast<uint64_t>(m.counts.At(i, g)));
    }
  }
  const uint64_t bits =
      MixDoubles(MixDoubles(kFnvBasis, m.distances), m.error_bars);
  return s + "e" + std::to_string(exact) + " " + std::to_string(h) + " " +
         std::to_string(bits) + "]";
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
  Pin pin{s.blocks_read, s.blocks_skipped, s.rows_read, s.chunks,
          exec.scan().position(), exec.scan().consumed_blocks(), ""};
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
    log += '<';
    log += std::to_string(snapshot->scan.cursor);
    log += '/';
    log += std::to_string(snapshot->scan.consumed.Popcount());
    log += '>';
  }
  std::string log;
};

constexpr uint64_t kSeeds[] = {1, 7, 42};

TEST(ScanPinTest, RunQueryPerSeed) {
  const Approach approaches[] = {Approach::kScanMatch, Approach::kSyncMatch,
                                 Approach::kFastMatch};
  const Pin want[3][3] = {
      {
          {12516, 0, 625800, 0, -1, -1,
           "[5 4 6 e12 13836667381342176931 12080256962198889602]"},
          {10376, 4324, 518800, 0, -1, -1,
           "[5 6 4 e5 10266534437276402305 9854337943603784794]"},
          {10385, 4304, 519250, 206, -1, -1,
           "[5 6 4 e5 14041603663786319571 15361747598946328157]"},
      },
      {
          {12516, 0, 625800, 0, -1, -1,
           "[5 4 6 e12 13836667381342176931 12080256962198889602]"},
          {10183, 5729, 509150, 0, -1, -1,
           "[5 6 4 e5 8374930346815294857 1913148819707659860]"},
          {10422, 5289, 521100, 242, -1, -1,
           "[5 6 4 e5 1276460919667087097 3609205945190759062]"},
      },
      {
          {12516, 0, 625800, 0, -1, -1,
           "[5 4 6 e12 13836667381342176931 12080256962198889602]"},
          {11269, 11189, 563450, 0, -1, -1,
           "[5 4 6 e6 9308395326752320167 4465171468441780856]"},
          {11301, 11110, 565050, 360, -1, -1,
           "[5 4 6 e6 2812290590169715079 54847535853284482]"},
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
       "[0 1 2 e5 17819267987986889783 16525768660129420831]"
       "[3 4 2 e5 17819267987986889783 5483365107611883613]"
       "[5 6 4 e5 17819267987986889783 3498334519593190805]"
       "[1 0 2 e5 17819267987986889783 13719531551119343049]"
       "<8861/64><8861/64><8861/64><8861/64>"},
      {10727, 3863, 536350, 466, 960, 10727,
       "[0 1 2 e6 16482018680137732575 7787790521986299288]"
       "[3 4 2 e6 16482018680137732575 1982109538993160505]"
       "[5 6 4 e6 16482018680137732575 16399839223946519967]"
       "[1 0 2 e6 16482018680137732575 14684181416660108395]"
       "<8832/64><8832/64><8832/64><8832/64>"},
      {12510, 3980, 625500, 831, 4032, 12510,
       "[0 1 2 e5 12246848527150441181 9345690225665495113]"
       "[3 4 2 e5 12246848527150441181 14419120720282772398]"
       "[5 4 6 e7 9672939013939678161 15849972948194351960]"
       "[1 0 2 e5 12246848527150441181 13100699106069252543]"
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

/// Keeps the first stage-1 snapshot a batch exports.
class FirstSnapshotSink : public Stage1Sink {
 public:
  void Publish(uint64_t, uint64_t, int, const std::vector<int>&,
               std::shared_ptr<const Stage1Snapshot> published) override {
    if (snapshot == nullptr) snapshot = std::move(published);
  }
  std::shared_ptr<const Stage1Snapshot> snapshot;
};

/// A donor batch exports its stage-1 sample; the returned batch, whose
/// every query is warm from that snapshot, continues the donor's scan
/// from the snapshot's position, so it never re-reads the prior's
/// blocks.
std::unique_ptr<BatchExecutor> WarmResumedBatch(uint64_t seed) {
  FirstSnapshotSink sink;
  BatchOptions donor_options = Options(seed);
  donor_options.stage1_sink = &sink;
  BatchExecutor::Create({Query(2, 5)}, donor_options).value()->Run();
  EXPECT_NE(sink.snapshot, nullptr);
  std::vector<BoundQuery> batch = {Query(0, 10), Query(3, 11), Query(5, 12)};
  for (BoundQuery& q : batch) q.stage1_warm = sink.snapshot;
  BatchOptions options = Options(seed + 100);
  options.resume = sink.snapshot->scan;
  return BatchExecutor::Create(batch, options).value();
}

TEST(ScanPinTest, WarmResumedBatchPerSeed) {
  const Pin want[3] = {
      {9797, 5310, 489850, 392, 8832, 9861,
       "[0 1 2 e5 17819267987986889783 16525768660129420831]"
       "[3 4 2 e5 17819267987986889783 5483365107611883613]"
       "[5 6 4 e5 17819267987986889783 3498334519593190805]"},
      {10663, 3863, 533150, 465, 960, 10727,
       "[0 1 2 e6 16482018680137732575 7787790521986299288]"
       "[3 4 2 e6 16482018680137732575 1982109538993160505]"
       "[5 6 4 e6 16482018680137732575 16399839223946519967]"},
      {12446, 3980, 622300, 830, 4032, 12510,
       "[0 1 2 e5 12246848527150441181 9345690225665495113]"
       "[3 4 2 e5 12246848527150441181 14419120720282772398]"
       "[5 4 6 e7 9672939013939678161 15849972948194351960]"},
  };
  for (size_t s = 0; s < 3; ++s) {
    auto exec = WarmResumedBatch(kSeeds[s]);
    const std::vector<BatchItem> items = exec->Run();
    EXPECT_EQ(exec->stats().warm_queries, 3);
    ExpectPin(BatchPin(*exec, items), want[s],
              "warm resumed batch seed " + std::to_string(kSeeds[s]));
  }
}

/// Per query: the number of progress updates it received, then an
/// FNV-1a hash over every update's top-k ids, distances, error bars,
/// exact flags, rows_consumed and final flag, as "{count:hash}".
class ProgressLog {
 public:
  explicit ProgressLog(size_t num_queries)
      : count_(num_queries, 0), hash_(num_queries, kFnvBasis) {}

  void Record(size_t index, const ProgressUpdate& up) {
    uint64_t h = hash_.at(index);
    for (int id : up.topk) h = Mix(h, static_cast<uint64_t>(id));
    h = MixDoubles(MixDoubles(h, up.distances), up.error_bars);
    for (bool e : up.exact) h = Mix(h, e);
    h = Mix(Mix(h, static_cast<uint64_t>(up.rows_consumed)), up.final_update);
    hash_[index] = h;
    ++count_[index];
  }

  std::string Render() const {
    std::string s;
    for (size_t i = 0; i < count_.size(); ++i) {
      s += '{';
      s += std::to_string(count_[i]);
      s += ':';
      s += std::to_string(hash_[i]);
      s += '}';
    }
    return s;
  }

 private:
  std::vector<int> count_;
  std::vector<uint64_t> hash_;
};

std::string Diag(const HistSimDiagnostics& d) {
  return "(r" + std::to_string(d.rounds) + " " +
         std::to_string(d.stage1_samples) + "/" +
         std::to_string(d.stage2_samples) + "/" +
         std::to_string(d.stage3_samples) + ")";
}

TEST(ScanPinTest, ProgressStreamPerSeed) {
  const Pin want[3] = {
      {9861, 5310, 493050, 393, 8832, 9861,
       "[0 1 2 e5 17819267987986889783 16525768660129420831]"
       "[3 4 2 e5 17819267987986889783 5483365107611883613]"
       "[5 6 4 e5 17819267987986889783 3498334519593190805]"
       "[1 0 2 e5 17819267987986889783 13719531551119343049]"
       "{393:17465065420906226797}{393:15003488899306444990}"
       "{393:12202658567385184127}{393:2330286954673166355}"},
      {10727, 3863, 536350, 466, 960, 10727,
       "[0 1 2 e6 16482018680137732575 7787790521986299288]"
       "[3 4 2 e6 16482018680137732575 1982109538993160505]"
       "[5 6 4 e6 16482018680137732575 16399839223946519967]"
       "[1 0 2 e6 16482018680137732575 14684181416660108395]"
       "{466:13315210258846156341}{466:10151709875243439104}"
       "{466:11083698595341070531}{466:17573381651847307042}"},
      {12510, 3980, 625500, 831, 4032, 12510,
       "[0 1 2 e5 12246848527150441181 9345690225665495113]"
       "[3 4 2 e5 12246848527150441181 14419120720282772398]"
       "[5 4 6 e7 9672939013939678161 15849972948194351960]"
       "[1 0 2 e5 12246848527150441181 13100699106069252543]"
       "{439:9172843586771481343}{439:2265521536277367350}"
       "{831:7689299001204808242}{439:16685339325021001710}"},
  };
  for (size_t s = 0; s < 3; ++s) {
    std::vector<BoundQuery> batch = {Query(0, 1), Query(3, 2), Query(5, 3),
                                     Query(1, 4)};
    auto exec = BatchExecutor::Create(batch, Options(kSeeds[s])).value();
    ProgressLog log(batch.size());
    exec->SetProgressCallback(
        [&log](size_t index, const ProgressUpdate& up) {
          log.Record(index, up);
        });
    const std::vector<BatchItem> items = exec->Run();
    Pin got = BatchPin(*exec, items);
    got.answers += log.Render();
    ExpectPin(got, want[s],
              "progress stream seed " + std::to_string(kSeeds[s]));
  }
}

TEST(ScanPinTest, MidStage2HarvestPerSeed) {
  // Chunks before the harvest: at every seed query 0 has completed one
  // stage-2 round and is inside its second, short of stage 3.
  const int kStepsBeforeHarvest = 80;
  const Pin want[3] = {
      {9861, 5310, 493050, 393, 8832, 9861,
       "[0 1 2 e0 6450725417053583411 8412787169234902017]"
       "[3 4 2 e5 17819267987986889783 5483365107611883613]"
       "[5 6 4 e5 17819267987986889783 3498334519593190805]"
       "[1 0 2 e5 17819267987986889783 13719531551119343049]"
       "(r2 3200/249950/0)"},
      {10727, 3863, 536350, 466, 960, 10727,
       "[0 1 2 e0 13959396273037290845 4886717676309322876]"
       "[3 4 2 e6 16482018680137732575 1982109538993160505]"
       "[5 6 4 e6 16482018680137732575 16399839223946519967]"
       "[1 0 2 e6 16482018680137732575 14684181416660108395]"
       "(r2 3200/237150/0)"},
      {12510, 3980, 625500, 831, 4032, 12510,
       "[0 1 2 e0 16636469726773781457 8584498256609504514]"
       "[3 4 2 e5 12246848527150441181 14419120720282772398]"
       "[5 4 6 e7 9672939013939678161 15849972948194351960]"
       "[1 0 2 e5 12246848527150441181 13100699106069252543]"
       "(r2 3200/230100/0)"},
  };
  for (size_t s = 0; s < 3; ++s) {
    std::vector<BoundQuery> batch = {Query(0, 1), Query(3, 2), Query(5, 3),
                                     Query(1, 4)};
    auto exec = BatchExecutor::Create(batch, Options(kSeeds[s])).value();
    exec->Start();
    for (int i = 0; i < kStepsBeforeHarvest; ++i) {
      ASSERT_TRUE(exec->Step()) << "batch finished before the harvest point";
    }
    ASSERT_TRUE(exec->EvictWithResult(0).ok());
    while (exec->Step()) {
    }
    const std::vector<BatchItem> items = exec->TakeItems();
    ASSERT_EQ(items.size(), batch.size());
    const MatchResult& harvested = items.front().match;
    EXPECT_TRUE(harvested.best_effort);
    EXPECT_EQ(harvested.diag.rounds, 2);
    EXPECT_EQ(harvested.diag.stage3_samples, 0);
    Pin got = BatchPin(*exec, items);
    got.answers += Diag(harvested.diag);
    ExpectPin(got, want[s], "harvest seed " + std::to_string(kSeeds[s]));
  }
}

TEST(ScanPinTest, WarmResumedProgressAndHarvestPerSeed) {
  // WarmResumedBatchPerSeed's batch, fully subscribed, harvests query 0
  // inside a stage-2 round: a warm query's progress stream and its
  // best-effort harvest both pool the prior with the resumed scan. At
  // every seed, after these chunks, query 0 has completed one stage-2
  // round and is inside its second.
  const int kStepsBeforeHarvest = 60;
  const Pin want[3] = {
      {9797, 5310, 489850, 392, 8832, 9861,
       "[0 1 2 e0 17204411673087824665 15178565247281535866]"
       "[3 4 2 e5 17819267987986889783 5483365107611883613]"
       "[5 6 4 e5 17819267987986889783 3498334519593190805]"
       "{61:5784126251093255980}{392:8373192437241369056}"
       "{392:5225823639044358584}(r2 3200/189150/0)"},
      {10663, 3863, 533150, 465, 960, 10727,
       "[0 1 2 e0 5571552335411088173 17508830781403154504]"
       "[3 4 2 e6 16482018680137732575 1982109538993160505]"
       "[5 6 4 e6 16482018680137732575 16399839223946519967]"
       "{61:7299619600211253638}{465:12390098060717621285}"
       "{465:11625180403937451210}(r2 3200/189850/0)"},
      {12443, 4789, 622150, 880, 7232, 12507,
       "[0 1 2 e0 14410436819910659059 13013345571544490155]"
       "[3 4 2 e5 15974182782784579107 12223858659469803055]"
       "[5 4 6 e7 8827330010823703611 10252870537430906724]"
       "{61:14612112197796221596}{488:16685133203590865453}"
       "{880:12349069018607804999}(r2 3200/188300/0)"},
  };
  for (size_t s = 0; s < 3; ++s) {
    auto exec = WarmResumedBatch(kSeeds[s]);
    ProgressLog log(exec->num_queries());
    exec->SetProgressCallback(
        [&log](size_t index, const ProgressUpdate& up) {
          log.Record(index, up);
        });
    exec->Start();
    for (int i = 0; i < kStepsBeforeHarvest; ++i) {
      ASSERT_TRUE(exec->Step()) << "batch finished before the harvest point";
    }
    ASSERT_TRUE(exec->EvictWithResult(0).ok());
    while (exec->Step()) {
    }
    const std::vector<BatchItem> items = exec->TakeItems();
    EXPECT_EQ(exec->stats().warm_queries, 3);
    const MatchResult& harvested = items.front().match;
    EXPECT_TRUE(harvested.best_effort);
    EXPECT_TRUE(harvested.diag.stage1_warm);
    EXPECT_EQ(harvested.diag.rounds, 2);
    EXPECT_EQ(harvested.diag.stage3_samples, 0);
    Pin got = BatchPin(*exec, items);
    got.answers += log.Render();
    got.answers += Diag(harvested.diag);
    ExpectPin(got, want[s],
              "warm resumed harvest seed " + std::to_string(kSeeds[s]));
  }
}

}  // namespace
}  // namespace fastmatch
