// Differential suite for the scan kernels: the AVX2 path must produce
// bit-for-bit identical CountMatrix contents (cells and row totals) to
// the scalar reference on every ValueType pair
// and odd tail length, at the raw-kernel, IoManager, and batch-executor
// levels; bitmap-index block skipping must change I/O accounting
// only, never results.

#include "engine/scan_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/io_manager.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::PlantedDistributions;

// Rows per slice exercised by every differential: below/at/above the
// 8-lane width, the 4-way unroll, and the 4096-row key tile, always
// including odd tails.
const std::vector<int64_t> kRowCounts = {0,   1,    5,    7,    8,   9,
                                         63,  600,  601,  4095, 4096,
                                         4097, 9001};

template <typename T>
std::vector<T> RandomValues(int64_t rows, uint32_t bound, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> values(static_cast<size_t>(rows));
  for (T& v : values) v = static_cast<T>(rng() % bound);
  return values;
}

void ExpectSameMatrix(const CountMatrix& a, const CountMatrix& b) {
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (int c = 0; c < a.num_candidates(); ++c) {
    ASSERT_EQ(a.RowTotal(c), b.RowTotal(c)) << "row total of candidate " << c;
    for (int g = 0; g < a.num_groups(); ++g) {
      ASSERT_EQ(a.At(c, g), b.At(c, g)) << "cell (" << c << ", " << g << ")";
    }
  }
}

/// One typed scalar-vs-AVX2 differential over every slice length.
/// `cands * groups` <= 2048 exercises the sub-histogram accumulator,
/// larger domains the direct-add path.
template <typename ZT, typename XT>
void RunTypedDifferential(int cands, int groups) {
  if (!ScanKernelSimdSupported()) {
    GTEST_SKIP() << "AVX2 kernel unavailable (scalar-only build or CPU)";
  }
  for (int64_t rows : kRowCounts) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const auto z = RandomValues<ZT>(rows, static_cast<uint32_t>(cands),
                                    static_cast<uint64_t>(rows) * 31 + 1);
    const auto x = RandomValues<XT>(rows, static_cast<uint32_t>(groups),
                                    static_cast<uint64_t>(rows) * 37 + 2);
    CountMatrix scalar_m(cands, groups);
    CountMatrix simd_m(cands, groups);
    ScanBlockScalar(z.data(), x.data(), rows, &scalar_m);
    ASSERT_TRUE(ScanBlockSimd(z.data(), x.data(), rows, &simd_m));
    ExpectSameMatrix(scalar_m, simd_m);
  }
}

// All nine ValueType pairs of the typed dispatch, both accumulator
// shapes each.
TEST(ScanKernelDifferential, U8U8) {
  RunTypedDifferential<uint8_t, uint8_t>(23, 11);
  RunTypedDifferential<uint8_t, uint8_t>(97, 65);
}
TEST(ScanKernelDifferential, U8U16) {
  RunTypedDifferential<uint8_t, uint16_t>(23, 11);
  RunTypedDifferential<uint8_t, uint16_t>(41, 130);
}
TEST(ScanKernelDifferential, U8U32) {
  RunTypedDifferential<uint8_t, uint32_t>(23, 11);
  RunTypedDifferential<uint8_t, uint32_t>(17, 400);
}
TEST(ScanKernelDifferential, U16U8) {
  RunTypedDifferential<uint16_t, uint8_t>(23, 11);
  RunTypedDifferential<uint16_t, uint8_t>(1000, 4);
}
TEST(ScanKernelDifferential, U16U16) {
  RunTypedDifferential<uint16_t, uint16_t>(23, 11);
  RunTypedDifferential<uint16_t, uint16_t>(300, 300);
}
TEST(ScanKernelDifferential, U16U32) {
  RunTypedDifferential<uint16_t, uint32_t>(23, 11);
  RunTypedDifferential<uint16_t, uint32_t>(700, 90);
}
TEST(ScanKernelDifferential, U32U8) {
  RunTypedDifferential<uint32_t, uint8_t>(23, 11);
  RunTypedDifferential<uint32_t, uint8_t>(1024, 200);
}
TEST(ScanKernelDifferential, U32U16) {
  RunTypedDifferential<uint32_t, uint16_t>(23, 11);
  RunTypedDifferential<uint32_t, uint16_t>(600, 120);
}
TEST(ScanKernelDifferential, U32U32) {
  RunTypedDifferential<uint32_t, uint32_t>(23, 11);
  // The widest flat domain the suite touches: forces the direct-add
  // accumulator with u32 keys near the top of the suitability range.
  RunTypedDifferential<uint32_t, uint32_t>(1000, 65536);
}

// ------------------------------------------------------ generic path

/// A type-erased column with random codes below `card`.
struct AnyColumn {
  std::vector<uint8_t> bytes;
  ValueType type = ValueType::kU8;
  int card = 0;

  ScanColumn column() const { return {bytes.data(), type, card}; }
};

AnyColumn MakeAnyColumn(int64_t rows, int card, ValueType type,
                        uint64_t seed) {
  AnyColumn col;
  col.type = type;
  col.card = card;
  col.bytes.resize(static_cast<size_t>(rows) * ValueWidth(type));
  std::mt19937_64 rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    const uint32_t v = static_cast<uint32_t>(rng() % card);
    std::memcpy(col.bytes.data() + r * ValueWidth(type), &v,
                static_cast<size_t>(ValueWidth(type)));
  }
  return col;
}

void RunGenericDifferential(int cands, ValueType z_type,
                            const std::vector<std::pair<int, ValueType>>& xs) {
  if (!ScanKernelSimdSupported()) {
    GTEST_SKIP() << "AVX2 kernel unavailable (scalar-only build or CPU)";
  }
  int groups = 1;
  for (const auto& [card, type] : xs) groups *= card;
  for (int64_t rows : kRowCounts) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const AnyColumn z = MakeAnyColumn(rows, cands, z_type,
                                      static_cast<uint64_t>(rows) * 131 + 7);
    std::vector<AnyColumn> x_cols;
    std::vector<ScanColumn> x_scan;
    for (size_t i = 0; i < xs.size(); ++i) {
      x_cols.push_back(MakeAnyColumn(rows, xs[i].first, xs[i].second,
                                     static_cast<uint64_t>(rows) * 17 + i));
      x_scan.push_back(x_cols.back().column());
    }
    CountMatrix scalar_m(cands, groups);
    CountMatrix simd_m(cands, groups);
    CountMatrix brute(cands, groups);
    ScanBlockGenericScalar(z.column(), x_scan.data(),
                           static_cast<int>(x_scan.size()), rows, &scalar_m);
    ASSERT_TRUE(ScanBlockGenericSimd(z.column(), x_scan.data(),
                                     static_cast<int>(x_scan.size()), rows,
                                     &simd_m));
    // Independent ground truth so both kernels cannot share one bug.
    for (int64_t r = 0; r < rows; ++r) {
      int g = 0;
      for (const ScanColumn& xc : x_scan) {
        g = g * xc.card +
            static_cast<int>(ScanLoadValue(xc.data, r, xc.type));
      }
      brute.Add(static_cast<int>(ScanLoadValue(z.bytes.data(), r, z.type)),
                g);
    }
    ExpectSameMatrix(scalar_m, simd_m);
    ExpectSameMatrix(brute, simd_m);
  }
}

TEST(ScanKernelDifferential, GenericTwoColumns) {
  RunGenericDifferential(23, ValueType::kU8,
                         {{5, ValueType::kU16}, {7, ValueType::kU8}});
}
TEST(ScanKernelDifferential, GenericThreeColumnsMixed) {
  RunGenericDifferential(300, ValueType::kU16,
                         {{5, ValueType::kU8},
                          {3, ValueType::kU32},
                          {4, ValueType::kU16}});
}
TEST(ScanKernelDifferential, GenericWideCandidates) {
  RunGenericDifferential(1000, ValueType::kU32,
                         {{6, ValueType::kU32}, {9, ValueType::kU8}});
}

// ---------------------------------------------------- dispatch gates

TEST(ScanKernelTest, OversizedDomainsFallBackToScalar) {
  // |VZ| past the stack tally: the AVX2 entry refuses, the auto
  // dispatcher still counts correctly through the scalar kernel.
  CountMatrix big_vz(kScanTallyMaxCandidates + 1, 4);
  const std::vector<uint16_t> z = {9};
  const std::vector<uint8_t> x = {3};
  EXPECT_FALSE(ScanBlockSimd(z.data(), x.data(), 1, &big_vz));
  EXPECT_FALSE(ScanBlock(z.data(), x.data(), 1, &big_vz));
  EXPECT_EQ(big_vz.At(9, 3), 1);
  EXPECT_EQ(big_vz.RowTotal(9), 1);
}

TEST(ScanKernelTest, SelectionReporting) {
  // Compiled => name reflects the runtime CPU check; not compiled =>
  // everything reports scalar. Either way supported => compiled.
  EXPECT_TRUE(!ScanKernelSimdSupported() || ScanKernelSimdCompiled());
  EXPECT_STREQ(ScanKernelName(),
               ScanKernelSimdSupported() ? "avx2" : "scalar");
}

// ------------------------------------------------- IoManager dispatch

std::shared_ptr<ColumnStore> MakeTypedStore(uint32_t z_card, uint32_t x_card,
                                            uint32_t z_used, uint32_t x_used,
                                            int64_t rows, int rows_per_block,
                                            uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Value> z(static_cast<size_t>(rows));
  std::vector<Value> x(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    z[static_cast<size_t>(r)] = static_cast<Value>(rng() % z_used);
    x[static_cast<size_t>(r)] = static_cast<Value>(rng() % x_used);
  }
  StorageOptions options;
  options.rows_per_block_override = rows_per_block;
  auto store = ColumnStore::FromColumns(Schema({{"Z", z_card}, {"X", x_card}}),
                                        {std::move(z), std::move(x)}, options);
  FASTMATCH_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

/// Reads every block through IoManager (auto-dispatched kernel) and
/// checks cells and row totals against a brute-force fold.
void RunIoManagerDifferential(uint32_t z_card, uint32_t x_card) {
  // 601 rows at 97 per block: six full blocks and an odd 19-row tail.
  const int64_t rows = 601;
  auto store = MakeTypedStore(z_card, x_card, std::min(z_card, 40u),
                              std::min(x_card, 30u), rows, 97,
                              z_card * 131 + x_card);
  auto io = IoManager::Create(store, 0, {1}).value();
  CountMatrix got(io->num_candidates(), io->num_groups());
  int64_t rows_read = 0;
  for (BlockId b = 0; b < io->pin().num_blocks; ++b) {
    rows_read += io->ReadBlock(b, &got);
  }
  EXPECT_EQ(rows_read, rows);
  CountMatrix want(io->num_candidates(), io->num_groups());
  for (RowId r = 0; r < rows; ++r) {
    want.Add(static_cast<int>(store->column(0).Get(r)),
             static_cast<int>(store->column(1).Get(r)));
  }
  ExpectSameMatrix(want, got);
}

TEST(ScanKernelIoManager, TypedDispatchMatchesBruteForce) {
  RunIoManagerDifferential(200, 13);      // u8  x u8
  RunIoManagerDifferential(200, 300);     // u8  x u16
  RunIoManagerDifferential(40, 65537);    // u8  x u32
  RunIoManagerDifferential(300, 13);      // u16 x u8
  RunIoManagerDifferential(300, 300);     // u16 x u16
  RunIoManagerDifferential(65537, 13);    // u32 x u8
  // u16/u32 x u32 pairs allocate card-product matrices too large for a
  // unit test; the raw-kernel differential above covers their
  // arithmetic and the dispatch template is identical.
}

TEST(ScanKernelIoManager, GenericDispatchMatchesBruteForce) {
  const int64_t rows = 601;
  std::mt19937_64 rng(97);
  std::vector<Value> z(static_cast<size_t>(rows));
  std::vector<Value> x1(static_cast<size_t>(rows));
  std::vector<Value> x2(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    z[static_cast<size_t>(r)] = static_cast<Value>(rng() % 23);
    x1[static_cast<size_t>(r)] = static_cast<Value>(rng() % 5);
    x2[static_cast<size_t>(r)] = static_cast<Value>(rng() % 300);
  }
  StorageOptions options;
  options.rows_per_block_override = 97;
  auto store =
      ColumnStore::FromColumns(Schema({{"Z", 23}, {"A", 5}, {"B", 300}}),
                               {std::move(z), std::move(x1), std::move(x2)},
                               options)
          .value();
  auto io = IoManager::Create(store, 0, {1, 2}).value();
  ASSERT_EQ(io->num_groups(), 5 * 300);
  CountMatrix got(io->num_candidates(), io->num_groups());
  for (BlockId b = 0; b < io->pin().num_blocks; ++b) {
    io->ReadBlock(b, &got);
  }
  CountMatrix want(io->num_candidates(), io->num_groups());
  for (RowId r = 0; r < rows; ++r) {
    const int g = static_cast<int>(store->column(1).Get(r)) * 300 +
                  static_cast<int>(store->column(2).Get(r));
    want.Add(static_cast<int>(store->column(0).Get(r)), g);
  }
  ExpectSameMatrix(want, got);
}

// ----------------------------------------------- index pre-skip runs

HistSimParams SkipParams() {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 10000;
  p.seed = 42;
  return p;
}

struct PreSkipFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
  Distribution target;
};

/// Exactly n X-values following `d` (largest-remainder, like
/// MakeExactStore), shuffled with `seed`.
std::vector<Value> ExactXValues(int64_t n, const Distribution& d,
                                uint64_t seed) {
  const int vx = static_cast<int>(d.size());
  std::vector<int64_t> bins(static_cast<size_t>(vx));
  std::vector<std::pair<double, int>> remainders;
  int64_t assigned = 0;
  for (int j = 0; j < vx; ++j) {
    const double want = d[static_cast<size_t>(j)] * static_cast<double>(n);
    bins[static_cast<size_t>(j)] = static_cast<int64_t>(want);
    assigned += bins[static_cast<size_t>(j)];
    remainders.push_back(
        {want - static_cast<double>(bins[static_cast<size_t>(j)]), j});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](auto& a, auto& b) { return a.first > b.first; });
  for (int64_t r = 0; r < n - assigned; ++r) {
    bins[static_cast<size_t>(remainders[static_cast<size_t>(r)].second)]++;
  }
  std::vector<Value> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int j = 0; j < vx; ++j) {
    for (int64_t c = 0; c < bins[static_cast<size_t>(j)]; ++c) {
      xs.push_back(static_cast<Value>(j));
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(xs.begin(), xs.end(), rng);
  return xs;
}

/// Appends every (z, x) row of the given candidates, shuffled within
/// the region only — candidates stay localized to this stretch of rows.
void AppendRegion(const std::vector<int>& cands,
                  const std::vector<int64_t>& rows,
                  const std::vector<Distribution>& dists, uint64_t seed,
                  std::vector<Value>* z_col, std::vector<Value>* x_col) {
  std::vector<std::pair<Value, Value>> region;
  for (int i : cands) {
    const int64_t n = rows[static_cast<size_t>(i)];
    for (Value xv : ExactXValues(n, dists[static_cast<size_t>(i)],
                                 seed * 131 + static_cast<uint64_t>(i))) {
      region.push_back({static_cast<Value>(i), xv});
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(region.begin(), region.end(), rng);
  for (const auto& [zv, xv] : region) {
    z_col->push_back(zv);
    x_col->push_back(xv);
  }
}

/// sparse=true: the three TOP candidates {0, 1, 2} are rare AND
/// localized — their 600 rows each live only in the trailing ~36
/// blocks, while nine far, abundant candidates fill the leading ~3600.
/// Stage 1 leaves the top candidates with wide-open intervals, so the
/// post-stage-1 target demand is concentrated on them and AnyActive
/// marking can skip almost the whole relation — the pre-skip scenario.
/// sparse=false: candidates are interleaved round-robin, so EVERY
/// 50-row block provably contains all twelve — no block is ever
/// skippable, by construction rather than by chance.
PreSkipFixture MakePreSkipFixture(bool sparse, uint64_t seed) {
  PreSkipFixture f;
  // The far nine sit at L1 distance >= 1.2 from uniform — so wide a gap
  // that stage 1 alone excludes them from top-3 contention, leaving the
  // post-stage-1 demand on the localized top three only.
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.60, 0.62, 0.64,
                                 0.66, 0.68, 0.70, 0.72, 0.74, 0.76};
  auto dists = PlantedDistributions(12, 8, offsets);
  if (sparse) {
    std::vector<int64_t> rows(12, 20000);
    rows[0] = rows[1] = rows[2] = 600;
    std::vector<Value> z_col, x_col;
    AppendRegion({3, 4, 5, 6, 7, 8, 9, 10, 11}, rows, dists, seed, &z_col,
                 &x_col);
    AppendRegion({0, 1, 2}, rows, dists, seed + 1, &z_col, &x_col);
    StorageOptions options;
    options.rows_per_block_override = 50;
    f.store = ColumnStore::FromColumns(Schema({{"Z", 12}, {"X", 8}}),
                                       {std::move(z_col), std::move(x_col)},
                                       options)
                  .value();
  } else {
    const int64_t per_candidate = 4000;
    std::vector<std::vector<Value>> xs;
    for (int i = 0; i < 12; ++i) {
      xs.push_back(ExactXValues(per_candidate, dists[static_cast<size_t>(i)],
                                seed * 17 + static_cast<uint64_t>(i)));
    }
    std::vector<Value> z_col, x_col;
    for (int64_t r = 0; r < per_candidate * 12; ++r) {
      const int i = static_cast<int>(r % 12);
      z_col.push_back(static_cast<Value>(i));
      x_col.push_back(xs[static_cast<size_t>(i)][static_cast<size_t>(r / 12)]);
    }
    StorageOptions options;
    options.rows_per_block_override = 50;
    f.store = ColumnStore::FromColumns(Schema({{"Z", 12}, {"X", 8}}),
                                       {std::move(z_col), std::move(x_col)},
                                       options)
                  .value();
  }
  f.index = BitmapIndex::Build(*f.store, 0).value();
  f.target = UniformDistribution(8);
  return f;
}

BoundQuery PreSkipQuery(const PreSkipFixture& f, bool with_index) {
  BoundQuery q;
  q.store = f.store;
  if (with_index) q.z_index = f.index;
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = f.target;
  q.params = SkipParams();
  return q;
}

struct PreSkipRun {
  std::vector<BatchItem> items;
  BatchStats stats;
};

PreSkipRun RunPreSkip(const PreSkipFixture& f, bool with_index,
                      int threads) {
  BatchOptions o;
  o.num_threads = threads;
  o.chunk_blocks = 64;
  o.seed = 7;
  auto executor =
      BatchExecutor::Create({PreSkipQuery(f, with_index)}, o).value();
  PreSkipRun run;
  run.items = executor->Run();
  run.stats = executor->stats();
  return run;
}

void ExpectSameItems(const std::vector<BatchItem>& a,
                     const std::vector<BatchItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].status.ok(), b[i].status.ok());
    if (!a[i].status.ok()) continue;
    EXPECT_EQ(a[i].match.topk, b[i].match.topk);
    EXPECT_EQ(a[i].match.topk_distances, b[i].match.topk_distances);
    EXPECT_EQ(a[i].match.distances, b[i].match.distances);
  }
}

TEST(IndexPreSkipTest, IndexUnlocksSkippingOverSequentialConsumption) {
  // Without an index a targets demand forces sequential consumption;
  // the bitmap index must lift that without changing the answer.
  PreSkipFixture f = MakePreSkipFixture(/*sparse=*/true, 5);
  PreSkipRun none = RunPreSkip(f, /*with_index=*/false, 2);
  PreSkipRun index = RunPreSkip(f, /*with_index=*/true, 2);
  EXPECT_EQ(none.stats.blocks_skipped, 0);
  EXPECT_GT(index.stats.blocks_skipped, 0);
  EXPECT_LT(index.stats.blocks_read, none.stats.blocks_read);
  // Skipping changes which rows of NON-demanded candidates get counted
  // along the way, so intermediate estimates (and exact distances of
  // rows never enumerated) legitimately differ from the sequential run;
  // what must agree is the answer itself. The planted top three sit at
  // distances {0, .02, .04} with the next candidate at 1.2 — far beyond
  // epsilon — so both runs must select exactly {0, 1, 2}.
  for (const PreSkipRun* run : {&none, &index}) {
    ASSERT_EQ(run->items.size(), 1u);
    ASSERT_TRUE(run->items[0].status.ok());
    std::vector<int> topk = run->items[0].match.topk;
    std::sort(topk.begin(), topk.end());
    EXPECT_EQ(topk, (std::vector<int>{0, 1, 2}));
  }
}

TEST(IndexPreSkipTest, NoSkippableBlocksMeansIdenticalAccounting) {
  // Every candidate appears in every block: marking can never skip, so
  // index on/off must agree on blocks_read exactly, not just on
  // results.
  PreSkipFixture f = MakePreSkipFixture(/*sparse=*/false, 7);
  PreSkipRun none = RunPreSkip(f, /*with_index=*/false, 2);
  PreSkipRun index = RunPreSkip(f, /*with_index=*/true, 2);
  EXPECT_EQ(index.stats.blocks_skipped, 0);
  EXPECT_EQ(none.stats.blocks_read, index.stats.blocks_read);
  EXPECT_EQ(none.stats.rows_read, index.stats.rows_read);
  ExpectSameItems(none.items, index.items);
}

TEST(IndexPreSkipTest, BitForBitAcrossThreadCounts) {
  for (uint64_t seed : {11u, 13u}) {
    PreSkipFixture f = MakePreSkipFixture(/*sparse=*/true, seed);
    PreSkipRun one = RunPreSkip(f, /*with_index=*/true, 1);
    EXPECT_GT(one.stats.blocks_skipped, 0) << "seed " << seed;
    for (int threads : {2, 3, 5}) {
      PreSkipRun more = RunPreSkip(f, /*with_index=*/true, threads);
      EXPECT_EQ(one.stats.blocks_read, more.stats.blocks_read);
      EXPECT_EQ(one.stats.blocks_skipped, more.stats.blocks_skipped);
      ExpectSameItems(one.items, more.items);
    }
  }
}

}  // namespace
}  // namespace fastmatch
