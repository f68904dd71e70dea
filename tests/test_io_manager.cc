// IoManager contract tests: domain validation shared between Create
// and the constructor, and concurrent const reads of one pinned view
// into private shards (the batch executor's topology; run under TSan).

#include "engine/io_manager.h"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "storage/column_store.h"

namespace fastmatch {
namespace {

std::shared_ptr<ColumnStore> MakeStore(uint32_t z_card, uint32_t x_card,
                                       int64_t rows, int rows_per_block,
                                       uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Value> z(static_cast<size_t>(rows));
  std::vector<Value> x(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    z[static_cast<size_t>(r)] = static_cast<Value>(rng() % z_card);
    x[static_cast<size_t>(r)] = static_cast<Value>(rng() % x_card);
  }
  StorageOptions options;
  options.rows_per_block_override = rows_per_block;
  return ColumnStore::FromColumns(Schema({{"Z", z_card}, {"X", x_card}}),
                                  {std::move(z), std::move(x)}, options)
      .value();
}

TEST(IoManagerDomainTest, OversizedCandidateCardinalityIsRejected) {
  // Schema cardinality is declarative: a tiny store may still declare a
  // domain past the (1 << 24) bound, and Create must refuse it before
  // any matrix of that size can be sized.
  auto store = MakeStore((1u << 24) + 1, 4, /*rows=*/64, /*rows_per_block=*/16,
                         /*seed=*/1);
  auto io = IoManager::Create(store, 0, {1});
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoManagerDomainTest, OversizedSingleXCardinalityIsRejected) {
  auto store = MakeStore(4, (1u << 24) + 1, /*rows=*/64, /*rows_per_block=*/16,
                         /*seed=*/2);
  auto io = IoManager::Create(store, 0, {1});
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoManagerDomainTest, OversizedCompositeGroupCardinalityIsRejected) {
  // Each factor fits in 24 bits; the product does not. The cumulative
  // check must catch it (and must do so without the u32 -> int cast
  // wrapping a large factor negative first).
  std::mt19937_64 rng(3);
  const int64_t rows = 64;
  std::vector<Value> z(rows), a(rows), b(rows);
  for (int64_t r = 0; r < rows; ++r) {
    z[static_cast<size_t>(r)] = static_cast<Value>(rng() % 4);
    a[static_cast<size_t>(r)] = static_cast<Value>(rng() % 7);
    b[static_cast<size_t>(r)] = static_cast<Value>(rng() % 5);
  }
  StorageOptions options;
  options.rows_per_block_override = 16;
  auto store =
      ColumnStore::FromColumns(Schema({{"Z", 4}, {"A", 5000}, {"B", 5000}}),
                               {std::move(z), std::move(a), std::move(b)},
                               options)
          .value();
  auto io = IoManager::Create(store, 0, {1, 2});
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoManagerDomainTest, ValidDomainsStillConstruct) {
  auto store = MakeStore(100, 50, /*rows=*/500, /*rows_per_block=*/64,
                         /*seed=*/4);
  auto io = IoManager::Create(store, 0, {1});
  ASSERT_TRUE(io.ok());
  EXPECT_EQ((*io)->num_candidates(), 100);
  EXPECT_EQ((*io)->num_groups(), 50);
}

TEST(IoManagerTest, ConcurrentReadersWithPrivateShardsAgree) {
  // The batch executor's real topology: many worker threads read
  // disjoint blocks of one shared pinned view, each into a PRIVATE
  // matrix, merged afterwards. Under TSan this exercises the read-only
  // view sharing; the merged counts must equal a sequential sweep
  // bit-for-bit.
  auto store = MakeStore(23, 11, /*rows=*/40001, /*rows_per_block=*/97,
                         /*seed=*/6);
  auto io = IoManager::Create(store, 0, {1}).value();
  const int cands = io->num_candidates();
  const int groups = io->num_groups();
  const int64_t num_blocks = io->pin().num_blocks;

  constexpr int kThreads = 4;
  std::vector<CountMatrix> parts;
  for (int t = 0; t < kThreads; ++t) parts.emplace_back(cands, groups);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (BlockId b = t; b < num_blocks; b += kThreads) {
        io->ReadBlock(b, &parts[static_cast<size_t>(t)]);
      }
    });
  }
  for (auto& w : workers) w.join();

  CountMatrix merged(cands, groups);
  for (const CountMatrix& part : parts) merged.Merge(part);
  CountMatrix sequential(cands, groups);
  int64_t rows_read = 0;
  for (BlockId b = 0; b < num_blocks; ++b) {
    rows_read += io->ReadBlock(b, &sequential);
  }
  EXPECT_EQ(rows_read, store->num_rows());
  for (int c = 0; c < cands; ++c) {
    EXPECT_EQ(merged.RowTotal(c), sequential.RowTotal(c)) << "candidate " << c;
    for (int g = 0; g < groups; ++g) {
      EXPECT_EQ(merged.At(c, g), sequential.At(c, g));
    }
  }
}

}  // namespace
}  // namespace fastmatch
