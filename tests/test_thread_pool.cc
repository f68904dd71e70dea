#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace fastmatch {
namespace {

// WorkerPoolTest/WorkerPoolStress drive the plain fork-join at full
// quota (pool.size()); SharedWorkerPoolTest covers the per-call quotas.

TEST(WorkerPoolTest, ClampsThreadCountToAtLeastOne) {
  SharedWorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  SharedWorkerPool pool2(-3);
  EXPECT_EQ(pool2.size(), 1);
}

TEST(WorkerPoolTest, ParallelForCoversEachIndexExactlyOnce) {
  SharedWorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(
      1000,
      [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      },
      pool.size());
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPoolTest, ParallelForHandlesEmptyAndSingleRanges) {
  SharedWorkerPool pool(3);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; }, pool.size());
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller (no pool thread involved).
  pool.ParallelFor(
      1, [&](int64_t i) { calls += static_cast<int>(i) + 1; }, pool.size());
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPoolTest, SingleWorkerPoolRunsParallelForInline) {
  SharedWorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.ParallelFor(
      8,
      [&](int64_t i) {
        seen[static_cast<size_t>(i)] = std::this_thread::get_id();
      },
      pool.size());
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(WorkerPoolTest, ParallelForSumMatchesSerial) {
  SharedWorkerPool pool(4);
  const int64_t n = 4096;
  std::vector<int64_t> slot(static_cast<size_t>(n), 0);
  pool.ParallelFor(
      n, [&](int64_t i) { slot[static_cast<size_t>(i)] = i * i; },
      pool.size());
  int64_t parallel_sum = 0, serial_sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    parallel_sum += slot[static_cast<size_t>(i)];
    serial_sum += i * i;
  }
  EXPECT_EQ(parallel_sum, serial_sum);
}

// ------------------------------------------------ concurrency stress
// Repeated fork-joins with shared state shake out races in the queue and
// the per-call completion latch (run under FASTMATCH_SANITIZE=thread).

TEST(WorkerPoolStress, RepeatedParallelForRounds) {
  SharedWorkerPool pool(4);
  std::vector<int64_t> cells(256, 0);
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(
        256, [&](int64_t i) { ++cells[static_cast<size_t>(i)]; }, pool.size());
  }
  for (int64_t c : cells) EXPECT_EQ(c, 200);
}

TEST(SharedWorkerPoolTest, QuotaCoversEveryIndexExactlyOnce) {
  SharedWorkerPool pool(4);
  for (int quota : {1, 2, 4, 9}) {
    std::vector<std::atomic<int>> hits(500);
    pool.ParallelFor(
        500,
        [&](int64_t i) {
          hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        },
        quota);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(SharedWorkerPoolTest, QuotaBoundsConcurrency) {
  // A client with quota q must never have more than q of its tasks
  // running at once, however large the shared pool is. The body spins
  // briefly so overlapping tasks actually overlap.
  SharedWorkerPool pool(8);
  for (int quota : {1, 2, 3}) {
    std::atomic<int> live{0};
    std::atomic<int> high_water{0};
    pool.ParallelFor(
        64,
        [&](int64_t) {
          const int now = live.fetch_add(1, std::memory_order_acq_rel) + 1;
          int seen = high_water.load(std::memory_order_relaxed);
          while (now > seen && !high_water.compare_exchange_weak(
                                   seen, now, std::memory_order_relaxed)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          live.fetch_sub(1, std::memory_order_acq_rel);
        },
        quota);
    EXPECT_LE(high_water.load(), quota) << "quota " << quota;
    EXPECT_GE(high_water.load(), 1);
  }
}

TEST(SharedWorkerPoolTest, ConcurrentClientsShareOnePool) {
  // Two caller threads fork work into the same pool under separate
  // quotas; both complete fully — the fork-join state is per call, so
  // clients never observe each other's completions.
  SharedWorkerPool pool(4);
  std::atomic<int64_t> a{0}, b{0};
  std::thread ta([&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(
          64, [&](int64_t) { a.fetch_add(1, std::memory_order_relaxed); }, 2);
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(
          64, [&](int64_t) { b.fetch_add(1, std::memory_order_relaxed); }, 2);
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 20 * 64);
  EXPECT_EQ(b.load(), 20 * 64);
}

TEST(SharedWorkerPoolTest, ProcessPoolIsASingleton) {
  SharedWorkerPool& a = SharedWorkerPool::Process();
  SharedWorkerPool& b = SharedWorkerPool::Process();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1);
}

}  // namespace
}  // namespace fastmatch
