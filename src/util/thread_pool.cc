#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/env.h"
#include "util/logging.h"

namespace fastmatch {

SharedWorkerPool::SharedWorkerPool(int num_threads) {
  const int n = std::max(num_threads, 1);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

SharedWorkerPool::~SharedWorkerPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_task_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void SharedWorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && tasks_.empty()) cv_task_.Wait(&mu_);
      if (tasks_.empty()) return;  // stop requested and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void SharedWorkerPool::ParallelFor(int64_t n,
                                   const std::function<void(int64_t)>& fn,
                                   int quota) {
  if (n <= 0) return;
  const int fanout =
      static_cast<int>(std::min<int64_t>(n, std::min(quota, size())));
  if (fanout <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Fork-join state private to this call, so concurrent ParallelFors
  // never observe each other's completion.
  std::atomic<int64_t> next{0};
  Mutex mu;
  CondVar cv;
  int remaining = fanout;
  auto body = [&] {
    int64_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) fn(i);
    MutexLock lock(&mu);
    if (--remaining == 0) cv.NotifyOne();
  };
  {
    MutexLock lock(&mu_);
    FASTMATCH_CHECK(!stop_) << "ParallelFor on a stopping SharedWorkerPool";
    for (int w = 0; w < fanout; ++w) tasks_.emplace_back(body);
  }
  for (int w = 0; w < fanout; ++w) cv_task_.NotifyOne();
  MutexLock lock(&mu);
  while (remaining != 0) cv.Wait(&mu);
}

SharedWorkerPool& SharedWorkerPool::Process() {
  // Leaked on purpose: scheduler objects with static storage duration
  // may still run batches during exit, and thread count here is bounded
  // for the process lifetime anyway.
  static SharedWorkerPool* process = new SharedWorkerPool(static_cast<int>(
      GetEnvInt64("FASTMATCH_POOL_THREADS",
                  static_cast<int64_t>(std::max(
                      1u, std::thread::hardware_concurrency())))));
  return *process;
}

}  // namespace fastmatch
