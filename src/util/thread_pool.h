// A fixed-size worker pool for CPU-parallel block scanning.
//
// Deliberately minimal: tasks are std::function thunks pushed through one
// mutex-guarded deque (queue contention is irrelevant at block-scan
// granularity — each task scans hundreds of blocks), and ParallelFor is a
// blocking fork-join over an atomic index under a per-call quota, the
// shape the batch executor's per-chunk shard reads want.
//
// Determinism note: ParallelFor guarantees each index runs exactly once
// but on an unspecified thread. Callers that need reproducible output
// must make per-index results order-independent — the batch executor's
// shard merges are integer count sums, which commute, so its results are
// bit-for-bit identical for every pool size.

#ifndef FASTMATCH_UTIL_THREAD_POOL_H_
#define FASTMATCH_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace fastmatch {

/// \brief One process-wide worker pool shared by every batch executor.
///
/// A fixed set of workers serves every batch, and each batch's slice of
/// it is bounded by a per-call quota (ParallelFor's `quota`) — a batch
/// asking for 4 workers occupies at most 4 of the shared threads while
/// other batches' tasks interleave in the rest. So the process thread
/// count stays constant however many store pipelines are live, and no
/// batch pays pool construction on its critical path.
///
/// Quotas are enforced by fanout, not by preemption: a batch submits at
/// most `quota` worker-slot tasks per chunk, so it can never hold more
/// than that many threads at once. FIFO task order keeps batches from
/// starving each other at equal quota.
class SharedWorkerPool {
 public:
  /// \brief Spawns `num_threads` shared workers (clamped to >= 1).
  explicit SharedWorkerPool(int num_threads);

  /// \brief Joins the workers. No ParallelFor may be in flight.
  ~SharedWorkerPool();

  SharedWorkerPool(const SharedWorkerPool&) = delete;
  SharedWorkerPool& operator=(const SharedWorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// \brief Runs fn(i) for every i in [0, n) using at most `quota` of
  /// the shared workers concurrently, and blocks until all calls
  /// return. fn must be safe to call concurrently. Runs inline on the
  /// caller when the effective fanout is 1. Must not be called from
  /// inside a pool task.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                   int quota);

  /// \brief Lazily-created process-wide instance, sized from
  /// FASTMATCH_POOL_THREADS when set, else hardware concurrency. Never
  /// destroyed (it must outlive every static-destruction-order client).
  static SharedWorkerPool& Process();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_task_;  // workers wait for tasks or stop
  std::deque<std::function<void()>> tasks_ FASTMATCH_GUARDED_BY(mu_);
  bool stop_ FASTMATCH_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, joined only by the destructor;
  /// size() reads the stable vector length.
  std::vector<std::thread> threads_;
};

}  // namespace fastmatch

#endif  // FASTMATCH_UTIL_THREAD_POOL_H_
