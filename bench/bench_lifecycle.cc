// Query lifecycle: eager delivery and thread boundedness under store
// churn.
//
// Part 1 — time-to-first-result. Submits bursts of B queries with
// distinct per-user targets (so batchmates finish at different times);
// each burst fills exactly one shared-scan batch. The scheduler
// fulfills a future the moment its machine completes mid-scan, so per
// batch the FIRST result arrives when the FASTEST machine finishes,
// not when the batch retires.
//
// Delivery instants are taken from the scheduler's own per-item
// stamps (SchedulerItem::total_seconds — the moment the promise is
// fulfilled), not from an external waiter clock: on a single-core host
// a waiter thread is not scheduled while the scan runs, so any
// wall-clock probe observes "first ready ~= batch end" regardless of
// when fulfillment happened. Per batch, time-to-first-result =
// min(total_seconds), the last machine's completion = max(total_seconds),
// and the batch span is the wall clock from submitting the burst until
// every future was read. The gap is structural — any batch whose
// members vary in duration has fastest-machine < batch span — so the
// p50 time-to-first-result must be strictly below the p50 batch span of
// the same run on every host; the magnitude (not the sign) is what
// varies with hardware.
//
// Part 2 — thread boundedness. 32 short-lived stores churn through the
// scheduler (batches on the process SharedWorkerPool under quota,
// pipelines reaped after a short idle timeout) while a monitor samples
// /proc/self/task. Expect the peak thread count to stay within pool
// size + live pipelines + harness overhead — NOT to grow with the 32
// stores, which is what per-batch private pools and never-reaped
// pipelines used to cause.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "util/env.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/generator.h"
#include "workload/traffic.h"

using namespace fastmatch;
using namespace fastmatch::bench;

namespace {

struct BurstResult {
  std::vector<double> first_delivery;  // per batch: min total_seconds
  std::vector<double> last_delivery;   // per batch: max total_seconds
  std::vector<double> wall_span;       // per batch: submit -> all ready
  int64_t eager_delivered = 0;
  int64_t batches = 0;
};

/// Runs the burst batches to completion and collects the scheduler's
/// own delivery stamps (see the header comment for why an external
/// waiter clock cannot observe intra-batch fulfillment on one core).
BurstResult RunBursts(const std::vector<std::vector<BoundQuery>>& bursts,
                      SchedulerOptions options) {
  QueryScheduler scheduler(options);
  BurstResult out;
  WallTimer clock;
  for (const std::vector<BoundQuery>& burst : bursts) {
    std::vector<QueryHandle> handles;
    handles.reserve(burst.size());
    const double submitted_at = clock.Seconds();
    for (const BoundQuery& query : burst) {
      auto handle = scheduler.Submit(query);
      FASTMATCH_CHECK(handle.ok()) << handle.status().ToString();
      handles.push_back(std::move(*handle));
    }
    double first = 0, last = 0;
    for (size_t i = 0; i < handles.size(); ++i) {
      SchedulerItem item = handles[i].Get();
      FASTMATCH_CHECK(item.status.ok()) << item.status.ToString();
      first = i == 0 ? item.total_seconds
                     : std::min(first, item.total_seconds);
      last = std::max(last, item.total_seconds);
    }
    out.first_delivery.push_back(first);
    out.last_delivery.push_back(last);
    out.wall_span.push_back(clock.Seconds() - submitted_at);
  }
  out.eager_delivered = scheduler.stats().eager_delivered;
  out.batches = scheduler.stats().batches_launched;
  scheduler.Shutdown();
  return out;
}

/// A tiny two-attribute store for the churn experiment: Z(12 values)
/// uniform, X(8 values) conditional on Z.
std::shared_ptr<ColumnStore> MakeChurnStore(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<GenAttr> attrs(2);
  attrs[0].name = "Z";
  attrs[0].cardinality = 12;
  attrs[0].marginal.assign(12, 1.0);
  attrs[1].name = "X";
  attrs[1].cardinality = 8;
  attrs[1].parent = 0;
  attrs[1].conditional = MakePrototypes(12, 8, 0.6, &rng);
  return GenerateRows("churn", attrs, rows, &rng);
}

}  // namespace

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Query lifecycle: eager delivery and bounded threads",
              config);

  // --- Part 1: time-to-first-result under eager delivery.
  PaperQuery flights_spec;
  for (const PaperQuery& s : PaperQueries()) {
    if (s.id == "flights-q1") flights_spec = s;
  }
  const PreparedQuery& flights = GetPrepared(flights_spec, config);
  std::printf("%s\n", DatasetSummary(GetDataset("flights", config)).c_str());

  HistSimParams params = config.Params();
  params.k = flights_spec.k;

  // Bursts of kBurst queries with varied targets: each fills exactly
  // one shared-scan batch (max_batch_queries == kBurst launches it the
  // instant the burst is in).
  const int kBurst = 8;
  const int num_batches = 12 * std::max(1, config.runs);
  TrafficOptions topt;
  topt.num_queries = kBurst * num_batches;
  topt.params = params;
  topt.identical_targets = false;  // varied durations: eager's regime
  topt.seed = 20180501;
  auto queries = MakeQueryBatch(flights.bound.store, flights.bound.z_index,
                                flights.bound.z_attr, flights.bound.x_attrs,
                                topt);
  FASTMATCH_CHECK(queries.ok()) << queries.status().ToString();
  std::vector<std::vector<BoundQuery>> bursts(
      static_cast<size_t>(num_batches));
  for (size_t q = 0; q < queries->size(); ++q) {
    BoundQuery query = (*queries)[q];
    // Mixed-tenant batches: half the burst are cheap tenants (loose
    // epsilon AND an 8x smaller stage-1 sample budget — their machines
    // complete a few chunks into the scan), half are expensive ones
    // (full stage-1 budget, tight epsilon — they drive the scan to its
    // full length). This is the service-tier regime eager delivery
    // exists for: without it the cheap tenants wait out the expensive
    // ones, with it they return as soon as their own machine is done.
    if (q % static_cast<size_t>(kBurst) < static_cast<size_t>(kBurst) / 2) {
      query.params.epsilon = 2 * params.epsilon;
      query.params.stage1_samples = std::max<int64_t>(
          1000, params.stage1_samples / 8);
    }
    bursts[q / static_cast<size_t>(kBurst)].push_back(std::move(query));
  }
  std::printf(
      "bursts: %d batches x %d queries (distinct targets; half cheap: "
      "eps=%.3g m=%lld, half full: eps=%.3g m=%lld)\n\n",
      num_batches, kBurst, 2 * params.epsilon,
      static_cast<long long>(
          std::max<int64_t>(1000, params.stage1_samples / 8)),
      params.epsilon, static_cast<long long>(params.stage1_samples));

  SchedulerOptions base;
  base.batch.num_threads = 4;
  // Chunk boundaries are the settle points where machines can complete
  // (and eager delivery can fire): a latency bench wants them fine-
  // grained relative to the scan, not the default amortization-tuned
  // window.
  base.batch.chunk_blocks = std::max(1, config.lookahead / 4);
  base.max_batch_queries = kBurst;  // a burst == one batch
  base.max_queue_wait_seconds = 5.0;

  BurstResult run = RunBursts(bursts, base);

  const double first_p50 = Percentile(run.first_delivery, 0.50);
  const double first_p99 = Percentile(run.first_delivery, 0.99);
  const double last_p50 = Percentile(run.last_delivery, 0.50);
  const double span_p50 = Percentile(run.wall_span, 0.50);
  std::printf("%12s %12s %12s %14s %8s %8s\n", "p50 TTFR (s)", "p99 TTFR (s)",
              "p50 last (s)", "p50 span (s)", "eager", "batches");
  std::printf("%12.4f %12.4f %12.4f %14.4f %8lld %8lld\n", first_p50, first_p99,
              last_p50, span_p50, static_cast<long long>(run.eager_delivered),
              static_cast<long long>(run.batches));
  std::fflush(stdout);

  const double p50_ratio = span_p50 > 0 ? first_p50 / span_p50 : 0;
  std::printf(
      "\np50 time-to-first-result / p50 batch span: %.3f (must be "
      "strictly < 1: the first result of a batch stops waiting for its "
      "stragglers)\n\n",
      p50_ratio);

  // --- Part 2: thread boundedness under 32-store churn.
  const int kChurnStores = 32;
  const int kStoresPerWave = 4;
  const int kQueriesPerStore = 3;
  SharedWorkerPool pool(4);

  SchedulerOptions churn_options;
  churn_options.batch.num_threads = 4;
  churn_options.batch.chunk_blocks = 64;
  churn_options.max_batch_queries = 4;
  churn_options.max_queue_wait_seconds = 0.001;
  churn_options.idle_pipeline_timeout_seconds = 0.05;
  churn_options.pool = &pool;

  HistSimParams churn_params;
  churn_params.k = 3;
  churn_params.epsilon = 0.08;
  churn_params.delta = 0.05;
  churn_params.stage1_samples = 2000;

  const int baseline_threads = CountProcessThreads();
  std::atomic<int> max_threads{0};
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const int now = CountProcessThreads();
      int seen = max_threads.load(std::memory_order_relaxed);
      while (now > seen && !max_threads.compare_exchange_weak(
                               seen, now, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  int64_t churn_completed = 0;
  int64_t pipelines_created = 0, pipelines_reaped = 0;
  {
    QueryScheduler scheduler(churn_options);
    int store_seq = 0;
    while (store_seq < kChurnStores) {
      // One wave of short-lived stores: queries run, stores dropped;
      // the idle timeout then reaps their pipelines before (or while)
      // the next wave arrives.
      std::vector<QueryHandle> handles;
      std::vector<std::shared_ptr<ColumnStore>> wave;
      for (int s = 0; s < kStoresPerWave && store_seq < kChurnStores;
           ++s, ++store_seq) {
        auto store = MakeChurnStore(
            20000, 777 + static_cast<uint64_t>(store_seq));
        auto index = BitmapIndex::Build(*store, 0).value();
        wave.push_back(store);
        for (int q = 0; q < kQueriesPerStore; ++q) {
          BoundQuery query;
          query.store = store;
          query.z_index = index;
          query.z_attr = 0;
          query.x_attrs = {1};
          query.target = UniformDistribution(8);
          query.params = churn_params;
          query.params.seed = static_cast<uint64_t>(store_seq * 10 + q + 1);
          auto handle = scheduler.Submit(std::move(query));
          FASTMATCH_CHECK(handle.ok()) << handle.status().ToString();
          handles.push_back(std::move(*handle));
        }
      }
      for (QueryHandle& handle : handles) {
        SchedulerItem item = handle.Get();
        FASTMATCH_CHECK(item.status.ok()) << item.status.ToString();
        ++churn_completed;
      }
      // Let the reaper catch the now-idle pipelines.
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    pipelines_created = scheduler.stats().pipelines;
    pipelines_reaped = scheduler.stats().pipelines_reaped;
    scheduler.Shutdown();
  }
  done.store(true, std::memory_order_relaxed);
  monitor.join();

  // The bound: shared pool workers + one driver per simultaneously-live
  // pipeline (one wave, plus one wave of not-yet-reaped predecessors) +
  // janitor + monitor + a little harness slack. The point: independent
  // of the 32 total stores.
  const int thread_bound = baseline_threads + pool.size() +
                           2 * kStoresPerWave + 1 + 1 + 4;
  const int peak = max_threads.load();
  std::printf("32-store churn: %lld queries completed, %lld pipelines "
              "created, %lld reaped\n",
              static_cast<long long>(churn_completed),
              static_cast<long long>(pipelines_created),
              static_cast<long long>(pipelines_reaped));
  std::printf(
      "threads: baseline %d, peak %d, bound %d (pool %d + 2x%d pipelines "
      "+ janitor + monitor + slack) -> bounded: %s\n",
      baseline_threads, peak, thread_bound, pool.size(), kStoresPerWave,
      peak <= thread_bound ? "yes" : "NO");
  std::printf(
      "\nShape: p50 time-to-first-result < p50 batch span; peak threads "
      "track the pool and live pipelines, not the 32 churned stores.\n");
  return peak <= thread_bound && p50_ratio < 1.0 ? 0 : 1;
}
