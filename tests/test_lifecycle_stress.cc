// Randomized scheduler torture test (ctest label: "stress"; CI runs it
// under TSan with elevated iterations).
//
// N producer threads submit / cancel / abandon queries with mixed
// deadlines and execution budgets across K stores while the scheduler
// reaps idle pipelines on a timeout shorter than the test's natural
// pauses — so admission, eager delivery, eviction, budget harvesting,
// progress publication, shedding, reaping, and shutdown all race
// for real. The RNG is seeded (FASTMATCH_STRESS_SEED) so failures
// reproduce; FASTMATCH_STRESS_ITERS scales rounds for CI soak runs.
//
// Invariants checked:
//   * every accepted Submit's future resolves (Get never hangs), and
//     resolves exactly once — a double fulfillment would throw
//     std::future_error from the scheduler's promise and abort;
//     stats.completed == stats.submitted seals the count;
//   * terminal states respect the lifecycle: a plain query ends OK
//     with the correct top-k, a deadline query ends OK or
//     DeadlineExceeded, a cancelled query ends OK or Cancelled (a
//     cancel never corrupts a result that beat it), a malformed query
//     ends InvalidArgument, and a budgeted query ends OK — either
//     exact (completion won the race) or best-effort (harvested) —
//     never DeadlineExceeded or Cancelled;
//   * the terminal-state partition seals the ledger: the scheduler's
//     per-code counters sum to the accepted submits, budget-harvested
//     results count under budget_evicted and nowhere else, and only
//     abandoned queries (whose terminal code nobody observes) leave
//     slack between observed tallies and the counters;
//   * progress channels opened mid-storm (track_progress on plain and
//     budgeted queries) deliver: an OK result's poll channel ends on a
//     final update matching the delivered distances bit-for-bit;
//   * the process thread count stays bounded by pool size + pipelines
//     + producers + slack throughout the churn (the SharedWorkerPool /
//     reaping claim), sampled while the storm runs;
//   * stats() is polled throughout the storm, so its own CHECKs of the
//     counter invariants fire mid-flight, and submitted == completed
//     once Shutdown has drained.
//
// FASTMATCH_STAGE1_CACHE=1 re-runs the storm with the stage-1 cache
// enabled (CI's second stress invocation), so warm admission, the
// join-refusal lift, and reap invalidation all race under TSan too.
// The cache-specific churn test (stores dropped and recreated under a
// live cache) is CacheChurnAcrossStoreLifetimes below.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "test_helpers.h"
#include "util/env.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

/// Live threads of this process (Linux: /proc/self/task entries), or -1
/// where that interface is unavailable.
int CountProcessThreads() {
  int n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return ec ? -1 : n;
}

struct StressStore {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
};

StressStore MakeStressStore(uint64_t seed) {
  StressStore s;
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
                                 0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
  auto dists = PlantedDistributions(12, 8, offsets);
  s.store = MakeExactStore(std::vector<int64_t>(12, 1500), dists, seed, 50);
  s.index = BitmapIndex::Build(*s.store, 0).value();
  return s;
}

HistSimParams StressParams(uint64_t seed) {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.08;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 600;
  p.seed = seed;
  return p;
}

enum class Action { kPlain, kDeadline, kCancel, kAbandon, kMalformed, kBudget };

struct Outcome {
  Action action;
  StatusCode code;
  bool topk_ok = false;
  bool best_effort = false;
  // The poll channel's last update reproduced the delivered result
  // (only meaningful when tracked && code == kOk).
  bool tracked = false;
  bool progress_final_ok = false;
};

TEST(LifecycleStressTest, RandomizedSubmitCancelAbandonChurn) {
  const int64_t iters = GetEnvInt64("FASTMATCH_STRESS_ITERS", 1);
  const uint64_t base_seed = static_cast<uint64_t>(
      GetEnvInt64("FASTMATCH_STRESS_SEED", 20180501));
  const int kStores = 3;
  const int kProducers = 4;
  const int kQueriesPerProducer = static_cast<int>(24 * iters);
  const int kRounds = 2;

  SharedWorkerPool pool(3);
  const int baseline_threads = CountProcessThreads();
  if (baseline_threads <= 0) {
    GTEST_SKIP() << "/proc/self/task unavailable on this platform; the "
                    "thread-bound invariant cannot be measured";
  }

  for (int round = 0; round < kRounds; ++round) {
    // Fresh stores every round: pipelines from the previous round are
    // dead, and the new stores may reuse freed addresses — the id-keyed
    // pipeline map must never alias them.
    std::vector<StressStore> stores;
    for (int s = 0; s < kStores; ++s) {
      stores.push_back(
          MakeStressStore(base_seed + static_cast<uint64_t>(round * 100 + s)));
    }

    SchedulerOptions options;
    options.batch.num_threads = 2;
    options.batch.chunk_blocks = 32;
    options.max_batch_queries = 4;
    options.max_queue_wait_seconds = 0.002;
    options.min_join_suffix_fraction = 0.0;
    options.idle_pipeline_timeout_seconds = 0.02;
    options.pool = &pool;
    // CI soaks the storm twice: cold (default) and with the stage-1
    // cache racing the same churn (FASTMATCH_STAGE1_CACHE=1).
    options.stage1_cache = GetEnvInt64("FASTMATCH_STAGE1_CACHE", 0) != 0;

    std::vector<std::vector<Outcome>> outcomes(kProducers);
    std::atomic<int64_t> accepted{0};
    std::atomic<int> max_threads{0};
    std::atomic<bool> storm_over{false};
    std::atomic<int64_t> stats_polls{0};
    SchedulerStats final_stats;

    {
      QueryScheduler scheduler(options);

      // Monitor: samples the thread count while the storm runs, so the
      // bound is checked at peak churn, not after it subsides, and
      // polls stats(), whose own CHECKs then test the counter
      // invariants mid-flight.
      std::thread monitor([&] {
        while (!storm_over.load(std::memory_order_relaxed)) {
          const int now = CountProcessThreads();
          int seen = max_threads.load(std::memory_order_relaxed);
          while (now > seen && !max_threads.compare_exchange_weak(
                                   seen, now, std::memory_order_relaxed)) {
          }
          const SchedulerStats snapshot = scheduler.stats();
          EXPECT_LE(snapshot.completed, snapshot.submitted);
          stats_polls.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });

      std::vector<std::thread> producers;
      for (int t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
          std::mt19937_64 rng(base_seed ^
                              (static_cast<uint64_t>(round * 1000 + t) * 1099511628211ULL));
          std::uniform_real_distribution<double> uni(0.0, 1.0);
          for (int q = 0; q < kQueriesPerProducer; ++q) {
            const StressStore& target_store =
                stores[static_cast<size_t>(rng() % kStores)];
            BoundQuery query;
            query.store = target_store.store;
            query.z_index = target_store.index;
            query.z_attr = 0;
            query.x_attrs = {1};
            query.target = UniformDistribution(8);
            query.params = StressParams(rng());

            const double draw = uni(rng);
            Action action;
            if (draw < 0.15) {
              action = Action::kDeadline;
            } else if (draw < 0.30) {
              action = Action::kCancel;
            } else if (draw < 0.40) {
              action = Action::kAbandon;
            } else if (draw < 0.45) {
              action = Action::kMalformed;
              query.target = UniformDistribution(5);  // |VX| is 8
            } else if (draw < 0.60) {
              action = Action::kBudget;
            } else {
              action = Action::kPlain;
            }

            SubmitOptions submit;
            if (action == Action::kDeadline) {
              // 50us..2ms: some shed, some slip in before expiring.
              submit.deadline_seconds = 5e-5 + uni(rng) * 2e-3;
            }
            if (action == Action::kBudget) {
              // 50us..2ms: some harvested at the first chunk boundary,
              // some only after real progress, some beaten by the
              // machine completing — the evict-vs-completion race runs
              // for real here.
              submit.budget_seconds = 5e-5 + uni(rng) * 2e-3;
            }
            // Half the plain/budget traffic opens a progress channel,
            // so chunk-boundary publication races eviction, joins, and
            // eager delivery under TSan.
            const bool tracked =
                (action == Action::kPlain || action == Action::kBudget) &&
                rng() % 2 == 0;
            submit.track_progress = tracked;
            auto handle = scheduler.Submit(query, submit);
            if (!handle.ok()) {
              // Back-pressure is the only legal Submit-time refusal in
              // this storm.
              ASSERT_EQ(handle.status().code(),
                        StatusCode::kResourceExhausted);
              continue;
            }
            accepted.fetch_add(1, std::memory_order_relaxed);

            switch (action) {
              case Action::kAbandon:
                // Handle dropped without Get(): must auto-cancel.
                break;
              case Action::kCancel: {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<int64_t>(uni(rng) * 2000)));
                handle->Cancel();
                Outcome o{action, StatusCode::kOk, false};
                SchedulerItem item = handle->Get();
                o.code = item.status.code();
                if (item.status.ok()) {
                  std::set<int> got(item.match.topk.begin(),
                                    item.match.topk.end());
                  o.topk_ok = got == std::set<int>{0, 1, 2};
                }
                outcomes[static_cast<size_t>(t)].push_back(o);
                break;
              }
              default: {
                Outcome o{action, StatusCode::kOk, false};
                o.tracked = tracked;
                SchedulerItem item = handle->Get();
                o.code = item.status.code();
                if (item.status.ok()) {
                  std::set<int> got(item.match.topk.begin(),
                                    item.match.topk.end());
                  o.topk_ok = got == std::set<int>{0, 1, 2};
                  o.best_effort = item.match.best_effort;
                  if (tracked) {
                    // An OK result's final update is published before
                    // its future is fulfilled: the poll channel must
                    // already hold it, bit-for-bit.
                    const std::optional<ProgressUpdate> latest =
                        handle->Progress();
                    o.progress_final_ok = latest.has_value() &&
                                          latest->final_update &&
                                          latest->distances ==
                                              item.match.distances &&
                                          latest->error_bars ==
                                              item.match.error_bars;
                  }
                }
                outcomes[static_cast<size_t>(t)].push_back(o);
                break;
              }
            }
            if (uni(rng) < 0.2) {
              // Occasional pauses longer than the reap timeout, so
              // pipelines die and are recreated mid-storm.
              std::this_thread::sleep_for(std::chrono::milliseconds(25));
            }
          }
        });
      }
      for (std::thread& producer : producers) producer.join();

      // Abandoned queries resolve without an observer: wait for the
      // scheduler to account for every accepted query before teardown
      // (bounded poll — shutdown would mask a hang here).
      const int64_t want = accepted.load(std::memory_order_relaxed);
      for (int spin = 0; scheduler.stats().completed < want && spin < 20000;
           ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      SchedulerStats stats = scheduler.stats();
      EXPECT_EQ(stats.completed, want)
          << "round " << round << ": not every accepted future resolved";
      EXPECT_EQ(stats.submitted, want);
      if (options.stage1_cache) {
        // Every cache lookup is a hit or a miss, nothing double-counted,
        // even while admission races reaps and evictions.
        EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses)
            << "round " << round << ": cache counters do not reconcile";
        EXPECT_LE(stats.joins_enabled_by_cache, stats.joined_midflight);
      }

      storm_over.store(true, std::memory_order_relaxed);
      monitor.join();
      scheduler.Shutdown();
      final_stats = scheduler.stats();
    }
    EXPECT_GT(stats_polls.load(), 0);
    EXPECT_EQ(final_stats.submitted, final_stats.completed)
        << "round " << round << ": Shutdown left a query undelivered";

    // Lifecycle legality per category. Top-k quality is judged in
    // aggregate, not per query: HistSim's separation guarantee is
    // probabilistic (delta per query), so a small fraction of OK
    // results may legally rank a borderline candidate differently.
    // Best-effort (budget-harvested) results are excluded from the
    // quality aggregate — they claim only their error bars, whose
    // honesty test_anytime pins against closed-form ground truth.
    int64_t ok_results = 0, wrong_topk = 0;
    int64_t observed = 0, observed_deadline = 0, observed_cancelled = 0,
            observed_best_effort = 0;
    for (const auto& per_thread : outcomes) {
      for (const Outcome& o : per_thread) {
        ++observed;
        observed_deadline += o.code == StatusCode::kDeadlineExceeded;
        observed_cancelled += o.code == StatusCode::kCancelled;
        observed_best_effort += o.code == StatusCode::kOk && o.best_effort;
        if (o.code == StatusCode::kOk && !o.best_effort) {
          ++ok_results;
          wrong_topk += !o.topk_ok;
        }
        if (o.tracked && o.code == StatusCode::kOk) {
          ASSERT_TRUE(o.progress_final_ok)
              << "a tracked OK query's poll channel did not end on its "
                 "delivered result";
        }
        switch (o.action) {
          case Action::kPlain:
            ASSERT_EQ(o.code, StatusCode::kOk);
            ASSERT_FALSE(o.best_effort) << "harvest without a budget";
            break;
          case Action::kBudget:
            // A budget is never an error: expiry harvests a
            // best-effort OK result, and a completion that won the
            // race delivers the exact one.
            ASSERT_EQ(o.code, StatusCode::kOk) << StatusCodeName(o.code);
            break;
          case Action::kDeadline:
            ASSERT_TRUE(o.code == StatusCode::kOk ||
                        o.code == StatusCode::kDeadlineExceeded)
                << StatusCodeName(o.code);
            break;
          case Action::kCancel:
            // A cancel that lost the race must deliver an intact
            // result, never a corrupted one (checked via topk below).
            ASSERT_TRUE(o.code == StatusCode::kOk ||
                        o.code == StatusCode::kCancelled)
                << StatusCodeName(o.code);
            break;
          case Action::kMalformed:
            ASSERT_EQ(o.code, StatusCode::kInvalidArgument);
            break;
          case Action::kAbandon:
            FAIL() << "abandoned queries record no outcome";
        }
      }
    }
    ASSERT_GT(ok_results, 0);
    // delta = 0.05 per query; 0.25 leaves a wide margin while still
    // catching systematic corruption (e.g. torn counts under races).
    EXPECT_LE(static_cast<double>(wrong_topk),
              0.25 * static_cast<double>(ok_results))
        << "round " << round << ": " << wrong_topk << "/" << ok_results
        << " OK results had a wrong top-k";

    // Terminal-state partition: every accepted submit resolved under
    // exactly one code, and the per-code counters reconcile with the
    // observed outcomes. Only abandoned queries go unobserved (their
    // auto-cancel ends OK or Cancelled), so they are the only slack;
    // budget harvests count under budget_evicted and NOWHERE else —
    // above all not under deadline_exceeded, the bug class this PR
    // fixes.
    const int64_t total = accepted.load(std::memory_order_relaxed);
    const int64_t unobserved = total - observed;
    ASSERT_GE(unobserved, 0);
    EXPECT_EQ(final_stats.budget_evicted, observed_best_effort)
        << "round " << round;
    EXPECT_EQ(final_stats.deadline_exceeded, observed_deadline)
        << "round " << round;
    EXPECT_EQ(final_stats.unavailable, 0)
        << "round " << round << ": all futures resolved before Shutdown";
    EXPECT_GE(final_stats.cancelled, observed_cancelled) << "round " << round;
    EXPECT_LE(final_stats.cancelled, observed_cancelled + unobserved)
        << "round " << round;
    const int64_t ok_or_invalid_terminals =
        total - final_stats.deadline_exceeded - final_stats.cancelled -
        final_stats.unavailable;
    const int64_t observed_ok_or_invalid =
        observed - observed_deadline - observed_cancelled;
    EXPECT_GE(ok_or_invalid_terminals, observed_ok_or_invalid)
        << "round " << round << ": the partition lost a terminal state";
    EXPECT_LE(ok_or_invalid_terminals, observed_ok_or_invalid + unobserved)
        << "round " << round << ": the partition double-counted";

    // Thread bound: shared pool workers + one driver per live pipeline
    // — one per store, and old and new can overlap briefly around a
    // reap — + the janitor + producers + monitor + slack for the test
    // harness.
    const int bound =
        baseline_threads + pool.size() + 2 * kStores + 1 + kProducers + 1 + 4;
    EXPECT_LE(max_threads.load(), bound)
        << "round " << round << ": thread count not bounded";
    EXPECT_GT(max_threads.load(), baseline_threads);
  }
}

// ------------------------------------------------- stage-1 cache churn
// Stores are dropped and recreated under ONE live scheduler while the
// stage-1 cache serves and invalidates (reap) entries.
//
// Isolation is made observable two ways: each store generation uses a
// DIFFERENT group cardinality (|VX| alternates 8/10), so a cross-store
// cache hit would fail the machine's domain check and surface as an
// InvalidArgument result (we assert there are none); and each store
// plants a DIFFERENT winner set (rotated offsets), so even a
// same-shaped contamination would corrupt the top-k past the aggregate
// tolerance. ColumnStore ids are never reused by construction — this
// test is the empirical seal on that design.
//
// Counter reconciliation: lookups == hits + misses at every snapshot;
// per phase, once every store holds an entry, the follow-up wave is
// served warm. Validity comes from store generations and nothing ages
// an entry, so the wave needs no timing window.

TEST(LifecycleStressTest, CacheChurnAcrossStoreLifetimes) {
  const int64_t iters = GetEnvInt64("FASTMATCH_STRESS_ITERS", 1);
  const uint64_t base_seed = static_cast<uint64_t>(
      GetEnvInt64("FASTMATCH_STRESS_SEED", 20180501));
  const int kStores = 2;
  const int kProducers = 3;
  const int kStormQueries = static_cast<int>(4 * iters);
  const int kPhases = 2;

  SharedWorkerPool pool(3);
  SchedulerOptions options;
  options.batch.num_threads = 2;
  options.batch.chunk_blocks = 32;
  options.max_batch_queries = 4;
  options.max_queue_wait_seconds = 0.002;
  options.min_join_suffix_fraction = 0.0;
  // Long enough that no pipeline dies between waves of one phase; the
  // phase end polls for the reap explicitly.
  options.idle_pipeline_timeout_seconds = 2.0;
  options.stage1_cache = true;
  options.pool = &pool;
  QueryScheduler scheduler(options);

  const std::vector<double> base_offsets = {0.0,  0.01, 0.02, 0.06,
                                            0.09, 0.12, 0.15, 0.17,
                                            0.19, 0.21, 0.23, 0.25};
  const int vz = static_cast<int>(base_offsets.size());

  for (int phase = 0; phase < kPhases; ++phase) {
    // Fresh stores, fresh identities: |VX| alternates by store, winners
    // rotate by (phase, store).
    struct PhaseStore {
      std::shared_ptr<ColumnStore> store;
      std::shared_ptr<const BitmapIndex> index;
      Distribution target;
      std::set<int> winners;
    };
    std::vector<PhaseStore> stores;
    for (int s = 0; s < kStores; ++s) {
      const int vx = 8 + 2 * (s % 2);
      const int rotation = 3 * s + phase;
      std::vector<double> offsets(base_offsets.size());
      PhaseStore ps;
      for (int i = 0; i < vz; ++i) {
        offsets[static_cast<size_t>(i)] =
            base_offsets[static_cast<size_t>((i + rotation) % vz)];
        if ((i + rotation) % vz < 3) ps.winners.insert(i);
      }
      auto dists = PlantedDistributions(vz, vx, offsets);
      ps.store = MakeExactStore(std::vector<int64_t>(vz, 1500), dists,
                                base_seed + static_cast<uint64_t>(
                                                phase * 100 + s),
                                50);
      ps.index = BitmapIndex::Build(*ps.store, 0).value();
      ps.target = UniformDistribution(vx);
      stores.push_back(std::move(ps));
    }

    const auto make_query = [&](int s, uint64_t seed) {
      BoundQuery query;
      query.store = stores[static_cast<size_t>(s)].store;
      query.z_index = stores[static_cast<size_t>(s)].index;
      query.z_attr = 0;
      query.x_attrs = {1};
      query.target = stores[static_cast<size_t>(s)].target;
      query.params = StressParams(seed);
      return query;
    };
    std::atomic<int64_t> ok_results{0};
    std::atomic<int64_t> wrong_topk{0};
    std::atomic<int64_t> illegal{0};
    const auto record = [&](int s, const SchedulerItem& item) {
      if (item.status.ok()) {
        ok_results.fetch_add(1, std::memory_order_relaxed);
        std::set<int> got(item.match.topk.begin(), item.match.topk.end());
        if (got != stores[static_cast<size_t>(s)].winners) {
          wrong_topk.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // Back-pressure never surfaces through a future, and nothing
        // here cancels or deadlines: any non-OK terminal state — above
        // all InvalidArgument from a cross-store snapshot — is illegal.
        illegal.fetch_add(1, std::memory_order_relaxed);
      }
    };

    // Cold storm: concurrent producers across this generation's stores.
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        std::mt19937_64 rng(base_seed ^ static_cast<uint64_t>(
                                            (phase * 10 + t + 1) * 2654435761ULL));
        for (int q = 0; q < kStormQueries; ++q) {
          const int s = static_cast<int>(rng() % kStores);
          auto handle = scheduler.Submit(make_query(s, rng()));
          if (!handle.ok()) {
            ASSERT_EQ(handle.status().code(), StatusCode::kResourceExhausted);
            continue;
          }
          record(s, handle->Get());
        }
      });
    }
    for (std::thread& producer : producers) producer.join();

    // Ensure every store holds an entry before the warm wave: a
    // mid-storm reap could have invalidated one — one sequential query
    // per store either hits (entry exists) or re-primes it cold.
    for (int s = 0; s < kStores; ++s) {
      auto handle = scheduler.Submit(make_query(s, 555 + s));
      ASSERT_TRUE(handle.ok());
      record(s, handle->Get());
      ASSERT_GE(scheduler.stage1_cache()->size(), s + 1);
    }

    // Warm wave: fresh entries exist now, so a follow-up is served from
    // cache.
    const SchedulerStats before_warm = scheduler.stats();
    bool warm_seen = false;
    for (int s = 0; s < kStores; ++s) {
      auto handle = scheduler.Submit(make_query(s, 1999 + s));
      ASSERT_TRUE(handle.ok());
      SchedulerItem item = handle->Get();
      record(s, item);
      warm_seen = warm_seen || item.match.diag.stage1_warm;
    }
    warm_seen =
        warm_seen || scheduler.stats().stage1_hits > before_warm.stage1_hits;
    EXPECT_TRUE(warm_seen) << "phase " << phase << ": no warm admission";

    // Correctness ledger for the phase: every future legal, top-k
    // matching THIS generation's planted winners within the aggregate
    // tolerance (delta = 0.05 per query).
    EXPECT_EQ(illegal.load(), 0) << "phase " << phase;
    ASSERT_GT(ok_results.load(), 0);
    EXPECT_LE(static_cast<double>(wrong_topk.load()),
              0.25 * static_cast<double>(ok_results.load()))
        << "phase " << phase << ": " << wrong_topk.load() << "/"
        << ok_results.load() << " OK results had a wrong top-k";

    // Drop this generation: stores die, pipelines idle out, and the
    // janitor must invalidate the dead ids' entries (bounded poll, not
    // a single timing window).
    const SchedulerStats before_drop = scheduler.stats();
    stores.clear();
    for (int spin = 0; spin < 40000; ++spin) {
      if (scheduler.stage1_cache()->size() == 0 &&
          scheduler.stats().stage1_store_invalidations >
              before_drop.stage1_store_invalidations) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    EXPECT_EQ(scheduler.stage1_cache()->size(), 0)
        << "phase " << phase << ": dead stores left cache entries behind";
    EXPECT_GT(scheduler.stats().stage1_store_invalidations,
              before_drop.stage1_store_invalidations);
  }

  // Final reconciliation: every lookup accounted for, joins enabled by
  // the cache are a subset of joins, and every future resolved.
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses);
  EXPECT_GT(stats.stage1_hits, 0);
  EXPECT_GT(stats.stage1_inserts, 0);
  EXPECT_LE(stats.joins_enabled_by_cache, stats.joined_midflight);
  EXPECT_EQ(stats.completed, stats.submitted);
  scheduler.Shutdown();
}

// ------------------------------------------------ stats invariants
// stats() CHECKs its counter invariants on every snapshot. A poller
// snapshots a cache-on scheduler while a cold query primes the cache,
// an append moves the store to generation 2, and the next query's
// consult misses the generation-1 prior and runs cold — so the stage-1
// identity is checked mid-flight across a generation miss.

TEST(LifecycleStressTest, StatsInvariantsHoldAcrossAnAppend) {
  StressStore s = MakeStressStore(20180517);
  SharedWorkerPool pool(2);
  SchedulerOptions options;
  options.batch.num_threads = 2;
  options.batch.chunk_blocks = 32;
  options.max_queue_wait_seconds = 0.001;
  options.stage1_cache = true;
  options.pool = &pool;
  QueryScheduler scheduler(options);

  std::atomic<bool> done{false};
  std::atomic<int64_t> polls{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const SchedulerStats snapshot = scheduler.stats();
      EXPECT_LE(snapshot.completed, snapshot.submitted);
      polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto run = [&](uint64_t seed) {
    BoundQuery query;
    query.store = s.store;
    query.z_index = s.index;
    query.z_attr = 0;
    query.x_attrs = {1};
    query.target = UniformDistribution(8);
    query.params = StressParams(seed);
    SchedulerItem item = scheduler.Submit(query).value().Get();
    EXPECT_TRUE(item.status.ok()) << item.status.ToString();
  };
  run(1);
  ASSERT_GE(scheduler.stats().stage1_inserts, 1);
  // Rows in the store's own candidate/group proportions.
  std::vector<std::vector<Value>> rows(2);
  for (int r = 0; r < 1200; ++r) {
    rows[0].push_back(static_cast<Value>(r % 12));
    rows[1].push_back(static_cast<Value>(r % 8));
  }
  ASSERT_TRUE(s.store->AppendBatch(rows, 7).ok());
  run(2);
  done.store(true, std::memory_order_relaxed);
  poller.join();

  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.stage1_misses, 2);
  EXPECT_EQ(stats.stage1_lookups, stats.stage1_hits + stats.stage1_misses);
  EXPECT_GT(polls.load(), 0);
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.stats().submitted, scheduler.stats().completed);
}

}  // namespace
}  // namespace fastmatch
