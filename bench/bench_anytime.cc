// Anytime queries: progressive results and execution budgets.
//
// Part 1 — time-to-first-ProgressUpdate. Single-query batches run with
// a progress channel open; the driver thread stamps the wall time of
// the FIRST chunk-boundary update from inside the on_progress callback
// (the same thread that later completes the machine, so the stamp is
// immune to the single-core waiter-starvation problem that makes
// external clocks useless here — see bench_lifecycle). The claim, and
// the exit-code gate: p50 time-to-first-update is strictly below p50
// time-to-final-result. The first update lands one chunk into a scan
// whose three stages span many chunks, so the gap is structural; its
// magnitude is the hardware-dependent part.
//
// Part 2 — execution-budget honesty. The same workload runs under a
// sweep of budgets. A budget expiry harvests a best-effort OK result
// whose per-candidate error bars are its only confidence statement —
// so every harvested result is audited against closed-form ground
// truth (exact counts over the generated store): |estimate - truth| <=
// bar for EVERY candidate, not just the top-k. Any violation fails the
// bench. Also reported: how the harvest rate and result latency move
// with the budget (the anytime latency knob the paper's interactive
// setting wants).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/verify.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace fastmatch;
using namespace fastmatch::bench;

namespace {

/// Two-attribute store, Z(12) uniform, X(8) conditional on Z: the
/// HistSim shape with enough spread that the three stages run long.
std::shared_ptr<ColumnStore> MakeAnytimeStore(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<GenAttr> attrs(2);
  attrs[0].name = "Z";
  attrs[0].cardinality = 12;
  attrs[0].marginal.assign(12, 1.0);
  attrs[1].name = "X";
  attrs[1].cardinality = 8;
  attrs[1].parent = 0;
  attrs[1].conditional = MakePrototypes(12, 8, 0.6, &rng);
  return GenerateRows("anytime", attrs, rows, &rng);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

}  // namespace

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Anytime queries: progressive results and budgets", config);

  const int64_t rows = std::max<int64_t>(50000, config.RowsFor("flights"));
  auto store = MakeAnytimeStore(rows, config.dataset_seed);
  auto index = BitmapIndex::Build(*store, 0).value();
  const CountMatrix exact = ComputeExactCounts(*store, 0, {1}).value();
  const Distribution target = UniformDistribution(8);

  HistSimParams params;
  params.k = 3;
  params.epsilon = config.epsilon;
  params.delta = config.delta;
  params.sigma = 0.0;
  params.stage1_samples = std::min<int64_t>(config.stage1_m, rows / 4);
  const GroundTruth truth =
      ComputeGroundTruth(exact, target, params.metric, params.sigma, params.k);

  const int64_t num_blocks = store->num_blocks();
  const int64_t rows_per_block = std::max<int64_t>(1, rows / num_blocks);
  SchedulerOptions options;
  options.batch.num_threads = 4;
  // Chunks fine-grained against the stage-1 demand: the first update
  // should land well before stage 1 settles, and budget expiries get
  // frequent harvest points.
  options.batch.chunk_blocks = static_cast<int>(std::max<int64_t>(
      1, params.stage1_samples / (8 * rows_per_block)));
  options.max_batch_queries = 1;
  options.max_queue_wait_seconds = 0.0005;
  std::printf("store: %lld rows, %lld blocks; chunk_blocks %d, stage-1 m "
              "%lld\n\n",
              static_cast<long long>(rows),
              static_cast<long long>(num_blocks), options.batch.chunk_blocks,
              static_cast<long long>(params.stage1_samples));

  const auto make_query = [&](uint64_t seed) {
    BoundQuery q;
    q.store = store;
    q.z_index = index;
    q.z_attr = 0;
    q.x_attrs = {1};
    q.target = target;
    q.params = params;
    q.params.seed = seed;
    return q;
  };

  // --- Part 1: first update vs final result.
  const int kQueries = 8 * std::max(1, config.runs);
  std::vector<double> first_update, final_result;
  int64_t updates_total = 0;
  {
    QueryScheduler scheduler(options);
    for (int i = 0; i < kQueries; ++i) {
      WallTimer clock;
      double first_s = -1;
      int64_t updates = 0;
      SubmitOptions submit;
      submit.track_progress = true;
      submit.on_progress = [&clock, &first_s,
                            &updates](const ProgressUpdate& update) {
        ++updates;
        if (update.sequence == 1) first_s = clock.Seconds();
      };
      auto handle =
          scheduler.Submit(make_query(1000 + static_cast<uint64_t>(i)),
                           submit);
      FASTMATCH_CHECK(handle.ok()) << handle.status().ToString();
      SchedulerItem item = handle->Get();
      FASTMATCH_CHECK(item.status.ok()) << item.status.ToString();
      FASTMATCH_CHECK(first_s >= 0) << "no progress update observed";
      first_update.push_back(first_s);
      final_result.push_back(item.total_seconds);
      updates_total += updates;
    }
    scheduler.Shutdown();
  }
  const double p50_first = Percentile(first_update, 0.50);
  const double p50_final = Percentile(final_result, 0.50);
  std::printf("%22s %12s %12s %14s\n", "", "p50 (s)", "p99 (s)",
              "updates/query");
  std::printf("%22s %12.4f %12.4f %14.1f\n", "first ProgressUpdate",
              p50_first, Percentile(first_update, 0.99),
              static_cast<double>(updates_total) / kQueries);
  std::printf("%22s %12.4f %12.4f\n", "final result", p50_final,
              Percentile(final_result, 0.99));
  std::printf("\nfirst-update/final p50 ratio: %.3f (must be strictly < 1: "
              "a usable top-k surfaces one chunk in)\n\n",
              p50_final > 0 ? p50_first / p50_final : 0);

  // --- Part 2: budget sweep, every harvested result audited. Budgets
  // are FRACTIONS of the measured no-budget p50, so the sweep actually
  // harvests at any store scale (fixed millisecond budgets would never
  // expire on a laptop-scale store and the audit would be vacuous).
  int violations = 0;
  int64_t harvested_total = 0;
  std::printf("%12s %10s %10s %12s %16s\n", "budget", "queries",
              "harvested", "p50 (s)", "mean rows used");
  for (double fraction : {0.05, 0.15, 0.5, 0.0}) {
    const double budget_seconds = fraction * p50_final;
    QueryScheduler scheduler(options);
    std::vector<double> latency;
    std::vector<double> rows_used;
    int64_t harvested = 0;
    const int sweep_queries = 4 * std::max(1, config.runs);
    for (int i = 0; i < sweep_queries; ++i) {
      SubmitOptions submit;
      submit.budget_seconds = budget_seconds;
      auto handle = scheduler.Submit(
          make_query(9000 + static_cast<uint64_t>(i)), submit);
      FASTMATCH_CHECK(handle.ok()) << handle.status().ToString();
      SchedulerItem item = handle->Get();
      // Budget expiry is never an error: the future resolves OK with a
      // best-effort result, not DeadlineExceeded.
      FASTMATCH_CHECK(item.status.ok()) << item.status.ToString();
      latency.push_back(item.total_seconds);
      const MatchResult& match = item.match;
      rows_used.push_back(static_cast<double>(match.diag.stage1_samples +
                                              match.diag.stage2_samples +
                                              match.diag.stage3_samples));
      if (!match.best_effort) continue;
      ++harvested;
      for (size_t c = 0; c < match.distances.size(); ++c) {
        if (std::abs(match.distances[c] - truth.distances[c]) >
            match.error_bars[c] + 1e-12) {
          ++violations;
          std::printf("  VIOLATION: budget %.0fus candidate %zu: "
                      "|%.4f - %.4f| > bar %.4f\n",
                      budget_seconds * 1e6, c, match.distances[c],
                      truth.distances[c], match.error_bars[c]);
        }
      }
    }
    const int64_t evicted = scheduler.stats().budget_evicted;
    FASTMATCH_CHECK(evicted == harvested);
    harvested_total += harvested;
    scheduler.Shutdown();
    char label[32];
    if (fraction > 0) {
      std::snprintf(label, sizeof(label), "%3.0f%% p50", fraction * 100);
    } else {
      std::snprintf(label, sizeof(label), "none");
    }
    std::printf("%12s %10d %10lld %12.4f %16.0f\n",
                label, sweep_queries, static_cast<long long>(harvested),
                Percentile(latency, 0.50), Mean(rows_used));
  }
  std::printf("\nguarantee violations (|estimate - truth| > error bar on a "
              "harvested result): %d (must be 0; %lld results audited)\n",
              violations, static_cast<long long>(harvested_total));

  std::printf("\nShape: p50 first-update < p50 final; harvested results "
              "honest at every budget; tighter budgets trade rows (and "
              "bar width) for latency.\n");
  // The honesty claim must not pass vacuously: at least one budget run
  // has to expire mid-scan and be audited.
  return p50_first < p50_final && violations == 0 && harvested_total > 0
             ? 0
             : 1;
}
