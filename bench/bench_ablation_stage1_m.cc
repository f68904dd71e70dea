// Ablation (paper footnote 1): sensitivity to the stage-1 sample count m.
// The paper claims results are insensitive to m as long as it is not so
// small that nothing is pruned, nor a large fraction of the data.
//
// We sweep m on the pruning-heavy taxi-q1 and report latency plus the
// number of candidates pruned in stage 1.

#include <cstdio>

#include "bench_common.h"

using namespace fastmatch;
using namespace fastmatch::bench;

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Ablation: stage-1 sample count m (taxi-q1, FastMatch)",
              config);

  const PreparedQuery& prepared = GetPrepared(PaperQueries()[4], config);
  const int64_t n = prepared.bound.store->num_rows();
  const int runs = std::max(2, config.runs / 2);

  std::printf("%12s %10s %12s %12s %14s\n", "m", "m/N", "wall (s)",
              "pruned", "rows read");
  for (int64_t m : {int64_t{5000}, int64_t{20000}, int64_t{50000},
                    int64_t{100000}, int64_t{250000}, int64_t{500000},
                    int64_t{1000000}}) {
    if (m > n / 2) continue;
    HistSimParams params = config.Params();
    params.stage1_samples = m;

    // One instrumented run for pruning counts, then timed runs.
    BoundQuery query = prepared.bound;
    query.params = params;
    auto probe = RunQuery(query, Approach::kFastMatch);
    FASTMATCH_CHECK(probe.ok()) << probe.status().ToString();

    RunSummary s = Measure(prepared, Approach::kFastMatch, params,
                           config.lookahead, runs);
    std::printf("%12lld %9.2f%% %12.4f %12d %14.0f\n",
                static_cast<long long>(m),
                100.0 * static_cast<double>(m) / static_cast<double>(n),
                s.mean_seconds, probe->match.diag.pruned_candidates,
                s.mean_rows_read);
    std::fflush(stdout);
  }
  std::printf("\nPaper claim: flat latency across reasonable m; tiny m "
              "prunes nothing (stages 2-3 pay for rare candidates), huge m "
              "wastes I/O in stage 1.\n");
  return 0;
}
