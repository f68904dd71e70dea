// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure of the paper's Section 5.
// Scale knobs come from the environment:
//   FASTMATCH_ROWS       rows per dataset        (default: flights 24M,
//                        taxi 24M, police 16M; a single value overrides
//                        all three)
//   FASTMATCH_RUNS       timed runs per configuration (default 5)
//   FASTMATCH_STAGE1_M   stage-1 sample count   (default 200000)
//   FASTMATCH_LOOKAHEAD  lookahead batch size   (default 1024)

#ifndef FASTMATCH_BENCH_BENCH_COMMON_H_
#define FASTMATCH_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "workload/queries.h"

namespace fastmatch {
namespace bench {

struct BenchConfig {
  int64_t flights_rows = 24000000;
  int64_t taxi_rows = 24000000;
  int64_t police_rows = 16000000;
  int runs = 5;
  int64_t stage1_m = 200000;
  int lookahead = 1024;
  double epsilon = 0.04;   // paper defaults
  double delta = 0.01;
  double sigma = 0.0008;
  uint64_t dataset_seed = 20180501;

  static BenchConfig FromEnv();

  int64_t RowsFor(const std::string& dataset) const;
  HistSimParams Params() const;
};

/// \brief Process-lifetime dataset cache (generation is preprocessing).
const SyntheticDataset& GetDataset(const std::string& name,
                                   const BenchConfig& config);

/// \brief Process-lifetime prepared-query cache (exact counts + bitmap
/// index are preprocessing). The returned object's params are the config
/// defaults; sweeps copy `bound` and override.
const PreparedQuery& GetPrepared(const PaperQuery& spec,
                                 const BenchConfig& config);

/// \brief Aggregated measurements of `runs` executions of one approach.
struct RunSummary {
  double mean_seconds = 0;
  double std_seconds = 0;
  double mean_delta_d = 0;
  int guarantee_violations = 0;
  int runs = 0;
  double mean_rows_read = 0;
  double mean_blocks_skipped = 0;
  double mean_rounds = 0;
};

/// \brief Runs `approach` `runs` times with per-run seeds, verifying each
/// run against ground truth recomputed for `params`.
RunSummary Measure(const PreparedQuery& prepared, Approach approach,
                   const HistSimParams& params, int lookahead, int runs);

/// \brief Short dataset summary line (rows, bytes, blocks) for Table 2
/// style headers.
std::string DatasetSummary(const SyntheticDataset& ds);

/// \brief Prints the standard harness header for a bench binary.
void PrintHeader(const std::string& title, const BenchConfig& config);

}  // namespace bench
}  // namespace fastmatch

#endif  // FASTMATCH_BENCH_BENCH_COMMON_H_
