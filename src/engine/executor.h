// Query execution: the four approaches of the paper's evaluation
// (Section 5.2) behind one interface.
//
//   Scan       exact heap scan; prunes by exact selectivity; always correct.
//   ScanMatch  HistSim termination, sequential reads, no block skipping.
//   SyncMatch  HistSim + AnyActive applied per block, synchronously (Alg 2).
//   FastMatch  HistSim + AnyActive marked a lookahead window at a time
//              (Alg 3's word-wise marking, run synchronously).

#ifndef FASTMATCH_ENGINE_EXECUTOR_H_
#define FASTMATCH_ENGINE_EXECUTOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/histsim.h"
#include "core/params.h"
#include "engine/sampling_engine.h"
#include "index/bitmap_index.h"
#include "storage/column_store.h"
#include "util/result.h"

namespace fastmatch {

enum class Approach {
  kScan,
  kScanMatch,
  kSyncMatch,
  kFastMatch,
};

std::string_view ApproachName(Approach a);

struct Stage1Snapshot;  // engine/batch_executor.h

/// \brief A fully bound query: data, index, attributes, resolved target,
/// algorithm parameters, engine knobs.
struct BoundQuery {
  std::shared_ptr<const ColumnStore> store;
  /// Bitmap index on the candidate attribute; required by SyncMatch and
  /// FastMatch, ignored by Scan and ScanMatch. Built once per (store,
  /// attribute) and shared across runs — index construction is
  /// preprocessing, not query time.
  std::shared_ptr<const BitmapIndex> z_index;
  int z_attr = -1;
  std::vector<int> x_attrs;
  /// Resolved target distribution q (|VX| entries summing to 1).
  Distribution target;
  HistSimParams params;
  /// Lookahead batch size for FastMatch (paper default 1024).
  int lookahead = 1024;
  /// Warm start for the batch executor: when set, the query's machine
  /// begins past stage 1, seeded with this snapshot's counts (a stage-1
  /// cache hit made explicit). Must be counted on the query's (store,
  /// z_attr, x_attrs) template, and must share no row with the batch's
  /// scan: BatchExecutor::Create accepts it only in a batch that resumes
  /// the snapshot's own scan, or when it holds every pinned row. Ignored
  /// by the single-query RunQuery approaches.
  std::shared_ptr<const Stage1Snapshot> stage1_warm;
  /// Store generation `stage1_warm` is served at: 0 or the snapshot's
  /// own scan.generation, which mean the same; Create refuses any other
  /// stamp. The field stays only because the systems benchmark attaches
  /// warm priors through it.
  uint64_t stage1_warm_generation = 0;
};

/// \brief Timing and I/O accounting for one run.
/// HistSim's own diagnostics ride in MatchResult::diag.
struct RunStats {
  double wall_seconds = 0;
  EngineStats engine;  // zeros for Scan
};

struct RunOutput {
  MatchResult match;
  RunStats stats;
};

/// \brief Executes `query` with the given approach. End-to-end time
/// (sampling, statistics, output selection) is measured; index build and
/// data load are preprocessing and excluded, matching the paper's
/// methodology.
Result<RunOutput> RunQuery(const BoundQuery& query, Approach approach);

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_EXECUTOR_H_
