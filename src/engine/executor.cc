#include "engine/executor.h"

#include <algorithm>

#include "core/verify.h"
#include "util/timer.h"

namespace fastmatch {

std::string_view ApproachName(Approach a) {
  switch (a) {
    case Approach::kScan:
      return "Scan";
    case Approach::kScanMatch:
      return "ScanMatch";
    case Approach::kSyncMatch:
      return "SyncMatch";
    case Approach::kFastMatch:
      return "FastMatch";
  }
  return "?";
}

namespace {

Status ValidateQuery(const BoundQuery& query) {
  if (query.store == nullptr) {
    return Status::InvalidArgument("query has no store");
  }
  if (query.x_attrs.empty()) {
    return Status::InvalidArgument("query has no x attributes");
  }
  if (query.target.empty()) {
    return Status::InvalidArgument("query target is unresolved");
  }
  return query.params.Validate();
}

/// The exact baseline: one pass over one pinned view, exact histograms,
/// exact selectivity pruning, exact top-k.
Result<RunOutput> RunScan(const BoundQuery& query) {
  WallTimer timer;
  const StoreView view = query.store->PinView();
  FASTMATCH_ASSIGN_OR_RETURN(
      CountMatrix exact, ComputeExactCounts(query.store->schema(), view,
                                            query.z_attr, query.x_attrs));
  GroundTruth truth =
      ComputeGroundTruth(exact, query.target, query.params.metric,
                         query.params.sigma, query.params.k);

  RunOutput out;
  out.match.topk = truth.topk;
  out.match.topk_distances.reserve(truth.topk.size());
  for (int i : truth.topk) {
    out.match.topk_distances.push_back(truth.distances[i]);
  }
  out.match.distances = truth.distances;
  out.match.counts = std::move(exact);
  const int vz = out.match.counts.num_candidates();
  out.match.pruned.resize(vz);
  for (int i = 0; i < vz; ++i) out.match.pruned[i] = !truth.eligible[i];
  out.match.error_bars.assign(vz, 0.0);
  out.match.exact.assign(vz, true);
  out.match.diag.chosen_k = static_cast<int>(truth.topk.size());
  out.match.diag.exact_candidates = vz;
  out.match.diag.data_exhausted = true;

  out.stats.wall_seconds = timer.Seconds();
  out.stats.engine.rows_read = view.pin().num_rows;
  out.stats.engine.blocks_read = view.pin().num_blocks;
  return out;
}

BlockSelection PolicyFor(Approach a) {
  switch (a) {
    case Approach::kScanMatch:
      return BlockSelection::kScanAll;
    case Approach::kSyncMatch:
      return BlockSelection::kAnyActiveSync;
    case Approach::kFastMatch:
    default:
      return BlockSelection::kAnyActiveLookahead;
  }
}

}  // namespace

Result<RunOutput> RunQuery(const BoundQuery& query, Approach approach) {
  FASTMATCH_RETURN_IF_ERROR(ValidateQuery(query));
  if (approach == Approach::kScan) return RunScan(query);

  WallTimer timer;
  EngineOptions options;
  options.policy = PolicyFor(approach);
  options.lookahead = query.lookahead;
  options.seed = query.params.seed;

  FASTMATCH_ASSIGN_OR_RETURN(
      auto engine,
      SamplingEngine::Create(query.store, query.z_index, query.z_attr,
                             query.x_attrs, options));

  HistSim histsim(query.params, query.target);
  FASTMATCH_ASSIGN_OR_RETURN(MatchResult match, histsim.Run(engine.get()));

  RunOutput out;
  out.stats.wall_seconds = timer.Seconds();
  out.stats.engine = engine->stats();
  out.match = std::move(match);
  return out;
}

}  // namespace fastmatch
