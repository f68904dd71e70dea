// The paper's taxi scenario (Q4): Bob notices a location whose pickup
// histogram spikes between 3am and 5am and asks "where else around
// Manhattan do pickup times look like this?"
//
// Uses the taxi-like generator (7641 locations, thousands of them nearly
// empty) to showcase rare-candidate pruning and block skipping.

#include <cstdio>

#include "core/target.h"
#include "core/verify.h"
#include "engine/executor.h"
#include "workload/ascii_chart.h"
#include "workload/generator.h"

using namespace fastmatch;

int main() {
  SyntheticDataset ds = MakeTaxiLike(6000000, 11);
  auto& store = ds.store;
  const int z = store->schema().FindAttribute("Location").value();
  const int x = store->schema().FindAttribute("HourOfDay").value();
  auto index = BitmapIndex::Build(*store, z).value();
  auto exact = ComputeExactCounts(*store, z, {x}).value();

  // Bob's reference location: the planted near-uniform matcher.
  const Value nightclub = ds.hub_candidate;
  auto target =
      ResolveTarget(TargetSpec::Candidate(nightclub), exact, Metric::kL1)
          .value();
  std::printf("Reference: pickup-hour histogram of location %u\n%s\n",
              nightclub, RenderHistogram(target, 30).c_str());

  BoundQuery query;
  query.store = store;
  query.z_index = index;
  query.z_attr = z;
  query.x_attrs = {x};
  query.target = target;
  query.params.k = 10;
  query.params.epsilon = 0.06;
  query.params.delta = 0.01;
  query.params.sigma = 0.0008;
  query.params.stage1_samples = 200000;

  auto out = RunQuery(query, Approach::kFastMatch);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  std::printf("Locations with pickup-hour distributions most similar to "
              "location %u:\n\n",
              nightclub);
  for (size_t i = 0; i < out->match.topk.size(); ++i) {
    const int cand = out->match.topk[i];
    std::printf("#%zu: location %-6d distance %.4f  (%lld sampled tuples)\n",
                i + 1, cand, out->match.topk_distances[i],
                static_cast<long long>(out->match.counts.RowTotal(cand)));
  }

  std::printf("\nOf %u candidate locations, stage 1 pruned %d as too rare "
              "(sigma=%.4f);\n",
              index->num_values(), out->match.diag.pruned_candidates,
              query.params.sigma);
  std::printf("the engine read %lld rows (%.1f%% of the data), skipping "
              "%lld blocks via AnyActive selection.\n",
              static_cast<long long>(out->stats.engine.rows_read),
              100.0 * static_cast<double>(out->stats.engine.rows_read) /
                  static_cast<double>(store->num_rows()),
              static_cast<long long>(out->stats.engine.blocks_skipped));
  return 0;
}
