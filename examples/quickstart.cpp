// Quickstart: the minimal FastMatch workflow on a tiny synthetic table.
//
//   1. load a relation into a ColumnStore (dictionary-encoded columns);
//   2. shuffle it once (preprocessing, makes scans uniform samples);
//   3. build a block-level bitmap index on the candidate attribute;
//   4. bind a query (candidate attribute, grouping attribute, target,
//      epsilon/delta/sigma) and run it.

#include <cstdio>

#include "core/target.h"
#include "core/verify.h"
#include "engine/executor.h"
#include "util/random.h"
#include "workload/ascii_chart.h"

using namespace fastmatch;

int main() {
  // --- 1. A tiny relation: 200k rows, candidate attr "store" (20
  // values), grouping attr "hour" (12 values). Store 0 is the target;
  // stores 1 and 2 share its shape; the rest are different.
  Rng rng(42);
  std::vector<Value> store_col, hour_col;
  for (int i = 0; i < 200000; ++i) {
    const Value s = static_cast<Value>(rng.Uniform(20));
    store_col.push_back(s);
    // Shape A peaks in the morning; shape B peaks at night.
    const bool shape_a = s <= 2;
    const double u = rng.NextDouble();
    Value h;
    if (shape_a) {
      h = static_cast<Value>(u < 0.7 ? rng.Uniform(4) : rng.Uniform(12));
    } else {
      h = static_cast<Value>(u < 0.7 ? 8 + rng.Uniform(4) : rng.Uniform(12));
    }
    hour_col.push_back(h);
  }
  auto store = ColumnStore::FromColumns(
                   Schema({{"store", 20}, {"hour", 12}}),
                   {std::move(store_col), std::move(hour_col)})
                   .value();

  // --- 2. Preprocessing: shuffle + index.
  store->Shuffle(/*seed=*/1);
  auto index = BitmapIndex::Build(*store, /*attr=*/0).value();

  // --- 3. Resolve the target: "histograms similar to store 0's".
  auto exact = ComputeExactCounts(*store, 0, {1}).value();
  auto target = ResolveTarget(TargetSpec::Candidate(0), exact, Metric::kL1);
  if (!target.ok()) {
    std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
    return 1;
  }

  // --- 4. Run.
  BoundQuery query;
  query.store = store;
  query.z_index = index;
  query.z_attr = 0;
  query.x_attrs = {1};
  query.target = *target;
  query.params.k = 3;
  query.params.epsilon = 0.05;
  query.params.delta = 0.01;
  query.params.sigma = 0.001;
  query.params.stage1_samples = 20000;

  auto out = RunQuery(query, Approach::kFastMatch);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  std::printf("Top-%d stores with hour-of-day distributions most similar to "
              "store 0:\n\n",
              query.params.k);
  for (size_t i = 0; i < out->match.topk.size(); ++i) {
    const int cand = out->match.topk[i];
    std::printf("#%zu: store %d (estimated l1 distance %.4f%s)\n", i + 1,
                cand, out->match.topk_distances[i],
                out->match.exact[cand] ? ", exact" : "");
    std::printf("%s\n",
                RenderHistogram(out->match.counts.NormalizedRow(cand), 30)
                    .c_str());
  }
  std::printf("Read %lld of %lld rows (%.1f%%), %d stage-2 rounds, "
              "%d candidates pruned as rare.\n",
              static_cast<long long>(out->stats.engine.rows_read),
              static_cast<long long>(store->num_rows()),
              100.0 * static_cast<double>(out->stats.engine.rows_read) /
                  static_cast<double>(store->num_rows()),
              out->match.diag.rounds,
              out->match.diag.pruned_candidates);
  return 0;
}
