// The paper's running example (Q1): "Which countries have similar
// distributions of wealth to that of Greece?"
//
// Builds a synthetic census (country x income bracket) with clustered
// wealth shapes via the workload generator's building blocks, then asks
// FastMatch for the countries whose income-bracket histograms are
// closest to Greece's.

#include <cstdio>

#include "core/target.h"
#include "core/verify.h"
#include "engine/executor.h"
#include "workload/ascii_chart.h"
#include "workload/generator.h"

using namespace fastmatch;

int main() {
  constexpr int kCountries = 195;
  constexpr int kBrackets = 7;
  constexpr Value kGreece = 84;
  Rng rng(2024);

  // Wealth-shape clusters: each country's bracket distribution is its
  // cluster's prototype plus noise; Greece's cluster (3) holds the
  // genuine matches.
  std::vector<int> clusters(kCountries);
  for (int c = 0; c < kCountries; ++c) {
    clusters[static_cast<size_t>(c)] = static_cast<int>(rng.Uniform(8));
  }
  clusters[kGreece] = 3;
  std::vector<Distribution> protos = MakePrototypes(8, kBrackets, 0.9, &rng);

  std::vector<GenAttr> attrs(2);
  attrs[0] = {"country", kCountries, -1,
              LogNormalWeights(kCountries, 1.0, &rng), {}};
  attrs[1] = {"income_bracket", kBrackets, 0, {},
              MakeConditionals(clusters, protos, 0.15, &rng)};
  auto store = GenerateRows("census", attrs, 3000000, &rng);
  auto index = BitmapIndex::Build(*store, 0).value();
  auto exact = ComputeExactCounts(*store, 0, {1}).value();

  // The analyst has Greece's histogram (e.g., from a previous query).
  auto target =
      ResolveTarget(TargetSpec::Candidate(kGreece), exact, Metric::kL1)
          .value();
  std::printf("Target: income distribution of country %d ('Greece')\n%s\n",
              kGreece, RenderHistogram(target, 30).c_str());

  BoundQuery query;
  query.store = store;
  query.z_index = index;
  query.z_attr = 0;
  query.x_attrs = {1};
  query.target = target;
  query.params.k = 6;
  query.params.epsilon = 0.04;
  query.params.delta = 0.01;
  query.params.sigma = 0.0008;
  query.params.stage1_samples = 50000;

  auto out = RunQuery(query, Approach::kFastMatch);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  std::printf("Countries with wealth distributions most similar to "
              "Greece's:\n\n");
  for (size_t i = 0; i < out->match.topk.size(); ++i) {
    const int cand = out->match.topk[i];
    const bool same_cluster = clusters[static_cast<size_t>(cand)] == 3;
    std::printf("#%zu: country %-4d distance %.4f   %s\n", i + 1, cand,
                out->match.topk_distances[i],
                cand == static_cast<int>(kGreece)
                    ? "(Greece itself)"
                    : (same_cluster ? "(planted match: same wealth cluster)"
                                    : ""));
  }

  // Side-by-side comparison of Greece vs the best non-Greece match.
  for (int cand : out->match.topk) {
    if (cand == static_cast<int>(kGreece)) continue;
    std::printf("\n%s",
                RenderComparison(target, out->match.counts.NormalizedRow(cand),
                                 "Greece", "country " + std::to_string(cand),
                                 24)
                    .c_str());
    break;
  }

  std::printf("\nRead %.1f%% of the data; %d stage-2 rounds.\n",
              100.0 * static_cast<double>(out->stats.engine.rows_read) /
                  static_cast<double>(store->num_rows()),
              out->match.diag.rounds);
  return 0;
}
