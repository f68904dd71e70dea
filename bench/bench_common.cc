#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "util/env.h"
#include "util/logging.h"
#include "util/math.h"

namespace fastmatch {
namespace bench {

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  const int64_t rows = GetEnvInt64("FASTMATCH_ROWS", 0);
  if (rows > 0) {
    config.flights_rows = rows;
    config.taxi_rows = rows;
    config.police_rows = rows;
  }
  config.runs = static_cast<int>(GetEnvInt64("FASTMATCH_RUNS", config.runs));
  config.stage1_m = GetEnvInt64("FASTMATCH_STAGE1_M", config.stage1_m);
  config.lookahead =
      static_cast<int>(GetEnvInt64("FASTMATCH_LOOKAHEAD", config.lookahead));
  return config;
}

int64_t BenchConfig::RowsFor(const std::string& dataset) const {
  if (dataset == "flights") return flights_rows;
  if (dataset == "taxi") return taxi_rows;
  if (dataset == "police") return police_rows;
  FASTMATCH_LOG(Fatal) << "unknown dataset " << dataset;
  return 0;
}

HistSimParams BenchConfig::Params() const {
  HistSimParams p;
  p.epsilon = epsilon;
  p.delta = delta;
  p.sigma = sigma;
  p.stage1_samples = stage1_m;
  return p;
}

const SyntheticDataset& GetDataset(const std::string& name,
                                   const BenchConfig& config) {
  static auto* cache = new std::map<std::string, SyntheticDataset>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second;

  std::fprintf(stderr, "[bench] generating %s (%lld rows)...\n", name.c_str(),
               static_cast<long long>(config.RowsFor(name)));
  SyntheticDataset ds;
  if (name == "flights") {
    ds = MakeFlightsLike(config.RowsFor(name), config.dataset_seed);
  } else if (name == "taxi") {
    ds = MakeTaxiLike(config.RowsFor(name), config.dataset_seed + 1);
  } else if (name == "police") {
    ds = MakePoliceLike(config.RowsFor(name), config.dataset_seed + 2);
  } else {
    FASTMATCH_LOG(Fatal) << "unknown dataset " << name;
  }
  return cache->emplace(name, std::move(ds)).first->second;
}

const PreparedQuery& GetPrepared(const PaperQuery& spec,
                                 const BenchConfig& config) {
  static auto* cache = new std::map<std::string, PreparedQuery>();
  auto it = cache->find(spec.id);
  if (it != cache->end()) return it->second;

  const SyntheticDataset& ds = GetDataset(spec.dataset, config);
  // Share one bitmap index per (dataset, attribute) across queries.
  static auto* index_cache =
      new std::map<std::pair<std::string, std::string>,
                   std::shared_ptr<const BitmapIndex>>();
  std::shared_ptr<const BitmapIndex> index;
  auto key = std::make_pair(spec.dataset, spec.z_attr);
  auto idx_it = index_cache->find(key);
  if (idx_it != index_cache->end()) index = idx_it->second;

  auto prepared = PrepareQuery(ds, spec, config.Params(), index);
  FASTMATCH_CHECK(prepared.ok()) << spec.id << ": "
                                 << prepared.status().ToString();
  prepared->bound.lookahead = config.lookahead;
  if (index == nullptr) {
    (*index_cache)[key] = prepared->bound.z_index;
  }
  return cache->emplace(spec.id, std::move(prepared).value()).first->second;
}

RunSummary Measure(const PreparedQuery& prepared, Approach approach,
                   const HistSimParams& params, int lookahead, int runs) {
  RunSummary summary;
  summary.runs = runs;
  HistSimParams run_params = params;
  run_params.k = prepared.bound.params.k;  // k comes from the query spec
  GroundTruth truth = MakeTruth(prepared, run_params);

  std::vector<double> seconds;
  double delta_d_sum = 0;
  for (int r = 0; r < runs; ++r) {
    BoundQuery query = prepared.bound;
    query.params = run_params;
    query.params.seed = 0x9E3779B9u * static_cast<uint64_t>(r + 1);
    query.lookahead = lookahead;
    auto out = RunQuery(query, approach);
    FASTMATCH_CHECK(out.ok()) << prepared.spec.id << " "
                              << ApproachName(approach) << ": "
                              << out.status().ToString();
    seconds.push_back(out->stats.wall_seconds);
    auto check = CheckGuarantees(out->match, prepared.exact, truth,
                                 query.target, query.params);
    summary.guarantee_violations +=
        !check.separation_ok || !check.reconstruction_ok;
    delta_d_sum += check.delta_d;
    summary.mean_rows_read +=
        static_cast<double>(out->stats.engine.rows_read) / runs;
    summary.mean_blocks_skipped +=
        static_cast<double>(out->stats.engine.blocks_skipped) / runs;
    summary.mean_rounds +=
        static_cast<double>(out->match.diag.rounds) / runs;
  }
  summary.mean_seconds = Mean(seconds);
  summary.std_seconds = StdDev(seconds);
  summary.mean_delta_d = delta_d_sum / runs;
  return summary;
}

std::string DatasetSummary(const SyntheticDataset& ds) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-8s %10lld rows  %6.1f MiB  %8lld blocks  %d attrs",
                ds.name.c_str(), static_cast<long long>(ds.store->num_rows()),
                static_cast<double>(ds.store->TotalBytes()) / (1 << 20),
                static_cast<long long>(ds.store->num_blocks()),
                ds.store->schema().num_attributes());
  return buf;
}

void PrintHeader(const std::string& title, const BenchConfig& config) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title.c_str());
  std::printf("defaults: eps=%.3g delta=%.3g sigma=%.4g m=%lld lookahead=%d "
              "runs=%d\n",
              config.epsilon, config.delta, config.sigma,
              static_cast<long long>(config.stage1_m), config.lookahead,
              config.runs);
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace bench
}  // namespace fastmatch
