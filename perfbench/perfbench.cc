// perfbench: closed-loop end-to-end benchmark of the FastMatch library,
// with a traced mode that attributes the time to the library's layers.
//
// Workloads (README.md says why each exists):
//   solo-paper      one analyst loops over the nine Table-3 queries,
//                   each RunQuery(kFastMatch) followed by its kScan
//                   baseline, on FLIGHTS/TAXI/POLICE-like stores;
//   dashboard-wide  16-panel dashboards with distinct targets on the
//                   TAXI-like store, submitted through QueryScheduler;
//   dashboard-live  each refresh appends a slice to the FLIGHTS-like
//                   store, then submits a 16-panel dashboard.
//
// Every workload is a closed loop with a fixed, seeded work set: the
// number of loops/dashboards/refreshes comes from the command line
// (run.py derives it from --seconds and the rates in workloads.json),
// never from how fast the machine is; the other sizes are the constants
// below. Every answer is checked against exact ground truth outside the
// timed regions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same loop
// with every other round traced (spans around each call into a layer),
// then replays layer probes, and prints the per-layer metrics. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/histsim.h"
#include "core/sampler.h"
#include "core/verify.h"
#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "engine/io_manager.h"
#include "engine/sampling_engine.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "storage/column_store.h"
#include "trace.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using fastmatch::Approach;
using fastmatch::BatchExecutor;
using fastmatch::BatchItem;
using fastmatch::BatchOptions;
using fastmatch::BatchStats;
using fastmatch::BitmapIndex;
using fastmatch::BoundQuery;
using fastmatch::ColumnStore;
using fastmatch::CountMatrix;
using fastmatch::Distribution;
using fastmatch::GroundTruth;
using fastmatch::HistSimParams;
using fastmatch::MatchResult;
using fastmatch::PaperQuery;
using fastmatch::QueryHandle;
using fastmatch::QueryScheduler;
using fastmatch::SchedulerItem;
using fastmatch::SchedulerOptions;
using fastmatch::SchedulerStats;
using fastmatch::SharedWorkerPool;
using fastmatch::Status;
using fastmatch::SyntheticDataset;
using fastmatch::Value;
using Clock = std::chrono::steady_clock;
using Span = Tracer::Span;

// ------------------------------------------------------------ utilities

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// `--name value` pairs from the command line.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
        Die("expected --name value pairs, got '" + arg + "'");
      }
      values_[arg.substr(2)] = argv[++i];
    }
  }
  std::string Str(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) Die("missing --" + name);
    return it->second;
  }
  int64_t Int(const std::string& name) const {
    const std::string s = Str(name);
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') Die("--" + name + " is not an integer");
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time (all threads, user + system), in seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + salt;
  return fastmatch::SplitMix64(&state);
}

/// The paper's defaults, with the stage-1 sample the repository's
/// paper benches use.
HistSimParams Params() {
  HistSimParams p;
  p.epsilon = 0.04;
  p.delta = 0.01;
  p.sigma = 0.0008;
  p.stage1_samples = 200000;
  return p;
}

// ------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// Outcome bookkeeping plus the metrics of one run.
class Report {
 public:
  /// An operation whose answer must be exactly right (scan baselines,
  /// appends, I/O probes, statuses).
  void Exact(bool ok) {
    ++attempted_;
    if (!ok) ++exact_failures_;
  }
  /// A FastMatch answer: ok when both guarantees hold. Failures are
  /// allowed at the rate delta bounds (see Correct()).
  void Guarantee(bool ok) {
    ++attempted_;
    ++guaranteed_;
    if (!ok) ++guarantee_failures_;
  }
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    metrics_.push_back({name, value, unit, samples});
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return exact_failures_ + guarantee_failures_; }
  double ok_rate() const {
    return attempted_ == 0
               ? 0
               : 1.0 - static_cast<double>(failed()) /
                           static_cast<double>(attempted_);
  }

  /// Exact operations must never fail. Guarantee failures may occur with
  /// probability at most delta per query; more than delta*n + 3 sd of a
  /// Binomial(n, delta) count marks the run incorrect.
  bool Correct() const {
    const double delta = Params().delta;
    const double n = static_cast<double>(guaranteed_);
    const double allowed = delta * n + 3.0 * std::sqrt(delta * (1 - delta) * n);
    return attempted_ > 0 && exact_failures_ == 0 &&
           static_cast<double>(guarantee_failures_) <= allowed;
  }

  void Print() const {
    std::printf("%-34s %16s %-8s %8s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : metrics_) {
      std::printf("%-34s %16.6f %-8s %8lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
    std::printf("attempted %lld, failed %lld (exact %lld, guarantee %lld)\n",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed()),
                static_cast<long long>(exact_failures_),
                static_cast<long long>(guarantee_failures_));
    std::string json = "{\"correct\": ";
    json += Correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed());
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  int64_t attempted_ = 0;
  int64_t guaranteed_ = 0;
  int64_t exact_failures_ = 0;
  int64_t guarantee_failures_ = 0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------- run config

/// SharedWorkerPool workers: nproc - 1 on the 4-core host this was
/// tuned on, leaving one core to the client thread.
constexpr int kPoolThreads = 3;
/// Queries per dashboard; the scheduler's batch holds exactly one.
constexpr int kPanels = 16;
/// Store builds per run; setup_s is their median.
constexpr int kSetupReps = 4;
/// Rows per appended slice: an append takes a few milliseconds, well
/// above timer noise.
constexpr int64_t kAppendRows = 60000;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
  int64_t rows = 0;           // rows per generated store
  int rounds = 1;             // solo loops, dashboards, or refreshes
  int corrupt_every = 0;      // smoke test: corrupt every n-th answer
};

// -------------------------------------------------------------- setup

/// One generated store with its bitmap indexes.
struct Dataset {
  SyntheticDataset ds;
  std::map<int, std::shared_ptr<const BitmapIndex>> index;  // by z_attr
};

struct SetupResult {
  std::map<std::string, Dataset> datasets;
  std::vector<double> total_s, generate_s, index_s;
};

int Attr(const ColumnStore& store, const std::string& name) {
  auto attr = store.schema().FindAttribute(name);
  if (!attr.ok()) Die("unknown attribute " + name);
  return *attr;
}

/// The stores are fixed, like the paper's three real datasets; the
/// workload seed picks the work done on them (scan starts, panel
/// targets, appended slices).
constexpr uint64_t kDatasetSeed = 20180501;

SyntheticDataset Generate(const std::string& name, int64_t rows) {
  if (name == "flights") return fastmatch::MakeFlightsLike(rows, kDatasetSeed);
  if (name == "taxi") return fastmatch::MakeTaxiLike(rows, kDatasetSeed + 1);
  if (name == "police") return fastmatch::MakePoliceLike(rows, kDatasetSeed + 2);
  Die("unknown dataset " + name);
}

/// Builds the named stores and their indexes `reps` times (dropping the
/// previous build first), calls `after_build` after each build, and
/// keeps the last build. Only generation and index construction are
/// timed.
SetupResult Setup(
    const std::vector<std::pair<std::string, std::vector<std::string>>>& plan,
    const Config& config,
    const std::function<void(int, std::map<std::string, Dataset>&)>&
        after_build = nullptr) {
  SetupResult out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.datasets.clear();
    double generate = 0, index = 0;
    for (const auto& [name, index_attrs] : plan) {
      const Clock::time_point t0 = Clock::now();
      Dataset d;
      d.ds = Generate(name, config.rows);
      const Clock::time_point t1 = Clock::now();
      for (const std::string& attr_name : index_attrs) {
        const int attr = Attr(*d.ds.store, attr_name);
        auto built = BitmapIndex::Build(*d.ds.store, attr);
        if (!built.ok()) Die(built.status().ToString());
        d.index[attr] = std::move(built).value();
      }
      generate += std::chrono::duration<double>(t1 - t0).count();
      index += SecondsSince(t1);
      out.datasets.emplace(name, std::move(d));
    }
    out.generate_s.push_back(generate);
    out.index_s.push_back(index);
    out.total_s.push_back(generate + index);
    if (after_build) after_build(rep, out.datasets);
  }
  return out;
}

void AddSetupMetrics(const SetupResult& setup, Report* report, bool trace) {
  if (trace) {
    report->Add("setup.generate_s", Quantile(setup.generate_s, 0.5), "s",
                static_cast<int64_t>(setup.generate_s.size()));
    report->Add("setup.index_build_s", Quantile(setup.index_s, 0.5), "s",
                static_cast<int64_t>(setup.index_s.size()));
  } else {
    report->Add("setup_s", Quantile(setup.total_s, 0.5), "s",
                static_cast<int64_t>(setup.total_s.size()));
  }
}

// --------------------------------------------------------- verification

/// Checks a FastMatch answer against exact counts; `corrupt` first
/// replaces the answer's best candidate with the worst eligible one (the
/// smoke test's proof that the check bites).
bool GuaranteesHold(MatchResult match, const CountMatrix& exact,
                    const Distribution& target, const HistSimParams& params,
                    bool corrupt) {
  const GroundTruth truth = fastmatch::ComputeGroundTruth(
      exact, target, params.metric, params.sigma, params.k);
  if (corrupt && !match.topk.empty()) {
    int worst = -1;
    for (int c = 0; c < exact.num_candidates(); ++c) {
      if (!truth.eligible[static_cast<size_t>(c)]) continue;
      if (worst < 0 || truth.distances[static_cast<size_t>(c)] >
                           truth.distances[static_cast<size_t>(worst)]) {
        worst = c;
      }
    }
    match.topk.front() = worst;
  }
  const fastmatch::GuaranteeCheck check =
      fastmatch::CheckGuarantees(match, exact, truth, target, params);
  return check.separation_ok && check.reconstruction_ok;
}

/// A Scan answer must equal the exact top-k.
bool ScanExact(const MatchResult& match, const CountMatrix& exact,
               const Distribution& target, const HistSimParams& params) {
  const GroundTruth truth = fastmatch::ComputeGroundTruth(
      exact, target, params.metric, params.sigma, params.k);
  return match.topk == truth.topk;
}

// ----------------------------------------------------- traced sampler

/// Forwards to the engine's Sampler, recording a span per call: the
/// HistSim::Run span minus these is core/histsim's self time.
class TracedSampler final : public fastmatch::Sampler {
 public:
  TracedSampler(fastmatch::Sampler* inner, Tracer* tracer, uint64_t request)
      : inner_(inner), tracer_(tracer), request_(request) {}
  int num_candidates() const override { return inner_->num_candidates(); }
  int num_groups() const override { return inner_->num_groups(); }
  int64_t total_rows() const override { return inner_->total_rows(); }
  int64_t SampleRows(int64_t m, CountMatrix* out) override {
    Span span(tracer_, "Sampler::SampleRows", request_);
    return inner_->SampleRows(m, out);
  }
  void SampleUntilTargets(const std::vector<int64_t>& targets,
                          CountMatrix* out,
                          std::vector<bool>* exhausted) override {
    Span span(tracer_, "Sampler::SampleUntilTargets", request_);
    inner_->SampleUntilTargets(targets, out, exhausted);
  }
  bool AllConsumed() const override { return inner_->AllConsumed(); }
  int64_t rows_consumed() const override { return inner_->rows_consumed(); }

 private:
  fastmatch::Sampler* inner_;
  Tracer* tracer_;
  uint64_t request_;
};

/// Per-query layer counts of a decomposed solo run.
struct SoloStats {
  fastmatch::EngineStats engine;
  int rounds = 0;
  int64_t total_rows = 0;
};

/// RunQuery(kFastMatch) taken apart from outside: SamplingEngine::Create,
/// then HistSim::Run over a span-recording sampler.
fastmatch::Result<MatchResult> TracedFastMatch(const BoundQuery& query,
                                               Tracer* tracer,
                                               uint64_t request,
                                               SoloStats* stats) {
  Span root(tracer, "RunQuery(kFastMatch)", request);
  fastmatch::EngineOptions options;
  options.policy = fastmatch::BlockSelection::kAnyActiveLookahead;
  options.lookahead = query.lookahead;
  options.seed = query.params.seed;
  std::unique_ptr<fastmatch::SamplingEngine> engine;
  {
    Span span(tracer, "SamplingEngine::Create", request);
    auto created = fastmatch::SamplingEngine::Create(
        query.store, query.z_index, query.z_attr, query.x_attrs, options);
    if (!created.ok()) return created.status();
    engine = std::move(created).value();
  }
  TracedSampler sampler(engine.get(), tracer, request);
  fastmatch::HistSim histsim(query.params, query.target);
  fastmatch::Result<MatchResult> match = [&] {
    Span span(tracer, "HistSim::Run", request);
    return histsim.Run(&sampler);
  }();
  if (match.ok()) {
    stats->engine = engine->stats();
    stats->rounds = match->diag.rounds;
    stats->total_rows = engine->total_rows();
  }
  return match;
}

/// Per-layer solo metrics from the traced rounds' spans and counts.
void AddSoloLayerMetrics(const Tracer& tracer,
                         const std::vector<SoloStats>& stats, Report* report) {
  const int64_t n = static_cast<int64_t>(stats.size());
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0;
  double frac = 0, skipped = 0, batches = 0, rounds = 0;
  for (const SoloStats& s : stats) {
    frac += static_cast<double>(s.engine.rows_read) /
            static_cast<double>(std::max<int64_t>(1, s.total_rows));
    skipped += static_cast<double>(s.engine.blocks_skipped);
    batches += static_cast<double>(s.engine.marker_batches);
    rounds += s.rounds;
  }
  const double sample_s = tracer.Total("Sampler::SampleRows") +
                          tracer.Total("Sampler::SampleUntilTargets");
  report->Add("engine.solo.sample_ms", 1e3 * sample_s * per, "ms", n);
  report->Add("engine.solo.rows_read_frac", frac * per, "frac", n);
  report->Add("engine.solo.blocks_skipped", skipped * per, "count", n);
  report->Add("engine.solo.marker_batches", batches * per, "count", n);
  report->Add("core.histsim.self_ms",
              1e3 * tracer.SelfTotal("HistSim::Run") * per, "ms", n);
  report->Add("core.histsim.rounds", rounds * per, "count", n);
}

// ------------------------------------------------------- layer probes

/// Step time and counts of one direct BatchExecutor run.
struct Replay {
  double step_s = 0;
  BatchStats stats;
  std::vector<BatchItem> items;
};

/// Runs `queries` as one batch straight on BatchExecutor (no scheduler),
/// optionally with the no-op progress callback the scheduler installs.
Replay ReplayBatch(const std::vector<BoundQuery>& queries,
                   const std::optional<fastmatch::ScanResume>& resume,
                   SharedWorkerPool* pool, uint64_t seed, bool progress,
                   Tracer* tracer, uint64_t request) {
  BatchOptions options;
  options.num_threads = pool->size();
  options.shared_pool = pool;
  options.seed = seed;
  options.resume = resume;
  Replay out;
  std::unique_ptr<BatchExecutor> executor;
  {
    Span span(tracer, "BatchExecutor::Create", request);
    auto created = BatchExecutor::Create(queries, options);
    if (!created.ok()) Die(created.status().ToString());
    executor = std::move(created).value();
  }
  if (progress) {
    // Shaped like the scheduler's: route by index to consumers that
    // opted out of progress (null channel, no hook).
    std::vector<std::shared_ptr<fastmatch::ProgressChannel>> channels(
        queries.size());
    executor->SetProgressCallback(
        [channels](size_t index, const fastmatch::ProgressUpdate& update) {
          if (index >= channels.size()) return;
          if (channels[index] != nullptr) channels[index]->Publish(update);
        });
  }
  const Clock::time_point t0 = Clock::now();
  {
    Span span(tracer, "BatchExecutor::Start", request);
    executor->Start();
  }
  for (;;) {
    Span span(tracer, "BatchExecutor::Step", request);
    if (!executor->Step()) break;
  }
  out.step_s = SecondsSince(t0);
  out.stats = executor->stats();
  {
    Span span(tracer, "BatchExecutor::TakeItems", request);
    out.items = executor->TakeItems();
  }
  return out;
}

/// Attaches stage-1 snapshots from `cache` the way the scheduler does
/// for a batch at the store's current generation, and returns the scan
/// resume it would use when every query is warm from one snapshot.
std::optional<fastmatch::ScanResume> WarmAsScheduled(
    std::vector<BoundQuery>* queries, fastmatch::Stage1Cache* cache) {
  for (BoundQuery& q : *queries) {
    const uint64_t generation = q.store->Pin().generation;
    fastmatch::Stage1LookupResult found = cache->Lookup(
        q.store->id(), fastmatch::kWholeStorePartition, q.z_attr, q.x_attrs,
        q.params.stage1_samples, generation);
    if (found.outcome != fastmatch::Stage1Outcome::kHit) return std::nullopt;
    q.stage1_warm = std::move(found.snapshot);
    q.stage1_warm_generation = generation;
  }
  const auto& first = queries->front();
  for (const BoundQuery& q : *queries) {
    if (q.stage1_warm != first.stage1_warm) return std::nullopt;
  }
  const fastmatch::ScanResume& scan = first.stage1_warm->scan;
  if (first.stage1_warm_generation != scan.generation) {
    return std::nullopt;  // a promoted snapshot: no resume
  }
  auto donor = first.store->PinAt(scan.generation);
  if (!donor.ok() || scan.consumed.size() != donor->num_blocks ||
      scan.consumed.Popcount() >= donor->num_blocks) {
    return std::nullopt;  // nothing left to scan
  }
  return scan;
}

/// engine.batch.*: alternates replays without and with the progress
/// callback; progress_ms is the difference of their medians.
void ProbeBatch(const std::vector<BoundQuery>& queries,
                const std::optional<fastmatch::ScanResume>& resume,
                const std::vector<const CountMatrix*>& exact,
                SharedWorkerPool* pool,
                const Config& config, Tracer* tracer, Report* report) {
  constexpr int kReps = 2;
  std::vector<double> plain, with_progress;
  BatchStats stats;
  for (int rep = 0; rep < kReps; ++rep) {
    for (bool progress : {false, true}) {
      Replay replay = ReplayBatch(queries, resume, pool, Mix(config.seed, 77),
                                  progress, tracer, 1000000 + rep);
      (progress ? with_progress : plain).push_back(replay.step_s);
      stats = replay.stats;
      for (size_t i = 0; i < replay.items.size(); ++i) {
        const BatchItem& item = replay.items[i];
        report->Exact(item.status.ok());
        if (item.status.ok()) {
          report->Guarantee(GuaranteesHold(item.match, *exact[i], queries[i].target,
                                           queries[i].params, false));
        }
      }
    }
  }
  const double step = Quantile(plain, 0.5);
  report->Add("engine.batch.progress_ms",
              1e3 * (Quantile(with_progress, 0.5) - step), "ms", kReps);
  report->Add("engine.batch.step_ms", 1e3 * step, "ms", kReps);
  report->Add("engine.batch.chunks", static_cast<double>(stats.chunks), "count");
  report->Add("engine.batch.blocks_read", static_cast<double>(stats.blocks_read),
              "count");
  report->Add("engine.batch.blocks_skipped",
              static_cast<double>(stats.blocks_skipped), "count");
  report->Add("engine.batch.rows_read", static_cast<double>(stats.rows_read),
              "count");
}

/// engine.io.rows_per_s: IoManager::ReadBlocks over every block of the
/// store on one thread; the counts must equal the exact counts.
void ProbeIo(const std::shared_ptr<const ColumnStore>& store, int z_attr,
             const std::vector<int>& x_attrs, const CountMatrix& exact,
             Tracer* tracer, Report* report) {
  auto io = fastmatch::IoManager::Create(store, z_attr, x_attrs);
  if (!io.ok()) Die(io.status().ToString());
  const int64_t num_blocks = (*io)->pin().num_blocks;
  std::vector<fastmatch::BlockId> blocks(static_cast<size_t>(num_blocks));
  for (int64_t b = 0; b < num_blocks; ++b) blocks[static_cast<size_t>(b)] = b;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    CountMatrix shard(exact.num_candidates(), exact.num_groups());
    const Clock::time_point t0 = Clock::now();
    int64_t rows = 0;
    {
      Span span(tracer, "IoManager::ReadBlocks", 2000000 + rep);
      rows = (*io)->ReadBlocks(blocks, 0, blocks.size(), &shard);
    }
    rates.push_back(static_cast<double>(rows) / SecondsSince(t0));
    bool same = true;
    for (int c = 0; c < exact.num_candidates() && same; ++c) {
      same = std::ranges::equal(shard.Row(c), exact.Row(c));
    }
    report->Exact(same);
  }
  report->Add("engine.io.rows_per_s", Quantile(rates, 0.5), "rows/s", 3);
}

/// Exact counts of `slice` for (z_attr, x_attr), added to `counts`.
void AddSliceCounts(const std::vector<std::vector<Value>>& slice, int z_attr,
                    int x_attr, CountMatrix* counts) {
  const auto& z = slice[static_cast<size_t>(z_attr)];
  const auto& x = slice[static_cast<size_t>(x_attr)];
  for (size_t r = 0; r < z.size(); ++r) {
    counts->Add(static_cast<int>(z[r]), static_cast<int>(x[r]));
  }
}

/// `rows` rows of `store` starting at `begin`, one vector per attribute:
/// a re-ingested uniform sample, since the store is pre-shuffled.
std::vector<std::vector<Value>> SliceOf(const ColumnStore& store,
                                        int64_t begin, int64_t rows) {
  std::vector<std::vector<Value>> cols(
      static_cast<size_t>(store.schema().num_attributes()));
  for (size_t a = 0; a < cols.size(); ++a) {
    const auto& column = store.column(static_cast<int>(a));
    cols[a].reserve(static_cast<size_t>(rows));
    for (int64_t r = begin; r < begin + rows; ++r) {
      cols[a].push_back(column.Get(r % store.num_rows()));
    }
  }
  return cols;
}

/// Appends one slice, timed; returns seconds.
double TimedAppend(ColumnStore* store,
                   const std::vector<std::vector<Value>>& slice,
                   uint64_t seed, Tracer* tracer, uint64_t request,
                   Report* report) {
  const Clock::time_point t0 = Clock::now();
  fastmatch::Result<uint64_t> generation = [&] {
    Span span(tracer, "ColumnStore::AppendBatch", request);
    return store->AppendBatch(slice, seed);
  }();
  const double seconds = SecondsSince(t0);
  report->Exact(generation.ok());
  return seconds;
}

/// storage.append_* for the workloads that do not append: one slice of
/// the workload's rows appended to a store built (untimed) from another
/// slice, on a fresh store each time. An append's cost does not depend
/// on the size of the store it grows.
std::vector<double> ProbeAppend(const ColumnStore& source, const Config& config,
                                Tracer* tracer, Report* report) {
  const auto base = SliceOf(source, 0, kAppendRows);
  const auto slice = SliceOf(source, kAppendRows, kAppendRows);
  std::vector<double> seconds;
  for (int rep = 0; rep < 5; ++rep) {
    auto store = ColumnStore::FromColumns(source.schema(), base);
    if (!store.ok()) Die(store.status().ToString());
    seconds.push_back(TimedAppend(store->get(), slice, Mix(config.seed, 500 + rep),
                                  tracer, 3000000 + rep, report));
  }
  return seconds;
}

void AddAppendMetrics(const std::vector<double>& seconds, Report* report) {
  const int64_t n = static_cast<int64_t>(seconds.size());
  const double p50 = Quantile(seconds, 0.5);
  report->Add("storage.append_ms_p50", 1e3 * p50, "ms", n);
  report->Add("storage.append_rows_per_s", static_cast<double>(kAppendRows) / p50,
              "rows/s", n);
}

void AddServiceMetrics(const SchedulerStats& stats,
                       const std::vector<double>& queue_s,
                       const std::vector<double>& exec_s, Report* report) {
  const int64_t n = static_cast<int64_t>(queue_s.size());
  report->Add("service.queue_ms_p50", 1e3 * Quantile(queue_s, 0.5), "ms", n);
  report->Add("service.exec_ms_p50", 1e3 * Quantile(exec_s, 0.5), "ms", n);
  report->Add("service.blocks_per_query",
              static_cast<double>(stats.batch_blocks_read) /
                  static_cast<double>(std::max<int64_t>(1, stats.completed)),
              "count", stats.completed);
  report->Add("service.batches_launched",
              static_cast<double>(stats.batches_launched), "count");
  report->Add("service.stage1_hit_rate",
              static_cast<double>(stats.stage1_hits) /
                  static_cast<double>(std::max<int64_t>(1, stats.stage1_lookups)),
              "frac", stats.stage1_lookups);
  report->Add("service.stage1_promotions",
              static_cast<double>(stats.stage1_promotions), "count");
  report->Add("service.stage1_drift_evictions",
              static_cast<double>(stats.stage1_drift_evictions), "count");
}

SchedulerOptions ClosedLoopSchedulerOptions(SharedWorkerPool* pool,
                                            const Config& config,
                                            int batch_queries) {
  SchedulerOptions options;
  options.pool = pool;
  options.batch.num_threads = pool->size();
  options.batch.seed = Mix(config.seed, 77);
  // Closed loop: a batch launches only when the dashboard fills it, so
  // its composition never depends on timing.
  options.max_batch_queries = batch_queries;
  options.max_queue_wait_seconds = 3600;
  options.allow_joins = false;
  options.stage1_cache = true;
  return options;
}

/// End-to-end latency metrics shared by every workload.
void AddLatencyMetrics(const std::vector<double>& latency_s, double busy_s,
                       double cpu_s, Report* report) {
  const int64_t n = static_cast<int64_t>(latency_s.size());
  report->Add("latency_p50_ms", 1e3 * Quantile(latency_s, 0.5), "ms", n);
  report->Add("latency_p90_ms", 1e3 * Quantile(latency_s, 0.9), "ms", n);
  report->Add("throughput_qps", static_cast<double>(n) / busy_s, "1/s", n);
  report->Add("cpu_ms_per_query", 1e3 * cpu_s / static_cast<double>(n), "ms", n);
}

void AddOverhead(const std::vector<double>& traced_s,
                 const std::vector<double>& plain_s, Report* report) {
  report->Add("trace.overhead_frac",
              Quantile(traced_s, 0.5) / Quantile(plain_s, 0.5) - 1.0, "frac",
              static_cast<int64_t>(traced_s.size()));
}

void AddCommonTail(Report* report) {
  report->Add("ok_rate", report->ok_rate(), "frac", report->attempted());
  report->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

// ------------------------------------------------------ solo-paper

void RunSoloPaper(const Config& config, Report* report, Tracer* tracer) {
  std::vector<fastmatch::PreparedQuery> queries;
  struct Answer {
    size_t query = 0;
    MatchResult match;
  };
  std::vector<Answer> answers;
  std::vector<double> fast_s, scan_s, traced_s, plain_s;
  std::vector<SoloStats> solo_stats;
  double cpu_s = 0;
  uint64_t request = 0;
  size_t checked = 0;
  int loop = 0;
  // The loops are spread over the set-up repetitions: after each build,
  // its share of the loops runs on it. Every build is the same data (a
  // fixed generator seed), so the work is the same; spreading it over
  // the whole run averages out slow spells of a shared machine.
  SetupResult setup = Setup(
      {{"flights", {"Origin"}},
       {"taxi", {"Location"}},
       {"police", {"RoadID", "Violation"}}},
      config, [&](int rep, std::map<std::string, Dataset>& datasets) {
    // Bind the nine queries; exact counts and truth are untimed.
    queries.clear();
    for (const PaperQuery& spec : fastmatch::PaperQueries()) {
      Dataset& d = datasets.at(spec.dataset);
      auto prepared = fastmatch::PrepareQuery(
          d.ds, spec, Params(), d.index.at(Attr(*d.ds.store, spec.z_attr)));
      if (!prepared.ok()) Die(prepared.status().ToString());
      queries.push_back(std::move(prepared).value());
    }
    for (; loop < config.rounds * (rep + 1) / kSetupReps; ++loop) {
      const bool traced = config.trace && loop % 2 == 1;
      for (size_t q = 0; q < queries.size(); ++q) {
        BoundQuery bound = queries[q].bound;
        bound.params.seed = Mix(config.seed, 100 * loop + q);
        ++request;
        const double cpu0 = CpuSeconds();
        const Clock::time_point t0 = Clock::now();
        fastmatch::Result<MatchResult> match = Status::Internal("not run");
        if (traced) {
          SoloStats stats;
          match = TracedFastMatch(bound, tracer, request, &stats);
          solo_stats.push_back(stats);
        } else {
          auto out = fastmatch::RunQuery(bound, Approach::kFastMatch);
          match = out.ok() ? fastmatch::Result<MatchResult>(std::move(out->match))
                           : fastmatch::Result<MatchResult>(out.status());
        }
        const double seconds = SecondsSince(t0);
        cpu_s += CpuSeconds() - cpu0;
        fast_s.push_back(seconds);
        (traced ? traced_s : plain_s).push_back(seconds);
        report->Exact(match.ok());
        if (match.ok()) answers.push_back({q, std::move(match).value()});

        // The Scan baseline for the same query, interleaved so machine
        // drift cancels out of the ratio.
        const Clock::time_point s0 = Clock::now();
        fastmatch::Result<fastmatch::RunOutput> scan = [&] {
          Span span(traced ? tracer : nullptr, "RunQuery(kScan)", request);
          return fastmatch::RunQuery(bound, Approach::kScan);
        }();
        scan_s.push_back(SecondsSince(s0));
        report->Exact(scan.ok() && ScanExact(scan->match, queries[q].exact,
                                             bound.target, bound.params));
      }
    }

    // Output check (untimed), against this build's truth.
    for (const Answer& answer : answers) {
      const fastmatch::PreparedQuery& q = queries[answer.query];
      const bool corrupt = config.corrupt_every > 0 &&
                           checked++ % static_cast<size_t>(config.corrupt_every) == 0;
      report->Guarantee(GuaranteesHold(answer.match, q.exact, q.bound.target,
                                       q.bound.params, corrupt));
    }
    answers.clear();
    // Release this build before the next one (the last one stays).
    if (rep + 1 < kSetupReps) queries.clear();
  });
  AddSetupMetrics(setup, report, config.trace);
  const double busy_s = Sum(fast_s);

  if (config.trace) {
    AddSoloLayerMetrics(*tracer, solo_stats, report);
    report->Add("engine.scan_baseline_ms", 1e3 * Quantile(scan_s, 0.5), "ms",
                static_cast<int64_t>(scan_s.size()));
    AddOverhead(traced_s, plain_s, report);

    // Layer probes over the solo queries: the taxi pair as one batch,
    // a read of the taxi store, and every query through the scheduler
    // one at a time (twice, so the second pass meets the stage-1 cache).
    const fastmatch::PreparedQuery& taxi = queries[4];
    SharedWorkerPool pool(kPoolThreads);
    ProbeBatch({queries[4].bound, queries[5].bound}, std::nullopt,
               {&queries[4].exact, &queries[5].exact}, &pool, config, tracer,
               report);
    ProbeIo(taxi.bound.store, taxi.bound.z_attr, taxi.bound.x_attrs, taxi.exact,
            tracer, report);
    QueryScheduler scheduler(ClosedLoopSchedulerOptions(&pool, config, 1));
    std::vector<double> queue_s, exec_s;
    for (int pass = 0; pass < 2; ++pass) {
      for (const fastmatch::PreparedQuery& q : queries) {
        auto handle = scheduler.Submit(q.bound);
        report->Exact(handle.ok());
        if (!handle.ok()) continue;
        SchedulerItem item = handle->Get();
        report->Exact(item.status.ok());
        if (!item.status.ok()) continue;
        queue_s.push_back(item.queue_seconds);
        exec_s.push_back(item.total_seconds - item.queue_seconds);
        report->Guarantee(GuaranteesHold(item.match, q.exact, q.bound.target,
                                         q.bound.params, false));
      }
    }
    scheduler.Shutdown();
    AddServiceMetrics(scheduler.stats(), queue_s, exec_s, report);
    AddAppendMetrics(ProbeAppend(*queries[0].bound.store, config, tracer, report),
                     report);
    return;
  }
  AddLatencyMetrics(fast_s, busy_s, cpu_s, report);
  report->Add("speedup_vs_scan", Sum(scan_s) / busy_s, "x",
              static_cast<int64_t>(scan_s.size()));
  AddCommonTail(report);
}

// ------------------------------------------------------- dashboards

/// Distinct panel targets: the exact histogram of a uniformly drawn
/// non-empty candidate, from one exact-count pass over the store.
std::vector<Distribution> PanelTargets(const CountMatrix& exact, int count,
                                       uint64_t seed) {
  fastmatch::Rng rng(seed);
  std::vector<Distribution> targets;
  while (static_cast<int>(targets.size()) < count) {
    const int c = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(exact.num_candidates())));
    if (exact.RowTotal(c) > 0) targets.push_back(exact.NormalizedRow(c));
  }
  return targets;
}

void RunDashboards(const Config& config, bool live, Report* report,
                   Tracer* tracer) {
  const std::string dataset = live ? "flights" : "taxi";
  const std::string z_name = live ? "Origin" : "Location";
  const std::string x_name = live ? "DepartureHour" : "HourOfDay";
  SetupResult setup = Setup({{dataset, {z_name}}}, config);
  AddSetupMetrics(setup, report, config.trace);
  Dataset& d = setup.datasets.at(dataset);
  const std::shared_ptr<ColumnStore> store = d.ds.store;
  const int z_attr = Attr(*store, z_name);
  const int x_attr = Attr(*store, x_name);

  // One exact-count pass: panel targets and the truth, which the live
  // workload keeps exact by adding each appended slice's counts.
  auto counted = fastmatch::ComputeExactCounts(*store, z_attr, {x_attr});
  if (!counted.ok()) Die(counted.status().ToString());
  CountMatrix exact = std::move(counted).value();
  const std::vector<Distribution> targets = PanelTargets(
      exact, config.rounds * kPanels, Mix(config.seed, 11));

  // Live slices (untimed input preparation): store rows from seeded
  // offsets, i.e. uniform samples of the relation re-ingested. Slices
  // from another distribution would make scan windows non-uniform
  // samples, which the guarantees assume they are (README, Findings).
  std::vector<std::vector<std::vector<Value>>> slices;
  if (live) {
    for (int r = 0; r < config.rounds; ++r) {
      const uint64_t begin = Mix(config.seed, 300 + r) %
                             static_cast<uint64_t>(store->num_rows());
      slices.push_back(
          SliceOf(*store, static_cast<int64_t>(begin), kAppendRows));
    }
  }

  SharedWorkerPool pool(kPoolThreads);
  QueryScheduler scheduler(ClosedLoopSchedulerOptions(&pool, config, kPanels));
  BoundQuery base;
  base.store = store;
  base.z_index = d.index.at(z_attr);
  base.z_attr = z_attr;
  base.x_attrs = {x_attr};
  base.params = Params();

  size_t checked = 0;
  std::vector<double> latency_s, traced_s, plain_s, dashboard_s, scan_s,
      append_s, queue_s, exec_s;
  double cpu_s = 0;
  std::vector<BoundQuery> last_batch;
  for (int r = 0; r < config.rounds; ++r) {
    const bool traced = config.trace && r % 2 == 1;
    Tracer* t = traced ? tracer : nullptr;
    const uint64_t request = static_cast<uint64_t>(r) + 1;
    if (live) {
      append_s.push_back(TimedAppend(store.get(), slices[static_cast<size_t>(r)],
                                     Mix(config.seed, 400 + r), t, request,
                                     report));
      AddSliceCounts(slices[static_cast<size_t>(r)], z_attr, x_attr, &exact);
    }
    std::vector<BoundQuery> panels;
    for (int p = 0; p < kPanels; ++p) {
      BoundQuery q = base;
      q.target = targets[static_cast<size_t>(r * kPanels + p)];
      panels.push_back(std::move(q));
    }

    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<QueryHandle> handles;
    std::vector<std::pair<size_t, MatchResult>> matches;  // panel, answer
    {
      Span dash(t, "dashboard", request);
      for (const BoundQuery& q : panels) {
        auto handle = [&] {
          Span span(t, "QueryScheduler::Submit", request);
          return scheduler.Submit(q);
        }();
        report->Exact(handle.ok());
        if (handle.ok()) handles.push_back(std::move(handle).value());
      }
      for (size_t p = 0; p < handles.size(); ++p) {
        SchedulerItem item = [&] {
          Span span(t, "QueryHandle::Get", request);
          return handles[p].Get();
        }();
        report->Exact(item.status.ok());
        if (!item.status.ok()) continue;
        latency_s.push_back(item.total_seconds);
        (traced ? traced_s : plain_s).push_back(item.total_seconds);
        if (traced) {
          queue_s.push_back(item.queue_seconds);
          exec_s.push_back(item.total_seconds - item.queue_seconds);
        }
        matches.emplace_back(p, std::move(item.match));
      }
    }
    dashboard_s.push_back(SecondsSince(t0));
    cpu_s += CpuSeconds() - cpu0;

    // Output check (untimed), against this generation's exact counts.
    for (const auto& [p, match] : matches) {
      const bool corrupt = config.corrupt_every > 0 &&
                           checked++ % static_cast<size_t>(config.corrupt_every) == 0;
      report->Guarantee(GuaranteesHold(match, exact, panels[p].target,
                                       base.params, corrupt));
    }

    // Scan baseline: one exact pass answers the whole dashboard (all
    // panels share the template), so its time is one RunQuery(kScan).
    const Clock::time_point s0 = Clock::now();
    fastmatch::Result<fastmatch::RunOutput> scan = [&] {
      Span span(t, "RunQuery(kScan)", request);
      return fastmatch::RunQuery(panels.front(), Approach::kScan);
    }();
    scan_s.push_back(SecondsSince(s0));
    report->Exact(scan.ok() && ScanExact(scan->match, exact,
                                         panels.front().target, base.params));
    last_batch = std::move(panels);
  }
  scheduler.Shutdown();
  const SchedulerStats stats = scheduler.stats();

  if (config.trace) {
    AddServiceMetrics(stats, queue_s, exec_s, report);
    AddOverhead(traced_s, plain_s, report);
    AddAppendMetrics(live ? append_s : ProbeAppend(*store, config, tracer, report),
                     report);
    report->Add("engine.scan_baseline_ms", 1e3 * Quantile(scan_s, 0.5), "ms",
                static_cast<int64_t>(scan_s.size()));
    // The last dashboard again, warm from the scheduler's stage-1 cache
    // as the scheduler ran it.
    const std::optional<fastmatch::ScanResume> resume =
        WarmAsScheduled(&last_batch, scheduler.stage1_cache());
    ProbeBatch(last_batch, resume,
               std::vector<const CountMatrix*>(last_batch.size(), &exact),
               &pool, config, tracer, report);
    ProbeIo(store, z_attr, {x_attr}, exact, tracer, report);
    // Solo path over four of the last dashboard's panels. The single-query
    // engine needs an index of the grown store (built untimed).
    auto grown_index = BitmapIndex::Build(*store, z_attr);
    if (!grown_index.ok()) Die(grown_index.status().ToString());
    std::vector<SoloStats> solo_stats;
    for (int p = 0; p < 4 && p < static_cast<int>(last_batch.size()); ++p) {
      BoundQuery q = last_batch[static_cast<size_t>(p)];
      q.z_index = *grown_index;
      q.params.seed = Mix(config.seed, 900 + p);
      SoloStats s;
      auto match = TracedFastMatch(q, tracer, 4000000 + p, &s);
      report->Exact(match.ok());
      if (!match.ok()) continue;
      solo_stats.push_back(s);
      report->Guarantee(
          GuaranteesHold(*match, exact, q.target, q.params, false));
    }
    AddSoloLayerMetrics(*tracer, solo_stats, report);
    return;
  }
  AddLatencyMetrics(latency_s, Sum(dashboard_s), cpu_s, report);
  report->Add("speedup_vs_scan", Sum(scan_s) / Sum(dashboard_s), "x",
              static_cast<int64_t>(scan_s.size()));
  AddCommonTail(report);
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  Config config;
  config.workload = flags.Str("workload");
  config.seed = static_cast<uint64_t>(flags.Int("seed"));
  config.trace = flags.Int("trace") != 0;
  config.trace_out = flags.Str("trace-out");
  config.rows = flags.Int("rows");
  config.rounds = static_cast<int>(flags.Int("rounds"));
  config.corrupt_every = static_cast<int>(flags.Int("corrupt-every"));
  if (config.rows < 1 || config.rounds < 1) {
    Die("sizes must be positive");
  }
  // Traced runs alternate traced and untraced rounds; they need both.
  if (config.trace) config.rounds = std::max(config.rounds, 2);

  Report report;
  Tracer tracer(config.trace);
  if (config.workload == "solo-paper") {
    RunSoloPaper(config, &report, &tracer);
  } else if (config.workload == "dashboard-wide") {
    RunDashboards(config, /*live=*/false, &report, &tracer);
  } else if (config.workload == "dashboard-live") {
    RunDashboards(config, /*live=*/true, &report, &tracer);
  } else {
    Die("unknown workload " + config.workload);
  }
  if (config.trace && !tracer.WriteChromeJson(config.trace_out)) {
    Die("cannot write " + config.trace_out);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
