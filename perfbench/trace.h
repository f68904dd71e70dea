// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark wraps each call it makes into a library layer in a Span
// (name, start, end, parent span, request id). Spans are appended to a
// vector on the client thread and written once, at exit, as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto). A layer's
// self time is its span's duration minus the time its child spans cover.
//
// Single-threaded by design: every instrumented call is made from the
// benchmark's client thread.

#ifndef FASTMATCH_PERFBENCH_TRACE_H_
#define FASTMATCH_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    double start_s = 0;
    double end_s = 0;
    int64_t id = 0;
    int64_t parent = -1;  // -1: a root span
    uint64_t request = 0;
  };

  /// RAII span; a no-op when the tracer is off or null.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request)
        : tracer_(tracer != nullptr && tracer->on_ ? tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, request);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  explicit Tracer(bool on) : on_(on), origin_(std::chrono::steady_clock::now()) {}

  /// Sum of the durations of closed spans named `name`, in seconds.
  double Total(const std::string& name) const {
    double total = 0;
    for (const Record& r : records_) {
      if (name == r.name) total += r.end_s - r.start_s;
    }
    return total;
  }

  /// Sum over spans named `name` of their duration minus the durations
  /// of their direct children: the layer's self time, in seconds.
  double SelfTotal(const std::string& name) const {
    std::map<int64_t, double> child_time;
    for (const Record& r : records_) {
      if (r.parent >= 0) child_time[r.parent] += r.end_s - r.start_s;
    }
    double total = 0;
    for (const Record& r : records_) {
      if (name != r.name) continue;
      auto it = child_time.find(r.id);
      total += r.end_s - r.start_s - (it == child_time.end() ? 0 : it->second);
    }
    return total;
  }

  /// Writes every span as a Chrome trace-event "complete" event.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"request\":%llu}}\n",
                   i == 0 ? "" : ",", r.name, r.start_s * 1e6,
                   (r.end_s - r.start_s) * 1e6, static_cast<long long>(r.id),
                   static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double NowSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  size_t Open(const char* name, uint64_t request) {
    Record r;
    r.name = name;
    r.id = static_cast<int64_t>(records_.size());
    r.parent = open_.empty() ? -1 : records_[open_.back()].id;
    r.request = request;
    records_.push_back(r);
    open_.push_back(records_.size() - 1);
    records_.back().start_s = NowSeconds();
    return records_.size() - 1;
  }

  void Close(size_t index) {
    records_[index].end_s = NowSeconds();
    open_.pop_back();
  }

  const bool on_;
  const std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<size_t> open_;  // indexes of the spans still open
};

}  // namespace perfbench

#endif  // FASTMATCH_PERFBENCH_TRACE_H_
