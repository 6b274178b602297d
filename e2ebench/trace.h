// In-memory span recorder for traced benchmark runs.
//
// Each span records a name ("layer.call"), start, end, its parent (the
// innermost span open when it began) and the request id of the
// operation it belongs to. Spans are recorded by the benchmark around
// its calls into each layer's public functions, from the one thread
// that drives the workload, and kept in memory until the run ends.
// Then they are written as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing) and summarised per name: count, total,
// self time (duration minus the time its child spans cover), p50, p99.
//
// A disabled recorder reads no clock and stores nothing, so untraced
// runs pay nothing for the spans in the workload code.

#ifndef GREPAIR_E2EBENCH_TRACE_H_
#define GREPAIR_E2EBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/harness.h"

namespace grepair {
namespace e2e {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// \brief Opens a span as a child of the innermost open span; returns
  /// its id (-1 when disabled). `name` must be a string literal.
  int Begin(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Record{name, Now(), 0, parent, request});
    int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
  }

  /// \brief Closes span `id`, which must be the innermost open span.
  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    open_.pop_back();
  }

  /// \brief RAII span: Begin on construction, End on destruction.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request)
        : tracer_(tracer), id_(tracer->Begin(name, request)) {}
    ~Span() { tracer_->End(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  /// \brief The timed phase; coverage and overhead are computed over
  /// the spans inside it.
  void SetWindow(Clock::time_point start, Clock::time_point end) {
    window_start_ = ToNs(start);
    window_end_ = ToNs(end);
  }

  /// \brief Share of the timed phase that no top-level span covers.
  double UnattributedPct() const {
    double window = static_cast<double>(window_end_ - window_start_);
    if (window <= 0) return 0;
    int64_t covered = 0;
    for (const Record& r : spans_) {
      if (r.parent >= 0 || !InWindow(r)) continue;
      covered += r.end_ns - r.start_ns;
    }
    return 100.0 * (1.0 - static_cast<double>(covered) / window);
  }

  /// \brief Recorder cost inside the timed phase as a share of the
  /// phase without it: spans recorded there times the per-span cost
  /// measured by recording spans back to back.
  double OverheadPct() const {
    size_t n = 0;
    for (const Record& r : spans_) n += InWindow(r) ? 1 : 0;
    double cost = static_cast<double>(n) * SpanCostNs();
    double window = static_cast<double>(window_end_ - window_start_);
    if (window <= cost) return 0;
    return 100.0 * cost / (window - cost);
  }

  size_t span_count() const { return spans_.size(); }

  /// \brief Per-name table: count, total, self time, p50 and p99.
  void PrintSummary(std::FILE* out) const {
    struct Row {
      uint64_t count = 0;
      double total_ms = 0;
      double self_ms = 0;
      std::vector<double> durations_us;
    };
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Record& r : spans_) {
      if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      double dur_ns = static_cast<double>(r.end_ns - r.start_ns);
      Row& row = rows[r.name];
      ++row.count;
      row.total_ms += dur_ns / 1e6;
      row.self_ms += (dur_ns - static_cast<double>(child_ns[i])) / 1e6;
      row.durations_us.push_back(dur_ns / 1e3);
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.total_ms > b.second.total_ms;
    });
    std::fprintf(out, "%-26s %8s %12s %12s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms", "p50_us", "p99_us");
    for (const auto& [name, row] : sorted) {
      Percentile p99 = PercentileOf(row.durations_us, 0.99);
      std::fprintf(out, "%-26s %8llu %12.3f %12.3f %12.3f %12.3f%s\n",
                   name.c_str(), static_cast<unsigned long long>(row.count),
                   row.total_ms, row.self_ms,
                   PercentileOf(row.durations_us, 0.5).value, p99.value,
                   p99.supported() ? "" : " (p99 < 10 beyond)");
    }
  }

  /// \brief Writes every span as a Chrome trace "complete" event.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      std::string name = r.name;
      std::string cat = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"request\":%llu,\"parent\":%d}}",
                   i == 0 ? "" : ",", name.c_str(), cat.c_str(),
                   static_cast<double>(r.start_ns) / 1e3,
                   static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                   static_cast<unsigned long long>(r.request), r.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t request;
  };

  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  int64_t Now() const { return ToNs(Clock::now()); }
  bool InWindow(const Record& r) const {
    return r.start_ns >= window_start_ && r.end_ns <= window_end_;
  }

  // Cost of one Begin/End pair, measured once on a scratch recorder.
  static double SpanCostNs() {
    static const double cost = [] {
      constexpr int kSpans = 200000;
      Tracer scratch(true);
      scratch.spans_.reserve(kSpans + 1);
      int outer = scratch.Begin("calibrate", 0);
      auto t0 = Clock::now();
      for (int i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("x", i));
      auto t1 = Clock::now();
      scratch.End(outer);
      return Micros(t0, t1) * 1e3 / kSpans;
    }();
    return cost;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
};

}  // namespace e2e
}  // namespace grepair

#endif  // GREPAIR_E2EBENCH_TRACE_H_
