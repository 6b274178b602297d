// One-command end-to-end benchmark of the gRePair corpus system.
//
//   e2e --workload NAME --seed S --seconds T [--trace-out trace.json]
//       [--json out.json] [--scratch DIR]
//
// Runs one workload (build-dblp, read-hot-local, read-cold-remote,
// mutate-rdf) in this process: a fixed corpus and an operation stream
// drawn from the seed, set up at least three times (setup_s is the
// median), then a closed-loop timed phase of about T seconds from one
// client thread. Every answer is checked against an uncompressed model
// of the generated graph.
// Prints every metric as `workload metric value unit n=<samples>`,
// then one JSON line {"correct", "attempted", "failed", "metrics"};
// untraced runs report the end-to-end metrics, traced runs
// (--trace-out) the per-layer ones, a per-span summary and a Chrome
// trace file. Temporary files live in a new directory the run creates
// inside --scratch DIR (default: the working directory) and removes at
// exit. Exits 1 when any operation failed or answered wrong, 2 on bad
// arguments or a failed set-up.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "e2ebench/metrics.h"
#include "e2ebench/workloads.h"

using namespace grepair;
using namespace grepair::e2e;

namespace {

struct Workload {
  const char* name;
  Status (*run)(Run*);
};

constexpr Workload kWorkloads[] = {
    {"build-dblp", RunBuildDblp},
    {"read-hot-local", RunReadHotLocal},
    {"read-cold-remote", RunReadColdRemote},
    {"mutate-rdf", RunMutateRdf},
};

int Usage() {
  std::fprintf(stderr,
               "usage: e2e --workload NAME --seed S --seconds T "
               "[--trace-out FILE] [--json FILE] [--scratch DIR]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double min, double max, double* out) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= min && v <= max)) return false;
  *out = v;
  return true;
}

// Shortest text that reads back as exactly `v`: every digit measured.
std::string JsonNumber(double v) {
  char buf[64];
  auto end = std::to_chars(buf, buf + sizeof buf, std::isfinite(v) ? v : 0.0);
  return std::string(buf, end.ptr);
}

// The end-to-end metrics every workload derives the same way.
void SetCommonMetrics(Run* run) {
  Report& r = run->report;
  const double ops = static_cast<double>(run->ops.count());
  r.Set("setup_s", Median(run->setup_s), "s", run->setup_s.size());
  r.Set("op_cpu_us", ops == 0 ? 0.0 : run->op_cpu_s * 1e6 / ops, "us",
        run->ops.count());
  r.Set("peak_rss_mb", run->phase_peak_rss_mb, "MB");
  r.Set("wall.ops_per_s", Rate(ops, run->ops.sum() / 1e6), "1/s",
        run->ops.count());
  r.Set("wall.op_p50_us", run->ops.At(0.5), "us");
  r.Set("wall.op_p90_us", run->ops.At(0.9), "us");
  r.Set("trace.overhead_pct", run->tracer.OverheadPct(), "%",
        run->tracer.span_count());
  r.Set("trace.unattributed_pct", run->tracer.UnattributedPct(), "%");
  if (!run->ops.At(0.9).supported()) {
    std::fprintf(stderr,
                 "note: wall.op_p90_us has fewer than 10 samples beyond\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string trace_path, json_path, scratch_parent;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed" && ParseNumber(value, 0, 1e15, &number)) {
      config.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && ParseNumber(value, 0.1, 600, &number)) {
      config.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace-out") {
      trace_path = value;
    } else if (arg == "--json") {
      json_path = value;
    } else if (arg == "--scratch") {
      scratch_parent = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !have_seconds) return Usage();

  config.trace = !trace_path.empty();
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  config.threads = static_cast<int>(std::min(4u, hw));
  // Temporary files go to a fresh directory of our own inside --scratch
  // (default: the working directory); only that directory is removed.
  std::string parent = scratch_parent.empty() ? "." : scratch_parent;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string scratch = parent + "/e2e-XXXXXX";
  if (ec || ::mkdtemp(scratch.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a scratch directory in %s\n",
                 parent.c_str());
    return 2;
  }
  config.scratch_dir = scratch;

  Run run(config);
  Status status = workload->run(&run);
  std::filesystem::remove_all(config.scratch_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", workload->name,
                 status.ToString().c_str());
    return 2;
  }
  SetCommonMetrics(&run);

  if (config.trace) {
    run.tracer.PrintSummary(stdout);
    if (!run.tracer.WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("trace: %zu spans written to %s\n", run.tracer.span_count(),
                trace_path.c_str());
  }

  // Untraced runs report the end-to-end metrics, traced runs the
  // per-layer ones; a layer the workload does not exercise reads 0.
  std::string metrics_json, detail_json;
  auto emit = [&](const MetricSpec& spec) {
    MetricValue m = run.report.Has(spec.name) ? run.report.Get(spec.name)
                                              : MetricValue{0, spec.unit, 0};
    std::printf("%s %s %s %s n=%llu\n", workload->name, spec.name,
                JsonNumber(m.value).c_str(), spec.unit,
                static_cast<unsigned long long>(m.n));
    std::string sep = metrics_json.empty() ? "" : ", ";
    metrics_json += sep + "\"" + spec.name + "\": {\"value\": " +
                    JsonNumber(m.value) + ", \"unit\": \"" + spec.unit + "\"}";
    detail_json += sep + "\"" + spec.name + "\": {\"value\": " +
                   JsonNumber(m.value) + ", \"unit\": \"" + spec.unit +
                   "\", \"n\": " + std::to_string(m.n) + "}";
  };
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }

  const Tally& tally = run.tally;
  if (tally.failed > 0) {
    std::fprintf(stderr, "%s: %llu of %llu operations failed; first: %s\n",
                 workload->name, static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 tally.first_failure.c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::string head = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    bool written = f != nullptr;
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                   "\"trace\": %s, %s, \"metrics\": {%s}}\n",
                   workload->name,
                   static_cast<unsigned long long>(config.seed),
                   JsonNumber(config.seconds).c_str(),
                   config.trace ? "true" : "false", head.c_str() + 1,
                   detail_json.c_str());
      written = std::fclose(f) == 0;
    }
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  std::printf("%s, \"metrics\": {%s}}\n", head.c_str(), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
