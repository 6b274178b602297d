// Cold-open + first-query latency on a 16-shard dblp GRSHARD2
// container: a lazy mmap open vs the same open followed by faulting
// every shard inline.
//
//   open_latency [--size N] [--shards K] [--queries Q]
//                [--min-open-speedup X] [--dir PATH]
//
// Writes one sharded:grepair rep as a backend-tagged file, then
// measures two ways of opening it:
//
//   * cold open      — mmap + parse until the rep is queryable (lazy:
//                      reads the footer and faults nothing; eager:
//                      additionally PrefetchAll() with no pool, so
//                      every shard is checksummed and deserialized
//                      up front)
//   * first query    — one OutNeighbors on a cold rep (the lazy open
//                      pays its first shard fault here)
//   * full touch     — batch over sampled nodes across all shards
//
// and verifies the answers are identical. Exits nonzero when the lazy
// cold open is not at least --min-open-speedup times faster than the
// eager one (default 5; the CI Release leg runs this as a smoke gate —
// the margin is structural, read-one-footer vs parse-16-grammars, so
// it holds on noisy shared runners too).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/mmap_file.h"

using namespace grepair;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: open_latency [--size N] [--shards K] [--queries Q]\n"
               "                    [--min-open-speedup X] [--dir PATH]\n");
  return 2;
}

struct OpenTimings {
  double open_s = 0;
  double first_query_s = 0;
  double full_touch_s = 0;
  uint64_t faults_after_first = 0;
  uint64_t faults_after_touch = 0;
};

// One cold run over `path`: open (then, when `fault_all`, fault every
// shard inline before the clock stops), one query, then a batch
// touching every sampled node. The rep is dropped between runs so
// every measurement starts from the file.
Result<OpenTimings> MeasureOpen(const std::string& path, bool fault_all,
                                const std::vector<uint64_t>& probe,
                                const std::vector<uint64_t>& sweep,
                                std::vector<std::vector<uint64_t>>* answers) {
  OpenTimings t;
  auto t0 = std::chrono::steady_clock::now();
  auto rep = api::OpenCompressedFile(path);
  if (!rep.ok()) return rep.status();
  if (fault_all) rep.value()->PrefetchAll();  // no pool: faults inline
  auto t1 = std::chrono::steady_clock::now();
  t.open_s = bench::Seconds(t0, t1);

  auto q0 = std::chrono::steady_clock::now();
  auto first = rep.value()->OutNeighbors(probe[0]);
  auto q1 = std::chrono::steady_clock::now();
  if (!first.ok()) return first.status();
  t.first_query_s = bench::Seconds(q0, q1);
  t.faults_after_first = rep.value()->query_stats().shard_faults;

  auto s0 = std::chrono::steady_clock::now();
  auto batch = rep.value()->OutNeighborsBatch(sweep);
  auto s1 = std::chrono::steady_clock::now();
  if (!batch.ok()) return batch.status();
  t.full_touch_s = bench::Seconds(s0, s1);
  t.faults_after_touch = rep.value()->query_stats().shard_faults;
  *answers = std::move(batch).ValueOrDie();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t size = 8;       // dblp version count
  int shards = 16;
  int queries = 256;
  double min_open_speedup = 5.0;
  std::string dir = "/tmp";
  char* end = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 100000) {
        return Usage();
      }
      size = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 256) {
        return Usage();
      }
      shards = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 1000000) {
        return Usage();
      }
      queries = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--min-open-speedup") == 0 &&
               i + 1 < argc) {
      double v = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || v <= 0.0) return Usage();
      min_open_speedup = v;
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else {
      return Usage();
    }
  }

  GeneratedGraph gg = DblpVersions(size, 200, 100, 1, "dblp");
  std::printf("dataset %s: %u nodes, %u edges; %d shards\n",
              gg.name.c_str(), gg.graph.num_nodes(), gg.graph.num_edges(),
              shards);

  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  if (!rep.ok()) {
    std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
    return 1;
  }
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  if (sharded == nullptr) {
    std::fprintf(stderr, "rep is not sharded\n");
    return 1;
  }

  std::string path = dir + "/open_latency.bin";
  auto written = WriteFileBytes(
      path, api::WrapCodecPayload("sharded:grepair", sharded->Serialize()));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }

  // Probe: one node; sweep: `queries` nodes striped across the id
  // space so every shard gets touched.
  std::vector<uint64_t> probe = {0};
  std::vector<uint64_t> sweep;
  uint64_t n = gg.graph.num_nodes();
  for (int q = 0; q < queries; ++q) {
    sweep.push_back((n * static_cast<uint64_t>(q)) / queries);
  }

  std::vector<std::vector<uint64_t>> eager_answers, lazy_answers;
  auto eager = MeasureOpen(path, /*fault_all=*/true, probe, sweep,
                           &eager_answers);
  auto lazy = MeasureOpen(path, /*fault_all=*/false, probe, sweep,
                          &lazy_answers);
  std::remove(path.c_str());
  if (!eager.ok() || !lazy.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!eager.ok() ? eager : lazy).status().ToString().c_str());
    return 1;
  }

  if (eager_answers != lazy_answers) {
    std::fprintf(stderr, "FAIL: eager and lazy answers differ\n");
    return 1;
  }

  std::printf("%-22s %14s %14s %8s\n", "", "eager", "lazy", "ratio");
  auto row = [](const char* label, double a, double b) {
    std::printf("%-22s %12.3f ms %12.3f ms %7.1fx\n", label, a * 1e3,
                b * 1e3, b > 0 ? a / b : 0.0);
  };
  row("cold open", eager.value().open_s, lazy.value().open_s);
  row("first query", eager.value().first_query_s,
      lazy.value().first_query_s);
  row("batch over all shards", eager.value().full_touch_s,
      lazy.value().full_touch_s);
  std::printf("lazy shard faults: %llu after first query, %llu after the "
              "full sweep (of %zu shards)\n",
              (unsigned long long)lazy.value().faults_after_first,
              (unsigned long long)lazy.value().faults_after_touch,
              sharded->num_shards());

  double speedup = lazy.value().open_s > 0
                       ? eager.value().open_s / lazy.value().open_s
                       : 0.0;
  std::printf("cold-open speedup (lazy vs eager): %.1fx (gate >= %.1fx)\n",
              speedup, min_open_speedup);
  if (lazy.value().faults_after_first < 1) {
    std::fprintf(stderr, "FAIL: lazy first query faulted no shard\n");
    return 1;
  }
  if (speedup < min_open_speedup) {
    std::fprintf(stderr, "FAIL: lazy cold open %.1fx < required %.1fx\n",
                 speedup, min_open_speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
