// Histogram-driven open-time warming: cold lazy open vs a warmed open
// that ranks shards by the server's access histogram and prefetches
// the hot ones before (and while) the first queries run.
//
//   placement_warmup [--size N] [--shards K] [--queries Q]
//                    [--delay-ms D] [--trials T] [--min-speedup X]
//                    [--dir PATH] [--json OUT]
//
// Serves one 16-shard sharded:grepair dblp container from an
// in-process ShardServer with a netem-style per-fetch service delay
// (--delay-ms, default 10) so shard faults are latency-bound the way a
// real SSD/WAN hop is. A profiling client then runs the hot workload —
// Q queries confined to the first half of the node-id space, so about
// half the shards are hot — which populates the server-side per-shard
// histogram. Against that warmed-up server it measures, per trial:
//
//   * cold  — open with --warm-from-histogram off, then the hot
//             workload; every hot shard faults serially on first touch
//   * warm  — open with warming on: one STATS round-trip ranks shards
//             by heat, the prefetch pool (4 threads) faults the hot
//             ones concurrently, and queries join in-flight fetches
//
// The metric is open-to-last-hot-answer wall time (cold-open-to-P99 in
// serving terms), best of --trials. Every answer from both modes is
// compared against an in-process open of the same bytes; any
// difference is a hard failure.
//
// Also sweeps a local mmap'd open of the same container: Prefetch of
// every shard (readahead hint plus fault per shard on the prefetch
// pool), then every hot query; each answer must match the truth.
//
// Exits nonzero when the warmed open is not at least --min-speedup
// times faster to the last hot answer than the cold one (default 2;
// --min-speedup 0 waives the gate, matching the remote_throughput
// pattern). The margin is structural — K serial delay-bound faults vs
// ceil(K/4) overlapped waves — so it holds on noisy shared runners.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/shard/sharded_codec.h"
#include "src/util/mmap_file.h"

using namespace grepair;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: placement_warmup [--size N] [--shards K] "
               "[--queries Q]\n"
               "                        [--delay-ms D] [--trials T] "
               "[--min-speedup X]\n"
               "                        [--dir PATH] [--json OUT]\n");
  return 2;
}

struct HotRun {
  double total_s = 0;   ///< open through the last hot answer
  double open_s = 0;
  uint64_t remote_fetches = 0;
  uint64_t wrong = 0;
};

// One cold client lifetime: open against `target` with `options`, run
// the hot workload serially (a frontend answering its first requests),
// check every answer. The clock covers open + workload — the
// cold-open-to-last-hot-answer latency the placement engine targets.
Result<HotRun> RunHot(const std::string& target,
                      const serve::OpenOptions& options,
                      const std::vector<uint64_t>& hot_nodes,
                      const std::vector<std::vector<uint64_t>>& truth) {
  HotRun run;
  auto t0 = std::chrono::steady_clock::now();
  auto rep = serve::OpenRemoteContainer(target, options);
  auto t1 = std::chrono::steady_clock::now();
  if (!rep.ok()) return rep.status();
  run.open_s = bench::Seconds(t0, t1);
  for (uint64_t v : hot_nodes) {
    auto r = rep.value()->OutNeighbors(v);
    if (!r.ok()) return r.status();
    if (r.value() != truth[v]) ++run.wrong;
  }
  auto t2 = std::chrono::steady_clock::now();
  run.total_s = bench::Seconds(t0, t2);
  run.remote_fetches = rep.value()->query_stats().remote_fetches;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t size = 8;  // dblp version count
  int shards = 16;
  int queries = 100;
  int delay_ms = 10;
  int trials = 3;
  double min_speedup = 2.0;
  std::string dir = "/tmp";
  std::string json_path;
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
      if (end == argv[i] || *end != '\0' || v < 2 || v > 256) {
        return Usage();
      }
      shards = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 1000000) {
        return Usage();
      }
      queries = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--delay-ms") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0 || v > 1000) {
        return Usage();
      }
      delay_ms = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 100) {
        return Usage();
      }
      trials = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      double v = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || v < 0.0) return Usage();
      min_speedup = v;
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return Usage();
    }
  }

  GeneratedGraph gg = DblpVersions(size, 200, 100, 1, "dblp");
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions copts;
  copts.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, copts);
  if (!rep.ok()) {
    std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> container =
      dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2();

  // Local truth for every node, from an in-process open of the same
  // bytes — every remote and local answer is checked against this.
  auto local = shard::ShardedRep::Deserialize(SpanOf(container));
  if (!local.ok()) {
    std::fprintf(stderr, "%s\n", local.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<uint64_t>> truth(gg.graph.num_nodes());
  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = local.value()->OutNeighbors(v);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    truth[v] = r.value();
  }

  // Hot workload: `queries` nodes striped over the FIRST HALF of the
  // id space. Shard membership follows id ranges, so this keeps about
  // half the shards hot and the rest untouched — the skew the
  // histogram is supposed to learn.
  std::vector<uint64_t> hot_nodes;
  uint64_t n = gg.graph.num_nodes();
  uint64_t hot_span = n / 2 > 0 ? n / 2 : n;
  for (int q = 0; q < queries; ++q) {
    hot_nodes.push_back((hot_span * static_cast<uint64_t>(q)) / queries);
  }

  serve::CorpusRegistry registry;
  Status added = registry.AddBytes("dblp", SpanOf(container));
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }
  serve::ShardServer::Options sopts;
  sopts.debug_shard_delay_ms = delay_ms;
  auto server = serve::ShardServer::Start(std::move(registry), sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::string target = server.value()->host_port() + "/dblp";
  std::printf(
      "corpus: %u nodes, %u edges, %d shards, %zu container bytes; "
      "%d ms simulated fetch delay; %d hot queries over the low half "
      "of the id space\n",
      gg.graph.num_nodes(), gg.graph.num_edges(), shards, container.size(),
      delay_ms, queries);

  serve::OpenOptions cold_options;
  cold_options.warm_from_histogram = false;
  serve::OpenOptions warm_options;
  warm_options.warm_from_histogram = true;

  // Profiling pass: teach the server which shards are hot. Runs cold
  // (there is no histogram to warm from yet) and is not timed.
  auto profile = RunHot(target, cold_options, hot_nodes, truth);
  if (!profile.ok() || profile.value().wrong != 0) {
    std::fprintf(stderr, "profiling pass failed\n");
    return 1;
  }
  uint64_t hot_shards = profile.value().remote_fetches;
  std::printf("profiling pass touched %llu of %d shards\n",
              (unsigned long long)hot_shards, shards);

  double cold_best = 0, warm_best = 0;
  uint64_t warm_fetches = 0;
  std::printf("%-8s %14s %14s %14s\n", "trial", "cold total", "warm total",
              "warm fetches");
  for (int t = 0; t < trials; ++t) {
    auto cold = RunHot(target, cold_options, hot_nodes, truth);
    auto warm = RunHot(target, warm_options, hot_nodes, truth);
    if (!cold.ok() || !warm.ok()) {
      std::fprintf(stderr, "%s\n",
                   (!cold.ok() ? cold : warm).status().ToString().c_str());
      return 1;
    }
    if (cold.value().wrong != 0 || warm.value().wrong != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu cold / %llu warm answers differ from the "
                   "local truth\n",
                   (unsigned long long)cold.value().wrong,
                   (unsigned long long)warm.value().wrong);
      return 1;
    }
    if (cold_best == 0 || cold.value().total_s < cold_best) {
      cold_best = cold.value().total_s;
    }
    if (warm_best == 0 || warm.value().total_s < warm_best) {
      warm_best = warm.value().total_s;
    }
    warm_fetches = warm.value().remote_fetches;
    std::printf("%-8d %12.1f ms %12.1f ms %14llu\n", t + 1,
                cold.value().total_s * 1e3, warm.value().total_s * 1e3,
                (unsigned long long)warm.value().remote_fetches);
  }
  double speedup = warm_best > 0 ? cold_best / warm_best : 0.0;
  std::printf(
      "open-to-last-hot-answer: cold %.1f ms, warm %.1f ms — %.2fx "
      "(gate >= %.1fx)\n",
      cold_best * 1e3, warm_best * 1e3, speedup, min_speedup);

  // ---- Local prefetch sweep ---------------------------------------
  // The same container, on disk, opened mmap'd: Prefetch of every
  // shard, then the hot workload; every answer must match the truth.
  std::string path = dir + "/placement_warmup_v2.bin";
  auto wrote = WriteFileBytes(
      path, api::WrapCodecPayload("sharded:grepair", container));
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  bool local_ok = false;
  {
    auto opened = api::OpenCompressedFile(path);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    } else {
      shard::ShardedRep* sharded = opened.value().get();
      local_ok = true;
      std::vector<size_t> all_shards(sharded->num_shards());
      std::iota(all_shards.begin(), all_shards.end(), 0);
      sharded->set_prefetch_threads(2);
      sharded->Prefetch(all_shards);
      sharded->WaitForPrefetch();
      for (uint64_t v : hot_nodes) {
        auto r = sharded->OutNeighbors(v);
        if (!r.ok() || r.value() != truth[v]) {
          std::fprintf(stderr,
                       "FAIL: local prefetched answer differs from truth\n");
          local_ok = false;
          break;
        }
      }
    }
  }
  std::remove(path.c_str());
  if (local_ok) {
    std::printf("local prefetch sweep: %zu hot answers identical to the "
                "truth\n",
                hot_nodes.size());
  }

  if (!json_path.empty()) {
    bench::JsonWriter json;
    json.Add("bench", std::string("placement_warmup"));
    json.Add("dataset", gg.name);
    json.Add("shards", shards);
    json.Add("queries", queries);
    json.Add("delay_ms", delay_ms);
    json.Add("trials", trials);
    json.Add("hot_shards", hot_shards);
    json.Add("cold_ms", cold_best * 1e3);
    json.Add("warm_ms", warm_best * 1e3);
    json.Add("speedup", speedup);
    json.Add("warm_remote_fetches", warm_fetches);
    json.Add("min_speedup", min_speedup);
    if (!json.WriteTo(json_path)) return 1;
  }

  if (!local_ok) return 1;
  if (min_speedup == 0.0) {
    std::printf("PASS (gate waived)\n");
    return 0;
  }
  if (speedup < min_speedup) {
    std::printf("FAIL: warm open-to-last-hot-answer only %.2fx the cold "
                "path (gate %.1fx; --min-speedup 0 waives)\n",
                speedup, min_speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
