// Section V: query evaluation over the grammar — plus the memoized
// batch query engine.
//
// Part 1 (paper): Theorem 6 promises (s,t)-reachability in O(|G|) — a
// speed-up proportional to the compression ratio over the O(|val(G)|)
// BFS on the decompressed graph. Proposition 4's neighborhood queries
// pay a slow-down instead. Measured on a well-compressing version
// graph and a star-heavy RDF graph, plus the one-pass speed-up
// functions (components, degree extrema, histogram).
//
// Part 2 (engine): the sharded codec's query cache and batch entry
// points, on sharded:grepair (16 shards, 4 query threads) over a
// generated dataset. Two workloads, each measuring its own claim:
//   warm-vs-cold  — a distinct-heavy query set run twice on one rep:
//                   the cold pass pays grammar walks + adaptive shard
//                   decodes, the warm pass is pure cache hits.
//   batch-vs-loop — a large, repeat-heavy batch: OutNeighborsBatch on
//                   a fresh rep vs the same queries looped one-by-one
//                   on a rep with the cache disabled (the pre-cache
//                   per-call routing this engine replaces).
// Cached/batched answers are checked identical to uncached ones.
// --min-warm-speedup / --min-batch-speedup turn the report into a
// pass/fail gate (defaults are the acceptance numbers; CI's tiny
// smoke run lowers them because wall-clock gates flake on loaded
// shared runners).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/graph/graph_algos.h"
#include "src/query/neighborhood.h"
#include "src/query/reachability.h"
#include "src/query/speedup.h"
#include "src/util/rng.h"

using namespace grepair;
using namespace grepair::bench;
using Clock = std::chrono::steady_clock;

namespace {

void RunOn(const std::string& name) {
  PaperDataset d = MakePaperDataset(name);
  auto compressed = Compress(d.data.graph, d.data.alphabet, {});
  if (!compressed.ok()) return;
  const SlhrGrammar& grammar = compressed.value().grammar;
  auto derived = Derive(grammar);
  const Hypergraph& val = derived.value();
  double ratio = static_cast<double>(d.data.graph.TotalSize()) /
                 grammar.TotalSize();

  std::printf("\n-- %s: |g|=%llu |G|+|S|=%llu (ratio %.1fx)\n",
              name.c_str(),
              static_cast<unsigned long long>(d.data.graph.TotalSize()),
              static_cast<unsigned long long>(grammar.TotalSize()), ratio);

  // Reachability: grammar oracle vs BFS on val(G).
  ReachabilityIndex reach(grammar);
  Rng rng(1234);
  const int kQueries = 200;
  std::vector<std::pair<uint64_t, uint64_t>> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back({rng.UniformBounded(val.num_nodes()),
                       rng.UniformBounded(val.num_nodes())});
  }
  int hits = 0;
  auto t0 = Clock::now();
  for (auto [u, v] : queries) {
    hits += reach.Reachable(u, v) ? 1 : 0;
  }
  auto t1 = Clock::now();
  int hits_bfs = 0;
  for (auto [u, v] : queries) {
    auto mask = DirectedReachable(val, static_cast<NodeId>(u));
    hits_bfs += mask[v] ? 1 : 0;
  }
  auto t2 = Clock::now();
  double grammar_us = Seconds(t0, t1) * 1e6 / kQueries;
  double bfs_us = Seconds(t1, t2) * 1e6 / kQueries;
  std::printf("reachability: grammar %8.1f us/query, BFS on val %8.1f "
              "us/query, speed-up %.1fx (agree: %s)\n",
              grammar_us, bfs_us, bfs_us / grammar_us,
              hits == hits_bfs ? "yes" : "NO");

  // Neighborhood queries: grammar vs direct adjacency.
  NeighborhoodIndex nbr(grammar);
  auto adj = DirectedAdjacency(val);
  uint64_t total_grammar = 0, total_direct = 0;
  t0 = Clock::now();
  for (int i = 0; i < kQueries; ++i) {
    total_grammar += nbr.OutNeighbors(queries[i].first).size();
  }
  t1 = Clock::now();
  for (int i = 0; i < kQueries; ++i) {
    total_direct += adj[queries[i].first].size();
  }
  t2 = Clock::now();
  std::printf("out-neighbors: grammar %8.2f us/query vs in-memory "
              "adjacency %8.3f us/query (expected slow-down; memo "
              "entries %llu, hits %llu)\n",
              Seconds(t0, t1) * 1e6 / kQueries,
              Seconds(t1, t2) * 1e6 / kQueries,
              (unsigned long long)nbr.memo_entries(),
              (unsigned long long)nbr.memo_hits());
  (void)total_grammar;
  (void)total_direct;

  // One-pass speed-up functions vs brute force on val(G).
  t0 = Clock::now();
  uint64_t comps = CountConnectedComponents(grammar);
  auto extrema = ComputeDegreeExtrema(grammar);
  t1 = Clock::now();
  if (!extrema.ok()) {
    std::printf("degree extrema unavailable: %s\n",
                extrema.status().ToString().c_str());
    return;
  }
  uint32_t comps_bf = 0;
  ConnectedComponents(val, &comps_bf);
  auto stats_bf = ComputeDegreeStats(val);
  t2 = Clock::now();
  std::printf("one-pass queries (components+degrees): grammar %.2f ms vs "
              "val(G) %.2f ms; components %llu/%u degrees [%llu,%llu]/"
              "[%u,%u] (agree: %s)\n",
              Seconds(t0, t1) * 1e3, Seconds(t1, t2) * 1e3,
              static_cast<unsigned long long>(comps), comps_bf,
              static_cast<unsigned long long>(extrema.value().min_degree),
              static_cast<unsigned long long>(extrema.value().max_degree),
              stats_bf.min_degree, stats_bf.max_degree,
              comps == comps_bf &&
                      extrema.value().min_degree == stats_bf.min_degree &&
                      extrema.value().max_degree == stats_bf.max_degree
                  ? "yes"
                  : "NO");
}

// Part 2: the batch engine on sharded:grepair.
int RunCacheAndBatch(uint32_t size, uint32_t num_queries, double min_warm,
                     double min_batch) {
  GeneratedGraph gg = BarabasiAlbert(size, 4, 7);
  // Distinct-heavy set for warm-vs-cold (at most one query per two
  // nodes, so the cold pass really pays walks + decodes); repeat-heavy
  // batch (several queries per node on average) for batch-vs-loop.
  uint32_t warm_queries = std::min(
      num_queries, std::max(1000u, gg.graph.num_nodes() / 2));
  uint32_t batch_queries = num_queries;
  std::printf("\n== batch engine: sharded:grepair, 16 shards, 4 query "
              "threads, %u nodes, %u/%u queries (warm/batch) ==\n",
              gg.graph.num_nodes(), warm_queries, batch_queries);

  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "16");
  options.Set("threads", "4");
  auto compressed = codec->Compress(gg.graph, gg.alphabet, options);
  if (!compressed.ok()) {
    std::fprintf(stderr, "%s\n", compressed.status().ToString().c_str());
    return 1;
  }
  auto bytes = compressed.value()->Serialize();

  // Three independent reps so no measurement inherits another's cache:
  // cached (cold+warm singles), batch, and uncached loop baseline.
  auto MakeRep = [&]() {
    auto rep = codec->Deserialize(bytes);
    if (!rep.ok()) {
      std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(rep).ValueOrDie();
  };
  auto rep_cached = MakeRep();
  auto rep_batch = MakeRep();
  auto rep_uncached = MakeRep();
  auto* sh_batch = dynamic_cast<shard::ShardedRep*>(rep_batch.get());
  auto* sh_uncached = dynamic_cast<shard::ShardedRep*>(rep_uncached.get());
  sh_batch->set_threads(4);
  sh_uncached->set_query_cache_bytes(0);  // per-call routing baseline

  Rng rng(99);
  std::vector<uint64_t> warm_set, batch_set;
  for (uint32_t i = 0; i < warm_queries; ++i) {
    warm_set.push_back(rng.UniformBounded(gg.graph.num_nodes()));
  }
  for (uint32_t i = 0; i < batch_queries; ++i) {
    batch_set.push_back(rng.UniformBounded(gg.graph.num_nodes()));
  }

  auto RunLoop = [&](const api::CompressedRep& rep,
                     const std::vector<uint64_t>& queries,
                     std::vector<std::vector<uint64_t>>* out) {
    out->clear();
    out->reserve(queries.size());
    auto t0 = Clock::now();
    for (uint64_t q : queries) {
      auto r = rep.OutNeighbors(q);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        std::exit(1);
      }
      out->push_back(std::move(r).ValueOrDie());
    }
    return Seconds(t0, Clock::now());
  };

  std::vector<std::vector<uint64_t>> cold_results, warm_results,
      uncached_results;
  double t_cold = RunLoop(*rep_cached, warm_set, &cold_results);
  double t_warm = RunLoop(*rep_cached, warm_set, &warm_results);
  double t_uncached = RunLoop(*rep_uncached, batch_set, &uncached_results);

  auto t0 = Clock::now();
  auto batch = rep_batch->OutNeighborsBatch(batch_set);
  double t_batch = Seconds(t0, Clock::now());
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }

  bool agree =
      cold_results == warm_results && uncached_results == batch.value();
  double warm_speedup = t_warm > 0 ? t_cold / t_warm : 0;
  double batch_speedup = t_batch > 0 ? t_uncached / t_batch : 0;

  std::printf("single queries: cold %8.2f us/q, warm %8.2f us/q -> "
              "warm-vs-cold %.1fx\n",
              t_cold * 1e6 / warm_set.size(),
              t_warm * 1e6 / warm_set.size(), warm_speedup);
  std::printf("batch queries:  loop (uncached) %8.2f us/q, batch %8.2f "
              "us/q -> batch-vs-loop %.1fx\n",
              t_uncached * 1e6 / batch_set.size(),
              t_batch * 1e6 / batch_set.size(), batch_speedup);
  std::printf("answers identical (cold==warm, uncached==batch): %s\n",
              agree ? "yes" : "NO");
  auto stats = rep_cached->query_stats();
  std::printf("cached-rep stats: hits=%llu misses=%llu decodes=%llu "
              "evictions=%llu cache_bytes=%llu\n",
              (unsigned long long)stats.cache_hits,
              (unsigned long long)stats.cache_misses,
              (unsigned long long)stats.shard_decodes,
              (unsigned long long)stats.cache_evictions,
              (unsigned long long)stats.cache_bytes_used);

  // Reachability batch (informational): shares the shard cache.
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.push_back({rng.UniformBounded(gg.graph.num_nodes()),
                     rng.UniformBounded(gg.graph.num_nodes())});
  }
  t0 = Clock::now();
  auto reach = rep_batch->ReachableBatch(pairs);
  if (reach.ok()) {
    std::printf("reachability batch: %zu pairs in %.2f ms on the warm "
                "batch rep\n",
                pairs.size(), Seconds(t0, Clock::now()) * 1e3);
  }

  int rc = 0;
  if (!agree) {
    std::fprintf(stderr, "FAIL: cached/batched answers diverge\n");
    rc = 1;
  }
  if (warm_speedup < min_warm) {
    std::fprintf(stderr, "FAIL: warm-vs-cold %.2fx < required %.2fx\n",
                 warm_speedup, min_warm);
    rc = 1;
  }
  if (batch_speedup < min_batch) {
    std::fprintf(stderr, "FAIL: batch-vs-loop %.2fx < required %.2fx\n",
                 batch_speedup, min_batch);
    rc = 1;
  }
  return rc;
}

}  // namespace

// Strictly positive integer; atoi would turn "--size oops" into a
// zero-node graph and a division by zero in the query sampler.
bool ParsePositive(const char* flag, const char* text, uint32_t* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 1 || v > 0x7FFFFFFFll) {
    std::fprintf(stderr, "%s expects a positive integer, got '%s'\n",
                 flag, text);
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

int main(int argc, char** argv) {
  uint32_t size = 12000;
  uint32_t num_queries = 36000;
  double min_warm = 5.0;
  double min_batch = 2.0;
  bool skip_paper = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--size" && i + 1 < argc) {
      if (!ParsePositive("--size", argv[++i], &size)) return 2;
    } else if (arg == "--queries" && i + 1 < argc) {
      if (!ParsePositive("--queries", argv[++i], &num_queries)) return 2;
    } else if (arg == "--min-warm-speedup" && i + 1 < argc) {
      min_warm = std::atof(argv[++i]);
    } else if (arg == "--min-batch-speedup" && i + 1 < argc) {
      min_batch = std::atof(argv[++i]);
    } else if (arg == "--skip-paper") {
      skip_paper = true;
    } else {
      std::fprintf(stderr,
                   "usage: query_speedup [--size N] [--queries Q] "
                   "[--min-warm-speedup X] [--min-batch-speedup X] "
                   "[--skip-paper]\n");
      return 2;
    }
  }
  if (!skip_paper) {
    std::printf("Section V: query evaluation over the grammar\n");
    RunOn("Tic-Tac-Toe");
    RunOn("Types ru");
    RunOn("DBLP60-70");
  }
  return RunCacheAndBatch(size, num_queries, min_warm, min_batch);
}
