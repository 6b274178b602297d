// Section V: query evaluation over the grammar.
//
// Theorem 6 promises (s,t)-reachability in O(|G|) — a speed-up
// proportional to the compression ratio over the O(|val(G)|) BFS on
// the decompressed graph. Proposition 4's neighborhood queries pay a
// slow-down instead. Measured on a well-compressing version graph and a
// star-heavy RDF graph, plus the one-pass speed-up functions
// (components, degree extrema, histogram).
//
//   section5_queries

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace

int main() {
  std::printf("Section V: query evaluation over the grammar\n");
  RunOn("Tic-Tac-Toe");
  RunOn("Types ru");
  RunOn("DBLP60-70");
  return 0;
}
