// Tests for grammar queries (Section V): node-ID <-> path mapping,
// neighborhood queries (Prop. 4), speed-up queries (Prop. 5 examples)
// and linear-time reachability (Theorem 6) — all validated against
// brute force on the materialized val(G).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/datasets/generators.h"
#include "src/graph/graph_algos.h"
#include "src/grepair/compressor.h"
#include "src/query/neighborhood.h"
#include "src/query/node_map.h"
#include "src/query/reachability.h"
#include "src/query/speedup.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

SlhrGrammar CompressFor(const GeneratedGraph& gg,
                        bool prune = true) {
  CompressOptions options;
  options.prune = prune;
  auto result = Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(result.ok());
  return std::move(result.value().grammar);
}

GeneratedGraph MakeQueryGraph(const std::string& which) {
  if (which == "er") return ErdosRenyi(200, 700, 51, 2);
  if (which == "rdf") return RdfTypes(300, 8, 52);
  if (which == "coauth") return CoAuthorship(120, 200, 53);
  if (which == "copies") {
    return DisjointCopies(CycleWithDiagonal(), 48, "copies48");
  }
  if (which == "dblp") return DblpVersions(4, 40, 30, 54, "dblp");
  ADD_FAILURE() << "unknown " << which;
  return GeneratedGraph();
}

TEST(NodeMapTest, PathIdInverse) {
  GeneratedGraph gg = MakeQueryGraph("coauth");
  SlhrGrammar grammar = CompressFor(gg);
  NodeMap nm(grammar);
  ASSERT_EQ(nm.num_nodes(), gg.graph.num_nodes());
  for (uint64_t id = 0; id < nm.num_nodes(); ++id) {
    GPath path = nm.PathOf(id);
    EXPECT_EQ(nm.IdOf(path), id) << "id " << id;
  }
}

TEST(NodeMapTest, StartNodesMapToThemselves) {
  GeneratedGraph gg = MakeQueryGraph("copies");
  SlhrGrammar grammar = CompressFor(gg);
  NodeMap nm(grammar);
  for (NodeId v = 0; v < grammar.start().num_nodes(); ++v) {
    GPath path = nm.PathOf(v);
    EXPECT_EQ(path.start_edge, kInvalidEdge);
    EXPECT_EQ(path.node, v);
  }
}

class NeighborhoodSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(NeighborhoodSweep, MatchesBruteForce) {
  GeneratedGraph gg = MakeQueryGraph(GetParam());
  SlhrGrammar grammar = CompressFor(gg);
  auto derived = Derive(grammar);
  ASSERT_TRUE(derived.ok());
  const Hypergraph& val = derived.value();

  // Brute-force adjacency of val(G).
  std::vector<std::vector<uint64_t>> out_adj(val.num_nodes());
  std::vector<std::vector<uint64_t>> in_adj(val.num_nodes());
  for (const auto& e : val.edges()) {
    if (e.att.size() != 2) continue;
    out_adj[e.att[0]].push_back(e.att[1]);
    in_adj[e.att[1]].push_back(e.att[0]);
  }
  auto canon = [](std::vector<uint64_t> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };

  NeighborhoodIndex index(grammar);
  ASSERT_EQ(index.node_map().num_nodes(), val.num_nodes());
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    uint64_t id = rng.UniformBounded(val.num_nodes());
    EXPECT_EQ(index.OutNeighbors(id), canon(out_adj[id])) << "out " << id;
    EXPECT_EQ(index.InNeighbors(id), canon(in_adj[id])) << "in " << id;
  }
  // All nodes for the smaller graphs.
  if (val.num_nodes() <= 600) {
    for (uint64_t id = 0; id < val.num_nodes(); ++id) {
      ASSERT_EQ(index.OutNeighbors(id), canon(out_adj[id])) << id;
      ASSERT_EQ(index.InNeighbors(id), canon(in_adj[id])) << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, NeighborhoodSweep,
                         ::testing::Values("er", "rdf", "coauth", "copies",
                                           "dblp"));

class ReachabilitySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ReachabilitySweep, MatchesBruteForce) {
  GeneratedGraph gg = MakeQueryGraph(GetParam());
  SlhrGrammar grammar = CompressFor(gg);
  auto derived = Derive(grammar);
  ASSERT_TRUE(derived.ok());
  const Hypergraph& val = derived.value();

  ReachabilityIndex index(grammar);
  Rng rng(77);
  // Sample sources; compare full reachability vectors.
  for (int i = 0; i < 25; ++i) {
    uint64_t from = rng.UniformBounded(val.num_nodes());
    auto truth = DirectedReachable(val, static_cast<NodeId>(from));
    for (int j = 0; j < 60; ++j) {
      uint64_t to = rng.UniformBounded(val.num_nodes());
      ASSERT_EQ(index.Reachable(from, to), truth[to] != 0)
          << from << " -> " << to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, ReachabilitySweep,
                         ::testing::Values("er", "rdf", "coauth", "copies",
                                           "dblp"));

TEST(ReachabilityTest, DeepSharedSubtree) {
  // Both endpoints under the same start edge: exercises the
  // common-ancestor extension of Theorem 6. A long chain compresses
  // into nested rules, and all chain nodes live under few start edges.
  GeneratedGraph gg;
  gg.name = "chain";
  gg.alphabet.Add("a", 2);
  const uint32_t n = 200;
  gg.graph = Hypergraph(n);
  for (uint32_t v = 0; v + 1 < n; ++v) gg.graph.AddSimpleEdge(v, v + 1, 0);
  SlhrGrammar grammar = CompressFor(gg);
  auto derived = Derive(grammar);
  ASSERT_TRUE(derived.ok());

  ReachabilityIndex index(grammar);
  // Identify the derived chain order by walking out-neighbors.
  NeighborhoodIndex nbr(grammar);
  // Find the head: a node with no in-neighbors.
  uint64_t head = ~0ull;
  for (uint64_t v = 0; v < n; ++v) {
    if (nbr.InNeighbors(v).empty() && !nbr.OutNeighbors(v).empty()) {
      head = v;
      break;
    }
  }
  ASSERT_NE(head, ~0ull);
  std::vector<uint64_t> chain{head};
  while (true) {
    auto next = nbr.OutNeighbors(chain.back());
    if (next.empty()) break;
    ASSERT_EQ(next.size(), 1u);
    chain.push_back(next[0]);
  }
  ASSERT_EQ(chain.size(), n);
  // Forward pairs reachable, backward pairs not.
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    size_t a = rng.UniformBounded(n);
    size_t b = rng.UniformBounded(n);
    if (a > b) std::swap(a, b);
    EXPECT_TRUE(index.Reachable(chain[a], chain[b]));
    if (a != b) {
      EXPECT_FALSE(index.Reachable(chain[b], chain[a]));
    }
  }
}

TEST(SpeedupTest, ComponentsMatchBruteForce) {
  for (const char* which : {"er", "copies", "dblp", "rdf"}) {
    GeneratedGraph gg = MakeQueryGraph(which);
    SlhrGrammar grammar = CompressFor(gg);
    auto derived = Derive(grammar);
    ASSERT_TRUE(derived.ok());
    uint32_t truth = 0;
    ConnectedComponents(derived.value(), &truth);
    EXPECT_EQ(CountConnectedComponents(grammar), truth) << which;
  }
}

TEST(SpeedupTest, DegreeExtremaMatchBruteForce) {
  for (const char* which : {"er", "copies", "coauth"}) {
    GeneratedGraph gg = MakeQueryGraph(which);
    SlhrGrammar grammar = CompressFor(gg);
    auto derived = Derive(grammar);
    ASSERT_TRUE(derived.ok());
    auto truth = ComputeDegreeStats(derived.value());
    auto got = ComputeDegreeExtrema(grammar);
    ASSERT_TRUE(got.ok()) << which << ": " << got.status().ToString();
    EXPECT_EQ(got.value().min_degree, truth.min_degree) << which;
    EXPECT_EQ(got.value().max_degree, truth.max_degree) << which;
  }
}

}  // namespace
}  // namespace grepair
