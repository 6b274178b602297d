// Tests for grammar queries (Section V): node-ID <-> path mapping,
// neighborhood queries (Prop. 4), speed-up queries (Prop. 5 examples)
// and linear-time reachability (Theorem 6) — all validated against
// brute force on the materialized val(G).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/graph/graph_algos.h"
#include "src/grepair/compressor.h"
#include "src/query/neighborhood.h"
#include "src/query/node_map.h"
#include "src/query/reachability.h"
#include "src/query/speedup.h"
#include "src/shard/partitioner.h"
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

// Every val(G) node's path in id order, straight from the layout
// derivation.h documents: start nodes, then one depth-first block per
// nonterminal start edge (rule internals, then child blocks in rhs
// edge order).
void AppendBlock(const SlhrGrammar& grammar, Label label, GPath path,
                 std::vector<GPath>* out) {
  const Hypergraph& rhs = grammar.rhs(label);
  for (NodeId v = static_cast<NodeId>(rhs.ext().size()); v < rhs.num_nodes();
       ++v) {
    path.node = v;
    out->push_back(path);
  }
  for (EdgeId e = 0; e < rhs.num_edges(); ++e) {
    if (!grammar.IsNonterminal(rhs.edge(e).label)) continue;
    GPath child = path;
    child.steps.push_back(e);
    AppendBlock(grammar, rhs.edge(e).label, child, out);
  }
}

std::vector<GPath> PathsInIdOrder(const SlhrGrammar& grammar) {
  const Hypergraph& start = grammar.start();
  std::vector<GPath> paths(start.num_nodes());
  for (NodeId v = 0; v < start.num_nodes(); ++v) paths[v].node = v;
  for (EdgeId e = 0; e < start.num_edges(); ++e) {
    if (!grammar.IsNonterminal(start.edge(e).label)) continue;
    GPath path;
    path.start_edge = e;
    AppendBlock(grammar, start.edge(e).label, path, &paths);
  }
  return paths;
}

// For every id: IdOf(PathOf(id)) == id, start nodes map to themselves,
// every other path starts at a nonterminal start edge and each step
// names a nonterminal rhs edge, and the path is the one the id layout
// gives (so empty blocks resolve to the later edge).
void ExpectNodeMapRoundTrip(const SlhrGrammar& grammar) {
  ASSERT_TRUE(grammar.Validate().ok());
  const std::vector<GPath> expected = PathsInIdOrder(grammar);
  NodeMap nm(grammar);
  ASSERT_EQ(nm.num_nodes(), expected.size());
  ASSERT_EQ(nm.num_nodes(), ComputeValSize(grammar).nodes);
  const Hypergraph& start = grammar.start();
  for (uint64_t id = 0; id < nm.num_nodes(); ++id) {
    GPath path = nm.PathOf(id);
    ASSERT_EQ(nm.IdOf(path), id);
    if (id < start.num_nodes()) {
      ASSERT_EQ(path.start_edge, kInvalidEdge) << "id " << id;
      ASSERT_EQ(path.node, id);
      continue;
    }
    ASSERT_LT(path.start_edge, start.num_edges()) << "id " << id;
    Label label = start.edge(path.start_edge).label;
    for (uint32_t step : path.steps) {
      ASSERT_TRUE(grammar.IsNonterminal(label)) << "id " << id;
      ASSERT_LT(step, grammar.rhs(label).num_edges()) << "id " << id;
      label = grammar.rhs(label).edge(step).label;
    }
    ASSERT_TRUE(grammar.IsNonterminal(label)) << "id " << id;
    ASSERT_EQ(path, expected[id]) << "id " << id;
  }
}

TEST(NodeMapTest, RoundTripOnCompressedGraphs) {
  for (const char* which : {"coauth", "copies", "rdf"}) {
    SCOPED_TRACE(which);
    ExpectNodeMapRoundTrip(CompressFor(MakeQueryGraph(which)));
  }
}

// Shard grammars of the two benchmark corpus generators, small
// instances, decoded as a shard fault decodes them.
TEST(NodeMapTest, RoundTripOnShardGrammars) {
  for (const GeneratedGraph& gg : {DblpVersions(6, 40, 30, 1, "dblp"),
                                   RdfEntities(2000, 12, 20, 1)}) {
    SCOPED_TRACE(gg.name);
    shard::PartitionOptions partition_options;
    partition_options.num_shards = 4;
    auto partition = shard::PartitionGraph(gg.graph, partition_options);
    ASSERT_TRUE(partition.ok());
    CompressOptions options;
    options.track_node_mapping = true;
    for (const auto& part : partition.value().shards) {
      if (part.graph.num_edges() == 0) continue;
      auto result = Compress(part.graph, gg.alphabet, options);
      ASSERT_TRUE(result.ok());
      auto decoded = DecodeGrammar(EncodeGrammar(result.value().grammar));
      ASSERT_TRUE(decoded.ok());
      ExpectNodeMapRoundTrip(decoded.value());
    }
  }
}

// A hand-built grammar over terminals a, b whose start graph is a path
// with one edge per character of `start_edges`: 'a'/'b' are terminals,
// 'A' derives one internal node, 'E' derives none (an empty block), and
// 'B' derives two internal nodes plus the children E, A, A, E with a
// terminal between the A's.
SlhrGrammar HandBuiltGrammar(const std::string& start_edges) {
  Alphabet terminals;
  terminals.Add("a", 2);
  terminals.Add("b", 2);
  SlhrGrammar grammar(terminals, Hypergraph(
      static_cast<uint32_t>(start_edges.size() + 1)));
  Label a_nt = grammar.AddNonterminal(2, "A");
  Hypergraph a_rhs(3);
  a_rhs.AddSimpleEdge(0, 2, 0);
  a_rhs.AddSimpleEdge(2, 1, 1);
  a_rhs.SetExternal({0, 1});
  grammar.SetRule(a_nt, std::move(a_rhs));
  Label e_nt = grammar.AddNonterminal(2, "E");
  Hypergraph e_rhs(2);
  e_rhs.AddSimpleEdge(0, 1, 0);
  e_rhs.SetExternal({0, 1});
  grammar.SetRule(e_nt, std::move(e_rhs));
  Label b_nt = grammar.AddNonterminal(2, "B");
  Hypergraph b_rhs(4);
  b_rhs.AddEdge(e_nt, {0, 2});
  b_rhs.AddEdge(a_nt, {0, 2});
  b_rhs.AddSimpleEdge(2, 3, 1);
  b_rhs.AddEdge(a_nt, {3, 1});
  b_rhs.AddEdge(e_nt, {3, 1});
  b_rhs.SetExternal({0, 1});
  grammar.SetRule(b_nt, std::move(b_rhs));
  for (size_t i = 0; i < start_edges.size(); ++i) {
    const char c = start_edges[i];
    Label label = c == 'a'   ? 0
                  : c == 'b' ? 1
                  : c == 'A' ? a_nt
                  : c == 'E' ? e_nt
                             : b_nt;
    grammar.mutable_start()->AddEdge(
        label, {static_cast<NodeId>(i), static_cast<NodeId>(i + 1)});
  }
  return grammar;
}

TEST(NodeMapTest, RoundTripOnHandBuiltGrammars) {
  for (const char* start_edges : {
           "abAEB",    // canonical: terminals first
           "AaBbA",    // terminal start edges between nonterminal ones
           "EEAEBE",   // empty blocks first, repeated and last
           "ab",       // no nonterminal start edge
           "",         // no start edge at all
           "BAab",     // non-canonical: nonterminals first
       }) {
    SCOPED_TRACE(start_edges);
    ExpectNodeMapRoundTrip(HandBuiltGrammar(start_edges));
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
