// Unit tests for the hypergraph core: size metrics of Section II,
// validation of restrictions (1)-(3), and simple-graph construction.

#include <gtest/gtest.h>

#include "src/graph/hypergraph.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

Alphabet TwoLabels() {
  Alphabet a;
  a.Add("a", 2);
  a.Add("b", 2);
  return a;
}

TEST(HypergraphTest, SizeMetricsFollowPaper) {
  // |g|_E counts 1 per rank<=2 edge and rank(e) per hyperedge.
  Alphabet alpha;
  alpha.Add("a", 2);
  alpha.Add("u", 1);
  alpha.Add("H", 3);
  Hypergraph g(4);
  g.AddSimpleEdge(0, 1, 0);
  g.AddEdge(1, {2});
  g.AddEdge(2, {0, 2, 3});
  EXPECT_EQ(g.NodeSize(), 4u);
  EXPECT_EQ(g.EdgeSize(), 1u + 1u + 3u);
  EXPECT_EQ(g.TotalSize(), 9u);
  EXPECT_TRUE(g.Validate(alpha).ok());
}

TEST(HypergraphTest, ValidateRejectsRankMismatch) {
  Alphabet alpha = TwoLabels();
  Hypergraph g(3);
  g.AddEdge(0, {0, 1, 2});  // label "a" has rank 2
  EXPECT_FALSE(g.Validate(alpha).ok());
}

TEST(HypergraphTest, ValidateRejectsRepeatedAttachment) {
  Alphabet alpha = TwoLabels();
  Hypergraph g(2);
  g.AddEdge(0, {1, 1});  // restriction (1)
  EXPECT_FALSE(g.Validate(alpha).ok());
}

TEST(HypergraphTest, ValidateRejectsRepeatedExternal) {
  Alphabet alpha = TwoLabels();
  Hypergraph g(2);
  g.AddSimpleEdge(0, 1, 0);
  g.SetExternal({0, 0});  // restriction (2)
  EXPECT_FALSE(g.Validate(alpha).ok());
}

TEST(HypergraphTest, ValidateRejectsMissingNode) {
  Alphabet alpha = TwoLabels();
  Hypergraph g(2);
  g.AddSimpleEdge(0, 5, 0);
  EXPECT_FALSE(g.Validate(alpha).ok());
}

TEST(HypergraphTest, IsSimple) {
  Hypergraph g(3);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 0, 0);  // opposite direction: fine
  g.AddSimpleEdge(0, 1, 1);  // other label: fine
  EXPECT_TRUE(IsSimple(g));
  g.AddSimpleEdge(0, 1, 0);  // exact duplicate
  EXPECT_FALSE(IsSimple(g));
}

TEST(HypergraphTest, BuildSimpleGraphFiltersLoopsAndDuplicates) {
  Hypergraph g = BuildSimpleGraph(
      4, {{0, 1, 0}, {1, 1, 0}, {0, 1, 0}, {0, 1, 1}, {2, 3, 0}});
  EXPECT_EQ(g.num_edges(), 3u);  // loop and duplicate dropped
  EXPECT_TRUE(IsSimple(g));
}

TEST(HypergraphTest, EqualUpToEdgeOrder) {
  Hypergraph g(3), h(3);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 1);
  h.AddSimpleEdge(1, 2, 1);
  h.AddSimpleEdge(0, 1, 0);
  EXPECT_TRUE(g.EqualUpToEdgeOrder(h));
  EXPECT_FALSE(g == h);  // order differs
  h.AddSimpleEdge(2, 0, 0);
  EXPECT_FALSE(g.EqualUpToEdgeOrder(h));
}

TEST(HypergraphTest, IncidenceAndDegrees) {
  Hypergraph g(4);
  g.AddSimpleEdge(0, 1, 0);
  g.AddEdge(0, {1, 2});
  auto inc = g.BuildIncidence();
  EXPECT_EQ(inc[0].size(), 1u);
  EXPECT_EQ(inc[1].size(), 2u);
  EXPECT_EQ(inc[3].size(), 0u);
  auto deg = g.Degrees();
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(deg[3], 0u);
}

TEST(HypergraphTest, FlatIncidenceKeepsEdgeOrderPerNode) {
  // Nodes 4 and 5 are isolated; edges 1 and 3 have rank 3.
  Hypergraph g(6);
  g.AddSimpleEdge(2, 0, 0);  // e0
  g.AddEdge(1, {0, 3, 2});   // e1
  g.AddSimpleEdge(0, 1, 0);  // e2
  g.AddEdge(1, {3, 1, 0});   // e3
  g.AddSimpleEdge(1, 2, 0);  // e4
  Incidence inc = g.BuildIncidence();
  ASSERT_EQ(inc.offsets.size(), 7u);
  EXPECT_EQ(inc.offsets.front(), 0u);
  EXPECT_EQ(inc.offsets.back(), inc.edges.size());
  EXPECT_EQ(inc.edges.size(), 12u);  // one per attachment
  const std::vector<std::vector<EdgeId>> expected = {
      {0, 1, 2, 3}, {2, 3, 4}, {0, 1, 4}, {1, 3}, {}, {}};
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(std::vector<EdgeId>(inc[v].begin(), inc[v].end()), expected[v])
        << "node " << v;
    EXPECT_EQ(inc[v].size(), expected[v].size()) << "node " << v;
  }

  Incidence edgeless = Hypergraph(3).BuildIncidence();
  EXPECT_EQ(edgeless.offsets, (std::vector<uint64_t>{0, 0, 0, 0}));
  EXPECT_TRUE(edgeless.edges.empty());
  EXPECT_EQ(Hypergraph(0).BuildIncidence().offsets,
            (std::vector<uint64_t>{0}));
}

TEST(HypergraphTest, RemoveEdgesIf) {
  Hypergraph g(3);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 1);
  g.AddSimpleEdge(2, 0, 0);
  g.RemoveEdgesIf([](const HEdge& e) { return e.label == 0; });
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(0).label, 1u);
  EXPECT_EQ(g.num_nodes(), 3u);  // nodes untouched
}

TEST(HypergraphTest, InferAlphabetFirstObservedRankWins) {
  Hypergraph g(4);
  g.AddEdge(2, {0, 1, 2});   // label 2 first seen with rank 3
  g.AddSimpleEdge(1, 2, 2);  // a later rank-2 use does not override it
  g.AddEdge(0, {3});
  Alphabet alphabet = InferAlphabet(g);
  ASSERT_EQ(alphabet.size(), 3u);
  EXPECT_EQ(alphabet.rank(0), 1);
  EXPECT_EQ(alphabet.rank(1), 2);  // unobserved label: rank 2
  EXPECT_EQ(alphabet.rank(2), 3);
  EXPECT_EQ(alphabet.name(2), "l2");

  Alphabet edgeless = InferAlphabet(Hypergraph(5));
  ASSERT_EQ(edgeless.size(), 1u);
  EXPECT_EQ(edgeless.rank(0), 2);
}

TEST(HypergraphTest, ExternalNodesAndRank) {
  Hypergraph g(3);
  g.AddSimpleEdge(0, 1, 0);
  g.SetExternal({2, 0});
  EXPECT_EQ(g.rank(), 2);
  EXPECT_FALSE(g.AllNodesExternal());
}

}  // namespace
}  // namespace grepair
