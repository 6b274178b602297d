// Tests for the WL isomorphism hash used as the round-trip oracle:
// isomorphic graphs must hash equal; structurally different graphs
// should differ.

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

Hypergraph Permuted(const Hypergraph& g, const std::vector<NodeId>& perm) {
  Hypergraph out(g.num_nodes());
  for (const auto& e : g.edges()) {
    Attachments att = e.att;
    for (NodeId& v : att) v = perm[v];
    out.AddEdge(e.label, std::move(att));
  }
  std::vector<NodeId> ext;
  for (NodeId v : g.ext()) ext.push_back(perm[v]);
  out.SetExternal(std::move(ext));
  return out;
}

TEST(WlHashTest, InvariantUnderPermutation) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    Hypergraph g(30);
    for (int i = 0; i < 70; ++i) {
      uint32_t u = static_cast<uint32_t>(rng.UniformBounded(30));
      uint32_t v = static_cast<uint32_t>(rng.UniformBounded(30));
      if (u != v) g.AddSimpleEdge(u, v, rng.UniformBounded(3));
    }
    std::vector<NodeId> perm(30);
    for (NodeId i = 0; i < 30; ++i) perm[i] = i;
    rng.Shuffle(&perm);
    EXPECT_EQ(WlHash(g), WlHash(Permuted(g, perm))) << "trial " << trial;
  }
}

TEST(WlHashTest, DetectsEdgeChanges) {
  Hypergraph g(5);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 0);
  Hypergraph h = g;
  h.AddSimpleEdge(2, 3, 0);
  EXPECT_NE(WlHash(g), WlHash(h));
}

TEST(WlHashTest, DetectsLabelChanges) {
  Hypergraph g(3), h(3);
  g.AddSimpleEdge(0, 1, 0);
  h.AddSimpleEdge(0, 1, 1);
  EXPECT_NE(WlHash(g), WlHash(h));
}

TEST(WlHashTest, DetectsDirectionChanges) {
  Hypergraph g(4), h(4);
  // path 0->1->2 plus 3; vs 0->1<-2 plus 3.
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 0);
  h.AddSimpleEdge(0, 1, 0);
  h.AddSimpleEdge(2, 1, 0);
  EXPECT_NE(WlHash(g), WlHash(h));
}

TEST(WlHashTest, DetectsIsolatedNodeCount) {
  Hypergraph g(3), h(4);
  g.AddSimpleEdge(0, 1, 0);
  h.AddSimpleEdge(0, 1, 0);
  EXPECT_NE(WlHash(g), WlHash(h));
}

TEST(WlHashTest, ExternalSequenceMatters) {
  Hypergraph g(3), h(3);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 0);
  h = g;
  g.SetExternal({0, 2});
  h.SetExternal({2, 0});
  EXPECT_NE(WlHash(g), WlHash(h));
}

TEST(WlHashTest, HyperedgeOrderMatters) {
  // A lone hyperedge (0,1,2) is isomorphic to (0,2,1) — swapping nodes
  // 1 and 2 maps one onto the other — so those must hash EQUAL. An
  // anchor edge pinning node 1 breaks the symmetry: then the
  // attachment order is observable and the hashes must differ.
  Hypergraph sym_a(3), sym_b(3);
  sym_a.AddEdge(0, {0, 1, 2});
  sym_b.AddEdge(0, {0, 2, 1});
  EXPECT_EQ(WlHash(sym_a), WlHash(sym_b));

  Hypergraph g(3), h(3);
  g.AddEdge(0, {0, 1, 2});
  g.AddSimpleEdge(0, 1, 1);
  h.AddEdge(0, {0, 2, 1});
  h.AddSimpleEdge(0, 1, 1);
  EXPECT_NE(WlHash(g), WlHash(h));
}

TEST(WlHashTest, DisjointCopiesScaleDetected) {
  // n copies vs n+1 copies of the same unit must differ.
  auto build = [](int copies) {
    Hypergraph g(static_cast<uint32_t>(3 * copies));
    for (int c = 0; c < copies; ++c) {
      NodeId base = static_cast<NodeId>(3 * c);
      g.AddSimpleEdge(base, base + 1, 0);
      g.AddSimpleEdge(base + 1, base + 2, 0);
      g.AddSimpleEdge(base + 2, base, 0);
    }
    return g;
  };
  EXPECT_NE(WlHash(build(4)), WlHash(build(5)));
  EXPECT_EQ(WlHash(build(4)), WlHash(build(4)));
}

}  // namespace
}  // namespace grepair
