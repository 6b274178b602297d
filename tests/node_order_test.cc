// Tests for the node orders of Section III-B1, including the paper's
// Figure 8 FP-refinement example.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/datasets/generators.h"
#include "src/graph/node_order.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

// The refinement as first written, kept as the reference the
// per-class implementation must match: every round builds every node's
// full signature (own color, then its sorted incident-edge tuples) and
// stable-sorts all nodes by it.
struct RefSpan {
  size_t offset;
  size_t length;
};

bool RefLess(const std::vector<uint64_t>& arena, const RefSpan& a,
             const RefSpan& b) {
  return std::lexicographical_compare(
      arena.begin() + a.offset, arena.begin() + a.offset + a.length,
      arena.begin() + b.offset, arena.begin() + b.offset + b.length);
}

bool RefEqual(const std::vector<uint64_t>& arena, const RefSpan& a,
              const RefSpan& b) {
  return a.length == b.length &&
         std::equal(arena.begin() + a.offset,
                    arena.begin() + a.offset + a.length,
                    arena.begin() + b.offset);
}

FpRefinement ReferenceFpRefinement(const Hypergraph& g, int max_iterations) {
  const uint32_t n = g.num_nodes();
  FpRefinement result;
  result.colors.assign(n, 0);
  if (n == 0) return result;
  auto incidence = g.BuildIncidence();
  {
    auto degrees = g.Degrees();
    std::vector<NodeId> by_degree(n);
    std::iota(by_degree.begin(), by_degree.end(), 0u);
    std::stable_sort(
        by_degree.begin(), by_degree.end(),
        [&](NodeId a, NodeId b) { return degrees[a] < degrees[b]; });
    uint32_t color = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0 && degrees[by_degree[i]] != degrees[by_degree[i - 1]]) ++color;
      result.colors[by_degree[i]] = color;
    }
    result.num_classes = color + 1;
  }
  std::vector<uint32_t> next_colors(n);
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter;
    std::vector<uint64_t> arena;
    std::vector<RefSpan> spans(n);
    for (NodeId v = 0; v < n; ++v) {
      std::vector<uint64_t> tuple_arena;
      std::vector<RefSpan> tuple_spans;
      for (EdgeId e : incidence[v]) {
        const HEdge& edge = g.edge(e);
        size_t offset = tuple_arena.size();
        tuple_arena.push_back(edge.label);
        uint64_t pos = 0;
        for (size_t i = 0; i < edge.att.size(); ++i) {
          if (edge.att[i] == v) pos = i;
        }
        tuple_arena.push_back(pos);
        for (NodeId u : edge.att) tuple_arena.push_back(result.colors[u]);
        tuple_spans.push_back({offset, tuple_arena.size() - offset});
      }
      std::sort(tuple_spans.begin(), tuple_spans.end(),
                [&](const RefSpan& a, const RefSpan& b) {
                  return RefLess(tuple_arena, a, b);
                });
      size_t offset = arena.size();
      arena.push_back(result.colors[v]);
      for (const RefSpan& t : tuple_spans) {
        arena.push_back(t.length);
        arena.insert(arena.end(), tuple_arena.begin() + t.offset,
                     tuple_arena.begin() + t.offset + t.length);
      }
      spans[v] = {offset, arena.size() - offset};
    }
    std::vector<NodeId> by_sig(n);
    std::iota(by_sig.begin(), by_sig.end(), 0u);
    std::stable_sort(by_sig.begin(), by_sig.end(), [&](NodeId a, NodeId b) {
      return RefLess(arena, spans[a], spans[b]);
    });
    uint32_t color = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0 && !RefEqual(arena, spans[by_sig[i]], spans[by_sig[i - 1]])) {
        ++color;
      }
      next_colors[by_sig[i]] = color;
    }
    if (color + 1 == result.num_classes) {
      result.iterations = iter + 1;
      return result;
    }
    result.colors = next_colors;
    result.num_classes = color + 1;
  }
  return result;
}

// Random labeled hyperedges of ranks 1-5 over `n` nodes, 3 labels per
// rank, distinct attachments within an edge.
Hypergraph LabeledHypergraph(uint32_t n, uint32_t edges, uint64_t seed) {
  Rng rng(seed);
  Hypergraph g(n);
  for (uint32_t e = 0; e < edges; ++e) {
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformBounded(5));
    Attachments att;
    while (att.size() < rank) {
      const NodeId v = static_cast<NodeId>(rng.UniformBounded(n));
      if (std::find(att.begin(), att.end(), v) == att.end()) att.push_back(v);
    }
    const Label label = static_cast<Label>(
        (rank - 1) * 3 + rng.UniformBounded(3));
    g.AddEdge(label, std::move(att));
  }
  return g;
}

TEST(FpRefinementTest, MatchesTheReferenceAlgorithm) {
  std::vector<std::pair<std::string, Hypergraph>> inputs;
  inputs.emplace_back("er", ErdosRenyi(600, 1500, 31, 3).graph);
  inputs.emplace_back("ba", BarabasiAlbert(500, 3, 32).graph);
  inputs.emplace_back("coauth", CoAuthorship(200, 300, 33).graph);
  inputs.emplace_back("rdf-types", RdfTypes(400, 8, 34).graph);
  inputs.emplace_back("rdf-entities", RdfEntities(300, 12, 8, 35).graph);
  inputs.emplace_back("hyper", LabeledHypergraph(300, 500, 36));
  inputs.emplace_back("empty", Hypergraph(0));
  inputs.emplace_back("isolated", Hypergraph(5));
  for (const auto& [name, g] : inputs) {
    // Cut-off runs too: the non-fixpoint exit returns the last colors.
    for (int max_iterations : {0, 1, 2, 1 << 20}) {
      const FpRefinement got = ComputeFpRefinement(g, max_iterations);
      const FpRefinement want = ReferenceFpRefinement(g, max_iterations);
      EXPECT_EQ(got.colors, want.colors) << name << " " << max_iterations;
      EXPECT_EQ(got.num_classes, want.num_classes)
          << name << " " << max_iterations;
      EXPECT_EQ(got.iterations, want.iterations)
          << name << " " << max_iterations;
    }
  }
}

// Figure 8 of the paper: an undirected 4-node graph whose degree
// coloring is (1,1,3,2)-ish and refines to 4 distinct classes after one
// iteration. We model undirected edges as two directed labeled edges?
// No - the figure is unlabeled/undirected; a faithful encoding that
// keeps the degree structure is a single label with both directions
// merged into incident-edge tuples. We instead check the invariant the
// figure demonstrates: the center of a star refines away from leaves,
// and a path's ends split from its middle.
TEST(FpRefinementTest, Figure8LikePathStar) {
  // Graph: leaves 0,1 attach to center 2; 2 attaches to 3 (figure's
  // shape: degrees 1,1,3,2 after adding edge 3->0? Use the exact figure:
  // center c with neighbors {a, b, d}, and d-e edge.
  //      0   1
  //       \ /
  //        2 --- 3
  // degrees: 1,1,3,1 -> classes {0,1,3}, {2}; after refinement leaves
  // 0,1 (neighbor color of degree-3 node) split from 3? No: 3's only
  // neighbor is also node 2. So 0,1,3 stay equivalent: 3 classes total?
  // 0,1,3 all have signature (deg 1, neighbor 2): 2 classes.
  Hypergraph g(4);
  g.AddSimpleEdge(0, 2, 0);
  g.AddSimpleEdge(1, 2, 0);
  g.AddSimpleEdge(2, 3, 0);
  auto fp = ComputeFpRefinement(g);
  // 0 and 1 are genuinely isomorphic (both point into 2).
  EXPECT_EQ(fp.colors[0], fp.colors[1]);
  // 3 differs: its edge arrives from 2 (direction differs).
  EXPECT_NE(fp.colors[3], fp.colors[0]);
  EXPECT_NE(fp.colors[2], fp.colors[0]);
  EXPECT_EQ(fp.num_classes, 3u);
}

TEST(FpRefinementTest, PaperFigure8Undirected) {
  // The figure's exact graph, edges made symmetric (undirected):
  // nodes: a(deg1) b(deg1) attached to c(deg3); c attached to d(deg2);
  // d attached to e(deg1). Start colors (degrees): a=1,b=1,e=1, d=2,
  // c=3. After one refinement e (neighbor d) splits from a,b
  // (neighbor c). That matches the figure's final coloring with 4
  // classes: {a,b}, {e}, {d}, {c}.
  Hypergraph g(5);
  auto undirected = [&](NodeId u, NodeId v) {
    g.AddSimpleEdge(u, v, 0);
    g.AddSimpleEdge(v, u, 0);
  };
  undirected(0, 2);  // a-c
  undirected(1, 2);  // b-c
  undirected(2, 3);  // c-d
  undirected(3, 4);  // d-e
  auto fp = ComputeFpRefinement(g);
  EXPECT_EQ(fp.colors[0], fp.colors[1]);
  EXPECT_NE(fp.colors[4], fp.colors[0]);
  EXPECT_EQ(fp.num_classes, 4u);
}

TEST(FpRefinementTest, VertexTransitiveGraphHasOneClass) {
  // Directed cycle: every node is equivalent.
  const uint32_t n = 12;
  Hypergraph g(n);
  for (uint32_t v = 0; v < n; ++v) g.AddSimpleEdge(v, (v + 1) % n, 0);
  auto fp = ComputeFpRefinement(g);
  EXPECT_EQ(fp.num_classes, 1u);
}

TEST(FpRefinementTest, DisjointCopiesShareClasses) {
  // Two copies of the same structure: classes must not double.
  Hypergraph g(8);
  auto add = [&](NodeId base) {
    g.AddSimpleEdge(base + 0, base + 1, 0);
    g.AddSimpleEdge(base + 1, base + 2, 0);
    g.AddSimpleEdge(base + 2, base + 3, 1);
  };
  add(0);
  add(4);
  auto fp = ComputeFpRefinement(g);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(fp.colors[v], fp.colors[v + 4]) << "node " << v;
  }
  EXPECT_EQ(fp.num_classes, 4u);
}

TEST(FpRefinementTest, LabelsRefine) {
  // Same topology, different labels must separate nodes.
  Hypergraph g(4);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(2, 3, 1);
  auto fp = ComputeFpRefinement(g);
  EXPECT_NE(fp.colors[0], fp.colors[2]);
  EXPECT_NE(fp.colors[1], fp.colors[3]);
}

TEST(FpRefinementTest, PathSplitsToFixpoint) {
  // Directed path of 7 nodes: FP distinguishes positions pairwise
  // (7 classes), which plain degree (FP0) cannot (3 classes).
  Hypergraph g(7);
  for (uint32_t v = 0; v + 1 < 7; ++v) g.AddSimpleEdge(v, v + 1, 0);
  auto fp = ComputeFpRefinement(g);
  EXPECT_EQ(fp.num_classes, 7u);
  EXPECT_GE(fp.iterations, 2);
}

class OrderPermutation : public ::testing::TestWithParam<NodeOrderKind> {};

TEST_P(OrderPermutation, IsPermutation) {
  Hypergraph g(9);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 0);
  g.AddSimpleEdge(3, 4, 1);
  g.AddEdge(0, {5, 6});
  auto order = ComputeNodeOrder(g, GetParam(), 7);
  ASSERT_EQ(order.size(), 9u);
  std::vector<NodeId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId v = 0; v < 9; ++v) EXPECT_EQ(sorted[v], v);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OrderPermutation,
    ::testing::Values(NodeOrderKind::kNatural, NodeOrderKind::kBfs,
                      NodeOrderKind::kDfs, NodeOrderKind::kRandom,
                      NodeOrderKind::kFp0, NodeOrderKind::kFp),
    [](const auto& suite_info) { return NodeOrderKindName(suite_info.param); });

TEST(NodeOrderTest, Fp0SortsByDegree) {
  Hypergraph g(4);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(0, 2, 0);
  g.AddSimpleEdge(0, 3, 0);
  auto order = ComputeNodeOrder(g, NodeOrderKind::kFp0);
  EXPECT_EQ(order.back(), 0u);  // the hub has the highest degree
}

TEST(NodeOrderTest, ParseNames) {
  NodeOrderKind kind;
  EXPECT_TRUE(ParseNodeOrderKind("fp", &kind));
  EXPECT_EQ(kind, NodeOrderKind::kFp);
  EXPECT_TRUE(ParseNodeOrderKind("bfs", &kind));
  EXPECT_FALSE(ParseNodeOrderKind("nope", &kind));
  EXPECT_EQ(NodeOrderKindName(NodeOrderKind::kFp0), "fp0");
}

TEST(NodeOrderTest, RandomOrderSeedDependent) {
  Hypergraph g(64);
  for (uint32_t v = 0; v + 1 < 64; ++v) g.AddSimpleEdge(v, v + 1, 0);
  auto a = ComputeNodeOrder(g, NodeOrderKind::kRandom, 1);
  auto b = ComputeNodeOrder(g, NodeOrderKind::kRandom, 2);
  auto c = ComputeNodeOrder(g, NodeOrderKind::kRandom, 1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

// A mixed-rank labeled hypergraph (rank-2, rank-3 and rank-4 edges,
// nodes that sit at different positions of the same hyperedge label):
// pins the exact FP coloring and node order, so any re-implementation
// of the signature ranking must reproduce the same tuple order.
TEST(NodeOrderTest, FpOrderPinnedOnMixedRankHypergraph) {
  Hypergraph g(18);
  for (NodeId i = 0; i < 18; i += 3) {
    g.AddEdge(/*label=*/2, {i, (i + 1) % 18, (i + 2) % 18});
    g.AddEdge(/*label=*/0, {(i + 2) % 18, (i + 3) % 18});
  }
  g.AddEdge(/*label=*/3, {0, 4, 8, 12});
  g.AddEdge(/*label=*/3, {12, 16, 1, 5});
  g.AddEdge(/*label=*/1, {7, 0});
  g.AddEdge(/*label=*/1, {13, 9});
  g.AddEdge(/*label=*/2, {17, 10, 3});

  auto fp = ComputeFpRefinement(g);
  EXPECT_EQ(fp.num_classes, 18u);
  EXPECT_EQ(fp.iterations, 2);
  EXPECT_EQ(fp.colors, (std::vector<uint32_t>{17, 10, 1, 14, 9, 11, 4, 6, 12,
                                               15, 8, 2, 16, 5, 0, 3, 7, 13}));
  EXPECT_EQ(ComputeNodeOrder(g, NodeOrderKind::kFp),
            (std::vector<NodeId>{14, 2, 11, 15, 6, 13, 7, 16, 10,
                                 4, 1, 5, 8, 17, 3, 9, 12, 0}));
}

}  // namespace
}  // namespace grepair
