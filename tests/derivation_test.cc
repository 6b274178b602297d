// Tests for deterministic derivation val(G) (Section II) and the
// original-ID mapping machinery, including the paper's Figure 1 and
// Figure 6/7 examples.

#include <gtest/gtest.h>

#include "src/grammar/derivation.h"

namespace grepair {
namespace {

Alphabet AbAlphabet() {
  Alphabet a;
  a.Add("a", 2);
  a.Add("b", 2);
  return a;
}

// Figure 1a: S is a triangle of three A-edges; A -> a-edge then b-edge
// through one internal node (source/target external).
SlhrGrammar Figure1Grammar() {
  SlhrGrammar g(AbAlphabet(), Hypergraph(3));
  Label a_nt = g.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);  // a: source -> internal
  rhs.AddSimpleEdge(2, 1, 1);  // b: internal -> target
  rhs.SetExternal({0, 1});
  g.SetRule(a_nt, std::move(rhs));
  Hypergraph* s = g.mutable_start();
  s->AddEdge(a_nt, {0, 1});
  s->AddEdge(a_nt, {1, 2});
  s->AddEdge(a_nt, {2, 0});
  return g;
}

TEST(DerivationTest, Figure1FullDerivation) {
  SlhrGrammar g = Figure1Grammar();
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(ComputeValSize(g).nodes, 6u);
  EXPECT_EQ(ComputeValSize(g).edges, 6u);

  auto derived = Derive(g);
  ASSERT_TRUE(derived.ok());
  const Hypergraph& h = derived.value();
  EXPECT_EQ(h.num_nodes(), 6u);
  EXPECT_EQ(h.num_edges(), 6u);
  // Deterministic IDs: first application creates node 3 (between 0 and
  // 1), second node 4, third node 5; a-edges then b-edges alternate.
  Hypergraph expected(6);
  expected.AddSimpleEdge(0, 3, 0);
  expected.AddSimpleEdge(3, 1, 1);
  expected.AddSimpleEdge(1, 4, 0);
  expected.AddSimpleEdge(4, 2, 1);
  expected.AddSimpleEdge(2, 5, 0);
  expected.AddSimpleEdge(5, 0, 1);
  EXPECT_TRUE(h.EqualUpToEdgeOrder(expected));
}

// Figure 6/7: 9-node start graph with four A-edges; the derivation has
// 13 nodes, and |val(G)| - |G| = con(A) = 3.
TEST(DerivationTest, Figure7SizesMatchContribution) {
  Alphabet alpha;
  alpha.Add("a", 2);
  SlhrGrammar g(alpha, Hypergraph(9));
  Label a_nt = g.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);
  rhs.AddSimpleEdge(2, 1, 0);
  rhs.SetExternal({0, 1});
  g.SetRule(a_nt, std::move(rhs));
  Hypergraph* s = g.mutable_start();
  s->AddSimpleEdge(0, 1, 0);
  s->AddEdge(a_nt, {1, 2});
  s->AddEdge(a_nt, {3, 4});
  s->AddEdge(a_nt, {5, 6});
  s->AddEdge(a_nt, {7, 8});
  ASSERT_TRUE(g.Validate().ok());

  auto derived = Derive(g);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived.value().num_nodes(), 13u);
  int64_t graph_size = static_cast<int64_t>(derived.value().TotalSize());
  int64_t grammar_size = static_cast<int64_t>(g.TotalSize());
  EXPECT_EQ(graph_size - grammar_size, g.Contribution(a_nt, 4));
}

TEST(DerivationTest, NestedDepthFirstIdAssignment) {
  // B -> A A (chained), A -> a a: depth-first expansion numbers the
  // first A's internal node before the second A's.
  SlhrGrammar g(AbAlphabet(), Hypergraph(2));
  Label a_nt = g.AddNonterminal(2, "A");
  {
    Hypergraph rhs(3);
    rhs.AddSimpleEdge(0, 2, 0);
    rhs.AddSimpleEdge(2, 1, 0);
    rhs.SetExternal({0, 1});
    g.SetRule(a_nt, std::move(rhs));
  }
  Label b_nt = g.AddNonterminal(2, "B");
  {
    Hypergraph rhs(3);
    rhs.AddEdge(a_nt, {0, 2});
    rhs.AddEdge(a_nt, {2, 1});
    rhs.SetExternal({0, 1});
    g.SetRule(b_nt, std::move(rhs));
  }
  g.mutable_start()->AddEdge(b_nt, {0, 1});
  ASSERT_TRUE(g.Validate().ok());

  auto derived = Derive(g);
  ASSERT_TRUE(derived.ok());
  // Nodes: 0,1 start; 2 = B's internal; 3 = first A's internal;
  // 4 = second A's internal. Path 0 ->3 ->2 ->4 ->1.
  Hypergraph expected(5);
  expected.AddSimpleEdge(0, 3, 0);
  expected.AddSimpleEdge(3, 2, 0);
  expected.AddSimpleEdge(2, 4, 0);
  expected.AddSimpleEdge(4, 1, 0);
  EXPECT_TRUE(derived.value().EqualUpToEdgeOrder(expected));
}

TEST(DerivationTest, GeneratedSizes) {
  SlhrGrammar g = Figure1Grammar();
  auto sizes = ComputeGeneratedSizes(g);
  ASSERT_EQ(sizes.gen_nodes.size(), 1u);
  EXPECT_EQ(sizes.gen_nodes[0], 1u);
  EXPECT_EQ(sizes.gen_edges[0], 2u);
}

TEST(DerivationTest, MaterializationLimit) {
  SlhrGrammar g = Figure1Grammar();
  DeriveOptions opts;
  opts.max_nodes = 5;  // val has 6 nodes
  auto derived = Derive(g, opts);
  EXPECT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kOutOfRange);
}

TEST(DerivationTest, MappingRoundTrip) {
  // Attach records stating which original node each internal stands
  // for; DeriveOriginal must reproduce those IDs.
  SlhrGrammar g = Figure1Grammar();
  NodeMapping mapping;
  mapping.start_origs = {2, 0, 4};   // start nodes map to originals 2,0,4
  mapping.edge_records.resize(3);
  mapping.edge_records[0].internal_origs = {1};
  mapping.edge_records[1].internal_origs = {3};
  mapping.edge_records[2].internal_origs = {5};
  ASSERT_TRUE(ValidateMapping(g, mapping).ok());

  auto origins = FlattenOrigins(g, mapping);
  ASSERT_TRUE(origins.ok());
  EXPECT_EQ(origins.value(), (std::vector<NodeId>{2, 0, 4, 1, 3, 5}));

  auto original = DeriveOriginal(g, origins.value());
  ASSERT_TRUE(original.ok());
  Hypergraph expected(6);
  expected.AddSimpleEdge(2, 1, 0);
  expected.AddSimpleEdge(1, 0, 1);
  expected.AddSimpleEdge(0, 3, 0);
  expected.AddSimpleEdge(3, 4, 1);
  expected.AddSimpleEdge(4, 5, 0);
  expected.AddSimpleEdge(5, 2, 1);
  EXPECT_TRUE(original.value().EqualUpToEdgeOrder(expected));
}

TEST(DerivationTest, MappingValidationCatchesArityErrors) {
  SlhrGrammar g = Figure1Grammar();
  NodeMapping mapping;
  mapping.start_origs = {0, 1, 2};
  mapping.edge_records.resize(3);
  mapping.edge_records[0].internal_origs = {3, 4};  // rule has 1 internal
  mapping.edge_records[1].internal_origs = {5};
  mapping.edge_records[2].internal_origs = {6};
  EXPECT_FALSE(ValidateMapping(g, mapping).ok());
}

TEST(DerivationTest, NonPermutationMappingRejected) {
  SlhrGrammar g = Figure1Grammar();
  NodeMapping mapping;
  mapping.start_origs = {0, 0, 2};  // duplicate original id
  mapping.edge_records.resize(3);
  mapping.edge_records[0].internal_origs = {3};
  mapping.edge_records[1].internal_origs = {4};
  mapping.edge_records[2].internal_origs = {5};
  auto res = DeriveOriginal(g, FlattenOrigins(g, mapping).value());
  EXPECT_FALSE(res.ok());
}

TEST(DerivationTest, TerminalOnlyGrammar) {
  Alphabet alpha = AbAlphabet();
  Hypergraph s(3);
  s.AddSimpleEdge(0, 1, 0);
  s.AddSimpleEdge(1, 2, 1);
  SlhrGrammar g(alpha, s);
  auto derived = Derive(g);
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(derived.value().EqualUpToEdgeOrder(g.start()));
  EXPECT_EQ(g.Height(), 0u);
}

}  // namespace
}  // namespace grepair
