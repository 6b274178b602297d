// Tests for SL-HR grammars: validation, size metrics, height, the
// paper's contribution formula (the Figure 6 example computes
// con(A) = 3), and rule compaction.

#include <gtest/gtest.h>

#include "src/grammar/grammar.h"

namespace grepair {
namespace {

Alphabet OneTerminal() {
  Alphabet a;
  a.Add("a", 2);
  return a;
}

// The grammar of Figure 6: rule A has a 3-node rhs with two terminal
// edges and rank 2; the start graph uses A four times over 9 nodes.
SlhrGrammar Figure6Grammar() {
  Hypergraph start(9);
  SlhrGrammar g(OneTerminal(), Hypergraph(9));
  Label a_nt = g.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);
  rhs.AddSimpleEdge(2, 1, 0);
  rhs.SetExternal({0, 1});
  g.SetRule(a_nt, std::move(rhs));
  Hypergraph* s = g.mutable_start();
  s->AddEdge(a_nt, {0, 1});
  s->AddEdge(a_nt, {2, 3});
  s->AddEdge(a_nt, {4, 5});
  s->AddEdge(a_nt, {6, 7});
  return g;
}

TEST(GrammarTest, Figure6Contribution) {
  SlhrGrammar g = Figure6Grammar();
  ASSERT_TRUE(g.Validate().ok());
  Label a_nt = g.NonterminalLabel(0);
  EXPECT_EQ(g.AllReferenceCounts()[0], 4u);
  // |rhs| = 3 nodes + 2 edges = 5; |handle| = 2 + 1 = 3.
  EXPECT_EQ(g.rhs(a_nt).TotalSize(), 5u);
  EXPECT_EQ(SlhrGrammar::HandleSize(2), 3u);
  EXPECT_EQ(g.Contribution(a_nt, 4), 3);  // 4*(5-3) - 5
}

TEST(GrammarTest, SizesAndHeight) {
  SlhrGrammar g = Figure6Grammar();
  // |G| over rules = 5; |S| = 9 nodes + 4 edges = 13.
  EXPECT_EQ(g.RuleSize(), 5u);
  EXPECT_EQ(g.start().TotalSize(), 13u);
  EXPECT_EQ(g.TotalSize(), 18u);
  EXPECT_EQ(g.Height(), 1u);
}

TEST(GrammarTest, HandleSizeOfHyperedge) {
  // Rank-4 handle: 4 nodes + hyperedge of size 4.
  EXPECT_EQ(SlhrGrammar::HandleSize(4), 8u);
  EXPECT_EQ(SlhrGrammar::HandleSize(1), 2u);
}

TEST(GrammarTest, NestedHeight) {
  SlhrGrammar g(OneTerminal(), Hypergraph(2));
  Label a = g.AddNonterminal(2, "A");
  Label b = g.AddNonterminal(2, "B");
  Hypergraph rhs_a(3);
  rhs_a.AddSimpleEdge(0, 2, 0);
  rhs_a.AddSimpleEdge(2, 1, 0);
  rhs_a.SetExternal({0, 1});
  g.SetRule(a, std::move(rhs_a));
  Hypergraph rhs_b(3);
  rhs_b.AddEdge(a, {0, 2});
  rhs_b.AddEdge(a, {2, 1});
  rhs_b.SetExternal({0, 1});
  g.SetRule(b, std::move(rhs_b));
  g.mutable_start()->AddEdge(b, {0, 1});
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.Height(), 2u);
  auto refs = g.AllReferenceCounts();
  EXPECT_EQ(refs[0], 2u);
  EXPECT_EQ(refs[1], 1u);
}

TEST(GrammarTest, ValidateRejectsNonCanonicalRhs) {
  SlhrGrammar g(OneTerminal(), Hypergraph(2));
  Label a = g.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(1, 2, 0);
  rhs.AddSimpleEdge(2, 0, 0);
  rhs.SetExternal({1, 0});  // externals are not 0,1 in order
  g.SetRule(a, std::move(rhs));
  g.mutable_start()->AddEdge(a, {0, 1});
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GrammarTest, ValidateRejectsForwardReference) {
  SlhrGrammar g(OneTerminal(), Hypergraph(2));
  Label a = g.AddNonterminal(2, "A");
  Label b = g.AddNonterminal(2, "B");
  // Rule A references B although B comes later: not bottom-up.
  Hypergraph rhs_a(2);
  rhs_a.AddEdge(b, {0, 1});
  rhs_a.SetExternal({0, 1});
  g.SetRule(a, std::move(rhs_a));
  Hypergraph rhs_b(2);
  rhs_b.AddSimpleEdge(0, 1, 0);
  rhs_b.SetExternal({0, 1});
  g.SetRule(b, std::move(rhs_b));
  g.mutable_start()->AddEdge(a, {0, 1});
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GrammarTest, ValidateRejectsRankMismatch) {
  SlhrGrammar g(OneTerminal(), Hypergraph(2));
  Label a = g.AddNonterminal(3, "A");  // rank 3
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);
  rhs.SetExternal({0, 1});  // rank(rhs) = 2
  g.SetRule(a, std::move(rhs));
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GrammarTest, CompactRulesRelabels) {
  SlhrGrammar g(OneTerminal(), Hypergraph(4));
  Label a = g.AddNonterminal(2, "A");
  Label b = g.AddNonterminal(2, "B");
  Hypergraph rhs_a(3);
  rhs_a.AddSimpleEdge(0, 2, 0);
  rhs_a.AddSimpleEdge(2, 1, 0);
  rhs_a.SetExternal({0, 1});
  g.SetRule(a, std::move(rhs_a));
  Hypergraph rhs_b(2);
  rhs_b.AddSimpleEdge(0, 1, 0);
  rhs_b.SetExternal({0, 1});
  g.SetRule(b, std::move(rhs_b));
  g.mutable_start()->AddEdge(b, {0, 1});
  g.mutable_start()->AddEdge(b, {2, 3});

  // Rule A (index 0) is unreferenced: drop it; B becomes rule 0.
  g.CompactRules({1, 0});
  EXPECT_EQ(g.num_rules(), 1u);
  ASSERT_TRUE(g.Validate().ok());
  Label b_new = g.NonterminalLabel(0);
  EXPECT_EQ(g.AllReferenceCounts()[0], 2u);
  EXPECT_EQ(g.rhs(b_new).num_edges(), 1u);
}

TEST(GrammarTest, StatsSummary) {
  SlhrGrammar g = Figure6Grammar();
  auto stats = ComputeGrammarStats(g);
  EXPECT_EQ(stats.num_rules, 1u);
  EXPECT_EQ(stats.height, 1u);
  EXPECT_EQ(stats.total_size, 18u);
  EXPECT_EQ(stats.max_nonterminal_rank, 2u);
  EXPECT_EQ(stats.start_nodes, 9u);
  EXPECT_EQ(stats.start_edges, 4u);
}

}  // namespace
}  // namespace grepair
