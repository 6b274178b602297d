// Pruning tests (Section III-A3): inlining preserves val(G) and the
// node mapping, ref==1 rules disappear, contribution-based removal
// matches the formula, and full pipelines stay exact.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/datasets/generators.h"
#include "src/grammar/pruning.h"
#include "src/grepair/compressor.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

Alphabet AbAlphabet() {
  Alphabet a;
  a.Add("a", 2);
  a.Add("b", 2);
  return a;
}

// S --B--> with B -> A A and A -> a a: A is referenced twice, B once.
SlhrGrammar ChainedGrammar() {
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
  return g;
}

TEST(PruningTest, InlinePreservesDerivation) {
  SlhrGrammar g = ChainedGrammar();
  auto before = Derive(g);
  ASSERT_TRUE(before.ok());

  InlineRuleEverywhere(&g, g.NonterminalLabel(0), nullptr);  // inline A
  ASSERT_TRUE(g.Validate().ok()) << g.Validate().ToString();
  EXPECT_EQ(g.num_rules(), 1u);  // only B remains
  auto after = Derive(g);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(before.value().EqualUpToEdgeOrder(after.value()));
}

TEST(PruningTest, InlineTopRulePreservesDerivation) {
  SlhrGrammar g = ChainedGrammar();
  auto before = Derive(g);
  ASSERT_TRUE(before.ok());
  InlineRuleEverywhere(&g, g.NonterminalLabel(1), nullptr);  // inline B
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.num_rules(), 1u);  // A remains, now referenced from S
  auto after = Derive(g);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(before.value().EqualUpToEdgeOrder(after.value()));
}

TEST(PruningTest, SingleRefRuleRemoved) {
  SlhrGrammar g = ChainedGrammar();
  auto before = Derive(g);
  ASSERT_TRUE(before.ok());
  PruneOptions options;
  options.remove_nonpositive = false;  // isolate phase 1
  auto stats = PruneGrammar(&g, nullptr, options);
  EXPECT_GE(stats.removed_single_ref, 1u);  // B had ref 1
  ASSERT_TRUE(g.Validate().ok());
  auto after = Derive(g);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(before.value().EqualUpToEdgeOrder(after.value()));
}

TEST(PruningTest, NonContributingRuleRemoved) {
  // A referenced twice with |rhs|=5, handle=3: con = 2*(5-3)-5 = -1,
  // so phase 2 must inline it.
  SlhrGrammar g(AbAlphabet(), Hypergraph(4));
  Label a_nt = g.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);
  rhs.AddSimpleEdge(2, 1, 0);
  rhs.SetExternal({0, 1});
  g.SetRule(a_nt, std::move(rhs));
  g.mutable_start()->AddEdge(a_nt, {0, 1});
  g.mutable_start()->AddEdge(a_nt, {2, 3});
  EXPECT_EQ(g.Contribution(a_nt, 2), -1);

  auto before = Derive(g);
  ASSERT_TRUE(before.ok());
  PruneOptions options;
  options.remove_single_refs = false;
  auto stats = PruneGrammar(&g, nullptr, options);
  EXPECT_EQ(stats.removed_contribution, 1u);
  EXPECT_EQ(g.num_rules(), 0u);
  auto after = Derive(g);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(before.value().EqualUpToEdgeOrder(after.value()));
}

TEST(PruningTest, ContributingRuleKept) {
  // Four references: con = 4*(5-3)-5 = 3 > 0, rule survives.
  SlhrGrammar g(AbAlphabet(), Hypergraph(8));
  Label a_nt = g.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);
  rhs.AddSimpleEdge(2, 1, 0);
  rhs.SetExternal({0, 1});
  g.SetRule(a_nt, std::move(rhs));
  for (uint32_t i = 0; i < 4; ++i) {
    g.mutable_start()->AddEdge(a_nt, {2 * i, 2 * i + 1});
  }
  uint64_t size_before = g.TotalSize();
  auto stats = PruneGrammar(&g, nullptr, PruneOptions());
  EXPECT_EQ(g.num_rules(), 1u);
  EXPECT_EQ(stats.size_after, size_before);
}

// Builds the record form of psi' for `g` from its flat form: the
// inverse of FlattenOrigins, handing out `origins` in derivation order.
NodeMapping RecordsFor(const SlhrGrammar& g,
                       const std::vector<NodeId>& origins) {
  size_t next = 0;
  NodeMapping m;
  for (NodeId v = 0; v < g.start().num_nodes(); ++v) {
    m.start_origs.push_back(origins[next++]);
  }
  std::function<RecordId(Label)> apply = [&](Label nt) {
    const Hypergraph& rhs = g.rhs(nt);
    std::vector<NodeId> internal;
    for (NodeId v = rhs.rank(); v < rhs.num_nodes(); ++v) {
      internal.push_back(origins[next++]);
    }
    std::vector<RecordId> children;
    for (const auto& e : rhs.edges()) {
      if (g.IsNonterminal(e.label)) children.push_back(apply(e.label));
    }
    return m.AddRecord(internal, children);
  };
  for (const auto& e : g.start().edges()) {
    m.edge_records.push_back(g.IsNonterminal(e.label) ? apply(e.label)
                                                       : kNoRecord);
  }
  return m;
}

// DeriveOriginal through the record form of psi'.
Result<Hypergraph> DeriveFromRecords(const SlhrGrammar& g,
                                     const NodeMapping& m) {
  auto origins = FlattenOrigins(g, m);
  if (!origins.ok()) return origins.status();
  return DeriveOriginal(g, origins.value());
}

TEST(PruningTest, MappingSplicedThroughInline) {
  // Full pipeline with tracking: compress (no prune), rebuild psi' as
  // records, prune with them and check exact reconstruction still works.
  GeneratedGraph gg = CoAuthorship(120, 200, 31);
  CompressOptions options;
  options.prune = false;
  options.track_node_mapping = true;
  auto result = Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(result.ok());
  SlhrGrammar grammar = std::move(result.value().grammar);
  NodeMapping mapping = RecordsFor(grammar, result.value().origins);
  ASSERT_TRUE(ValidateMapping(grammar, mapping).ok());

  PruneGrammar(&grammar, &mapping, PruneOptions());
  ASSERT_TRUE(grammar.Validate().ok());
  ASSERT_TRUE(ValidateMapping(grammar, mapping).ok());
  auto original = DeriveFromRecords(grammar, mapping);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  EXPECT_TRUE(original.value().EqualUpToEdgeOrder(gg.graph));
}

TEST(PruningTest, FixpointIterationIsSafe) {
  GeneratedGraph gg = GamePositions(30, 8, 3, 4, 33);
  CompressOptions options;
  options.prune = false;
  options.track_node_mapping = true;
  auto result = Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(result.ok());
  SlhrGrammar grammar = std::move(result.value().grammar);
  NodeMapping mapping = RecordsFor(grammar, result.value().origins);

  PruneOptions prune;
  prune.iterate_to_fixpoint = true;
  PruneGrammar(&grammar, &mapping, prune);
  ASSERT_TRUE(grammar.Validate().ok());
  auto original = DeriveFromRecords(grammar, mapping);
  ASSERT_TRUE(original.ok());
  EXPECT_TRUE(original.value().EqualUpToEdgeOrder(gg.graph));
}

TEST(PruningTest, PruningNeverGrowsGrammar) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    GeneratedGraph gg = ErdosRenyi(200, 600, seed, 2);
    CompressOptions options;
    options.prune = false;
    auto result = Compress(gg.graph, gg.alphabet, options);
    ASSERT_TRUE(result.ok());
    SlhrGrammar grammar = std::move(result.value().grammar);
    uint64_t before = grammar.TotalSize();
    auto stats = PruneGrammar(&grammar, nullptr, PruneOptions());
    EXPECT_LE(stats.size_after, before);
    EXPECT_EQ(stats.size_before, before);
    auto derived = Derive(grammar);
    ASSERT_TRUE(derived.ok());
    EXPECT_EQ(WlHash(derived.value()), WlHash(gg.graph));
  }
}


// ---------------------------------------------------------------------
// Pinned outputs. Each case is a hand-built grammar with a mapping that
// numbers derived nodes in derivation order and then reverses the ids
// (so every origin is distinct and no record is the identity). The
// expected strings pin the pruned grammar exactly: start edges in
// order, node counts, surviving rules, start_origs and every record.

// Builds a mapping for `g` whose flattened origins are the reversal of
// the derivation order.
NodeMapping ReversedMapping(const SlhrGrammar& g) {
  std::vector<NodeId> origins(ComputeValSize(g).nodes);
  for (size_t v = 0; v < origins.size(); ++v) {
    origins[v] = static_cast<NodeId>(origins.size() - 1 - v);
  }
  return RecordsFor(g, origins);
}

std::string DumpEdges(const Hypergraph& h) {
  std::string out = "n=" + std::to_string(h.num_nodes());
  if (!h.ext().empty()) {
    out += " ext=";
    for (NodeId v : h.ext()) out += std::to_string(v) + ",";
  }
  for (const auto& e : h.edges()) {
    out += " " + std::to_string(e.label) + "(";
    for (size_t i = 0; i < e.att.size(); ++i) {
      out += (i ? "," : "") + std::to_string(e.att[i]);
    }
    out += ")";
  }
  return out;
}

// A terminal edge's absent record dumps like an empty one.
std::string DumpRecord(const NodeMapping& m, RecordId r) {
  std::string out = "{";
  if (r != kNoRecord) {
    const NodeId* internal = m.internal_origs(r);
    for (uint32_t i = 0; i < m.records[r].num_origs; ++i) {
      out += (i ? "," : "") + std::to_string(internal[i]);
    }
    for (RecordId c = m.records[r].first_child; c != kNoRecord;
         c = m.records[c].next_sibling) {
      out += DumpRecord(m, c);
    }
  }
  return out + "}";
}

std::string Dump(const SlhrGrammar& g, const NodeMapping& m) {
  std::string out = "S " + DumpEdges(g.start());
  for (uint32_t j = 0; j < g.num_rules(); ++j) {
    out += " | R" + std::to_string(j) + " " + DumpEdges(g.rhs_by_index(j));
  }
  out += " | origs=";
  for (NodeId v : m.start_origs) out += std::to_string(v) + ",";
  out += " recs=";
  for (RecordId r : m.edge_records) out += DumpRecord(m, r);
  return out;
}

// Prunes a copy of `g` with a reversed mapping; checks the mapping still
// reproduces the same original graph; returns the dump and the stats.
std::string PruneAndDump(const SlhrGrammar& g, const PruneOptions& options,
                         PruneStats* stats = nullptr) {
  SlhrGrammar pruned = g;
  NodeMapping mapping = ReversedMapping(g);
  auto before = DeriveFromRecords(g, mapping);
  EXPECT_TRUE(before.ok()) << before.status().ToString();
  PruneStats s = PruneGrammar(&pruned, &mapping, options);
  if (stats != nullptr) *stats = s;
  EXPECT_TRUE(pruned.Validate().ok()) << pruned.Validate().ToString();
  EXPECT_TRUE(ValidateMapping(pruned, mapping).ok());
  auto after = DeriveFromRecords(pruned, mapping);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  if (before.ok() && after.ok()) {
    EXPECT_TRUE(after.value().EqualUpToEdgeOrder(before.value()));
  }
  return Dump(pruned, mapping);
}

// rhs with external nodes 0..rank-1 and `internal` more nodes.
Hypergraph Rhs(uint32_t rank, uint32_t internal) {
  Hypergraph h(rank + internal);
  std::vector<NodeId> ext(rank);
  for (uint32_t i = 0; i < rank; ++i) ext[i] = i;
  h.SetExternal(std::move(ext));
  return h;
}

Alphabet AbcAlphabet() {
  Alphabet a;
  a.Add("a", 2);
  a.Add("b", 2);
  a.Add("c", 3);
  return a;
}

// C -> a b (ref 1, in P); P -> C a (ref 1, in H); H -> P a survives
// with three start references. Phase 1 inlines the child C into P
// first, then P into H, so every H record absorbs a nested record.
TEST(PruningPinnedTest, ChildInlinedBeforeParent) {
  SlhrGrammar g(AbcAlphabet(), Hypergraph(4));
  Label c = g.AddNonterminal(2, "C");
  Hypergraph rc = Rhs(2, 1);
  rc.AddSimpleEdge(0, 2, 0);
  rc.AddSimpleEdge(2, 1, 1);
  g.SetRule(c, std::move(rc));
  Label p = g.AddNonterminal(2, "P");
  Hypergraph rp = Rhs(2, 1);
  rp.AddEdge(c, {0, 2});
  rp.AddSimpleEdge(2, 1, 0);
  g.SetRule(p, std::move(rp));
  Label h = g.AddNonterminal(2, "H");
  Hypergraph rh = Rhs(2, 1);
  rh.AddSimpleEdge(2, 0, 1);
  rh.AddEdge(p, {2, 1});
  g.SetRule(h, std::move(rh));
  Hypergraph* s = g.mutable_start();
  s->AddEdge(h, {0, 1});
  s->AddSimpleEdge(2, 0, 1);
  s->AddEdge(h, {1, 2});
  s->AddEdge(h, {3, 2});
  EXPECT_EQ(PruneAndDump(g, PruneOptions()),
            "S n=4 3(0,1) 1(2,0) 3(1,2) 3(3,2) | "
            "R0 n=5 ext=0,1, 1(2,0) 0(2,4) 1(4,3) 0(3,1) | "
            "origs=12,11,10,9, recs={8,7,6}{}{5,4,3}{2,1,0}");
}

// B (rank 3, |rhs| = 7) is referenced twice from A and once from S;
// A (ref 1) goes in phase 1, which moves two B edges into S; then B,
// now with ref 3 and con = 3 * (7 - 6) - 7 < 0, goes in phase 2: the
// child is inlined after its parent, including at start edges that
// exist only through A's expansion.
TEST(PruningPinnedTest, ChildInlinedAfterParent) {
  SlhrGrammar g(AbcAlphabet(), Hypergraph(4));
  Label b = g.AddNonterminal(3, "B");
  Hypergraph rb = Rhs(3, 1);
  rb.AddSimpleEdge(0, 3, 0);
  rb.AddSimpleEdge(3, 1, 1);
  rb.AddSimpleEdge(2, 3, 0);
  g.SetRule(b, std::move(rb));
  Label a = g.AddNonterminal(2, "A");
  Hypergraph ra = Rhs(2, 3);
  ra.AddEdge(b, {0, 2, 3});
  ra.AddEdge(b, {3, 4, 1});
  g.SetRule(a, std::move(ra));
  g.mutable_start()->AddEdge(b, {1, 2, 3});
  g.mutable_start()->AddSimpleEdge(3, 0, 1);
  g.mutable_start()->AddEdge(a, {0, 1});
  EXPECT_EQ(PruneAndDump(g, PruneOptions()),
            "S n=10 0(1,7) 1(7,2) 0(3,7) 1(3,0) 0(0,8) 1(8,4) 0(5,8) "
            "0(5,9) 1(9,6) 0(1,9) | "
            "origs=9,8,7,6,4,3,2,5,1,0, recs={}{}{}{}{}{}{}{}{}{}");
}

// Host H survives (three references) and holds a Y edge before an X
// edge. X (ref 1) is inlined in phase 1, Y (ref 2, con = -1) in phase
// 2, so each H record gains X's origins before Y's although Y comes
// first in H's edge order.
TEST(PruningPinnedTest, PhaseOneAndPhaseTwoInlinesInOneHost) {
  SlhrGrammar g(AbcAlphabet(), Hypergraph(7));
  Label x = g.AddNonterminal(2, "X");
  Hypergraph rx = Rhs(2, 1);
  rx.AddSimpleEdge(0, 2, 1);
  rx.AddSimpleEdge(2, 1, 1);
  g.SetRule(x, std::move(rx));
  Label y = g.AddNonterminal(2, "Y");
  Hypergraph ry = Rhs(2, 1);
  ry.AddSimpleEdge(0, 2, 0);
  ry.AddSimpleEdge(1, 2, 1);
  g.SetRule(y, std::move(ry));
  Label h = g.AddNonterminal(2, "H");
  Hypergraph rh = Rhs(2, 3);
  rh.AddEdge(y, {0, 2});
  rh.AddSimpleEdge(2, 3, 0);
  rh.AddEdge(x, {3, 4});
  rh.AddSimpleEdge(4, 1, 1);
  g.SetRule(h, std::move(rh));
  Hypergraph* s = g.mutable_start();
  s->AddEdge(h, {0, 1});
  s->AddEdge(y, {1, 2});
  s->AddEdge(h, {2, 3});
  s->AddSimpleEdge(3, 4, 0);
  s->AddEdge(h, {4, 5});
  s->AddSimpleEdge(5, 6, 1);
  EXPECT_EQ(PruneAndDump(g, PruneOptions()),
            "S n=8 3(0,1) 0(1,7) 1(2,7) 3(2,3) 0(3,4) 3(4,5) 1(5,6) | "
            "R0 n=7 ext=0,1, 0(0,6) 1(2,6) 0(2,3) 1(3,5) 1(5,4) 1(4,1) | "
            "origs=22,21,20,19,18,17,16,10, "
            "recs={15,14,13,11,12}{}{}{9,8,7,5,6}{}{4,3,2,0,1}{}");
}

// K (ref 1) expands into the start graph and brings two references to
// the surviving rule T (plus a terminal); T's records must move with
// them. T also keeps a direct start reference.
TEST(PruningPinnedTest, StartEdgesThatExistOnlyThroughExpansion) {
  SlhrGrammar g(AbcAlphabet(), Hypergraph(5));
  Label t = g.AddNonterminal(2, "T");
  Hypergraph rt = Rhs(2, 2);
  rt.AddSimpleEdge(0, 2, 0);
  rt.AddSimpleEdge(2, 3, 1);
  rt.AddSimpleEdge(3, 1, 0);
  g.SetRule(t, std::move(rt));
  Label k = g.AddNonterminal(3, "K");
  Hypergraph rk = Rhs(3, 2);
  rk.AddEdge(t, {0, 3});
  rk.AddEdge(2, {3, 4, 1});
  rk.AddEdge(t, {4, 2});
  g.SetRule(k, std::move(rk));
  Hypergraph* s = g.mutable_start();
  s->AddEdge(t, {0, 1});
  s->AddEdge(k, {1, 2, 3});
  s->AddEdge(t, {3, 4});
  EXPECT_EQ(PruneAndDump(g, PruneOptions()),
            "S n=7 3(0,1) 3(1,5) 2(5,6,2) 3(6,3) 3(3,4) | "
            "R0 n=4 ext=0,1, 0(0,2) 1(2,3) 0(3,1) | "
            "origs=14,13,12,11,10,7,6, recs={9,8}{5,4}{}{3,2}{1,0}");
}

// Z is unreferenced (ref 0) and holds two W edges. Inlining Z drops
// W's ref from 3 to 1, so phase 2 then inlines W too.
TEST(PruningPinnedTest, RefZeroRules) {
  SlhrGrammar g(AbcAlphabet(), Hypergraph(3));
  Label w = g.AddNonterminal(2, "W");
  Hypergraph rw = Rhs(2, 1);
  rw.AddSimpleEdge(0, 2, 0);
  rw.AddSimpleEdge(2, 1, 1);
  g.SetRule(w, std::move(rw));
  Label z = g.AddNonterminal(2, "Z");
  Hypergraph rz = Rhs(2, 1);
  rz.AddEdge(w, {0, 2});
  rz.AddEdge(w, {2, 1});
  g.SetRule(z, std::move(rz));
  g.mutable_start()->AddEdge(w, {0, 1});
  g.mutable_start()->AddSimpleEdge(1, 2, 1);
  PruneStats stats;
  EXPECT_EQ(PruneAndDump(g, PruneOptions(), &stats),
            "S n=4 0(0,3) 1(3,1) 1(1,2) | "
            "origs=3,2,1,0, recs={}{}{}");
  EXPECT_EQ(stats.removed_single_ref, 1u);
  EXPECT_EQ(stats.removed_contribution, 1u);
}

// With phase 1 off, the single pass visits W (ref 3, con 1) before it
// inlines the ref-0 Z, so W survives; the fixpoint's second round sees
// W's ref drop to 1 and inlines it.
TEST(PruningPinnedTest, FixpointMode) {
  SlhrGrammar g(AbcAlphabet(), Hypergraph(4));
  Label w = g.AddNonterminal(2, "W");
  Hypergraph rw = Rhs(2, 1);
  rw.AddSimpleEdge(0, 2, 0);
  rw.AddSimpleEdge(2, 1, 1);
  g.SetRule(w, std::move(rw));
  Label z = g.AddNonterminal(2, "Z");
  Hypergraph rz = Rhs(2, 1);
  rz.AddEdge(w, {0, 2});
  rz.AddEdge(w, {2, 1});
  g.SetRule(z, std::move(rz));
  g.mutable_start()->AddEdge(w, {0, 1});
  g.mutable_start()->AddSimpleEdge(1, 2, 1);
  g.mutable_start()->AddEdge(w, {2, 3});

  PruneOptions single;
  single.remove_single_refs = false;
  PruneStats stats;
  EXPECT_EQ(PruneAndDump(g, single, &stats),
            "S n=4 3(0,1) 1(1,2) 3(2,3) | "
            "R0 n=3 ext=0,1, 0(0,2) 1(2,1) | "
            "origs=5,4,3,2, recs={1}{}{0}");
  EXPECT_EQ(stats.removed_contribution, 1u);

  PruneOptions fixpoint = single;
  fixpoint.iterate_to_fixpoint = true;
  EXPECT_EQ(PruneAndDump(g, fixpoint, &stats),
            "S n=6 0(0,4) 1(4,1) 1(1,2) 0(2,5) 1(5,3) | "
            "origs=5,4,3,2,1,0, recs={}{}{}{}{}");
  EXPECT_EQ(stats.removed_contribution, 2u);
}

// InlineRuleEverywhere on a rule below the start graph (A, inside B)
// and on a rule the start graph references (B).
TEST(PruningPinnedTest, InlineRuleEverywhere) {
  const char* const kExpected[2] = {
      "S n=2 2(0,1) 1(1,0) 2(1,0) | "
      "R0 n=5 ext=0,1, 0(0,3) 0(3,2) 0(2,4) 0(4,1) | "
      "origs=7,6, recs={5,4,3}{}{2,1,0}",
      "S n=4 2(0,2) 2(2,1) 1(1,0) 2(1,3) 2(3,0) | "
      "R0 n=3 ext=0,1, 0(0,2) 0(2,1) | "
      "origs=7,6,5,2, recs={4}{3}{}{1}{0}",
  };
  for (uint32_t rule : {0u, 1u}) {
    SlhrGrammar g = ChainedGrammar();
    g.mutable_start()->AddSimpleEdge(1, 0, 1);
    g.mutable_start()->AddEdge(g.NonterminalLabel(1), {1, 0});
    NodeMapping mapping = ReversedMapping(g);
    auto before = DeriveFromRecords(g, mapping);
    ASSERT_TRUE(before.ok());
    InlineRuleEverywhere(&g, g.NonterminalLabel(rule), &mapping);
    ASSERT_TRUE(ValidateMapping(g, mapping).ok());
    auto after = DeriveFromRecords(g, mapping);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after.value().EqualUpToEdgeOrder(before.value()));
    EXPECT_EQ(Dump(g, mapping), kExpected[rule]) << "rule " << rule;
  }
}

// ---------------------------------------------------------------------
// Linear work. PruneStats::spliced_edges counts every edge written into
// an edge list by inlining; pruning that redid whole-start-graph work
// per inline would write ~n^2 edges on these shapes.

// Checks the work bound and exact reconstruction; every rule is gone.
void CheckLinearPrune(const SlhrGrammar& g) {
  SlhrGrammar pruned = g;
  NodeMapping mapping = ReversedMapping(g);
  auto before = DeriveFromRecords(g, mapping);
  ASSERT_TRUE(before.ok());
  PruneStats stats = PruneGrammar(&pruned, &mapping, PruneOptions());
  EXPECT_EQ(pruned.num_rules(), 0u);
  EXPECT_GT(stats.spliced_edges, 0u);
  EXPECT_LE(stats.spliced_edges, stats.size_before + stats.size_after);
  ASSERT_TRUE(ValidateMapping(pruned, mapping).ok());
  auto after = DeriveFromRecords(pruned, mapping);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().EqualUpToEdgeOrder(before.value()));
}

// A start-graph path of 20k edges, each labeled by its own single-ref
// digram rule.
TEST(PruningTest, SplicedEdgesLinearOnSingleRefChain) {
  constexpr uint32_t kRules = 20000;
  SlhrGrammar g(AbAlphabet(), Hypergraph(kRules + 1));
  for (uint32_t i = 0; i < kRules; ++i) {
    Label nt = g.AddNonterminal(2);
    Hypergraph rhs = Rhs(2, 1);
    rhs.AddSimpleEdge(0, 2, i % 2);
    rhs.AddSimpleEdge(2, 1, 1 - i % 2);
    g.SetRule(nt, std::move(rhs));
    g.mutable_start()->AddEdge(nt, {i, i + 1});
  }
  CheckLinearPrune(g);
}

// A star: 20k spokes out of one center, each a single-ref rule whose
// rhs holds another single-ref rule (records nest two deep).
TEST(PruningTest, SplicedEdgesLinearOnWideStar) {
  constexpr uint32_t kSpokes = 20000;
  SlhrGrammar g(AbAlphabet(), Hypergraph(kSpokes + 1));
  for (uint32_t i = 0; i < kSpokes; ++i) {
    Label inner = g.AddNonterminal(2);
    Hypergraph ri = Rhs(2, 1);
    ri.AddSimpleEdge(0, 2, 0);
    ri.AddSimpleEdge(2, 1, 1);
    g.SetRule(inner, std::move(ri));
    Label outer = g.AddNonterminal(2);
    Hypergraph ro = Rhs(2, 1);
    ro.AddEdge(inner, {0, 2});
    ro.AddSimpleEdge(1, 2, 0);
    g.SetRule(outer, std::move(ro));
    g.mutable_start()->AddEdge(outer, {0, i + 1});
  }
  CheckLinearPrune(g);
}

}  // namespace
}  // namespace grepair
