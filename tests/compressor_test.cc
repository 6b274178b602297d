// End-to-end gRePair tests: round-trip correctness (exact via the node
// mapping, isomorphic via WL hashes), compression effectiveness on the
// structures the paper highlights, and option sweeps.

#include <gtest/gtest.h>

#include <string>

#include "src/datasets/generators.h"
#include "src/grepair/compressor.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

CompressOptions TrackingOptions() {
  CompressOptions o;
  o.track_node_mapping = true;
  return o;
}

// Compresses and checks every invariant we can: grammar validity,
// val(G) isomorphic to the input (WL hash), and — with mapping — exact
// equality after renaming.
void CheckRoundTrip(const GeneratedGraph& gg, CompressOptions options) {
  options.track_node_mapping = true;
  auto result = Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SlhrGrammar& grammar = result.value().grammar;
  ASSERT_TRUE(grammar.Validate().ok()) << grammar.Validate().ToString();

  EXPECT_EQ(ComputeValSize(grammar).nodes, gg.graph.num_nodes());
  EXPECT_EQ(ComputeValSize(grammar).edges, gg.graph.num_edges());

  auto derived = Derive(grammar);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(WlHash(derived.value()), WlHash(gg.graph)) << gg.name;

  auto original = DeriveOriginal(grammar, result.value().origins);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  EXPECT_TRUE(original.value().EqualUpToEdgeOrder(gg.graph)) << gg.name;
}

TEST(CompressorTest, TinyChainIsLossless) {
  GeneratedGraph gg;
  gg.name = "chain";
  gg.alphabet.Add("a", 2);
  gg.graph = Hypergraph(5);
  for (uint32_t v = 0; v + 1 < 5; ++v) gg.graph.AddSimpleEdge(v, v + 1, 0);
  CheckRoundTrip(gg, CompressOptions());
}

TEST(CompressorTest, PaperIntroExample) {
  // Figure 1b: three a-b chains around a cycle: gRePair should find the
  // a-b digram three times and build one rule for it.
  GeneratedGraph gg;
  gg.name = "fig1";
  gg.alphabet.Add("a", 2);
  gg.alphabet.Add("b", 2);
  gg.graph = Hypergraph(6);
  gg.graph.AddSimpleEdge(0, 3, 0);
  gg.graph.AddSimpleEdge(3, 1, 1);
  gg.graph.AddSimpleEdge(1, 4, 0);
  gg.graph.AddSimpleEdge(4, 2, 1);
  gg.graph.AddSimpleEdge(2, 5, 0);
  gg.graph.AddSimpleEdge(5, 0, 1);

  CompressOptions options = TrackingOptions();
  options.prune = false;
  auto result = Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(result.ok());
  const auto& grammar = result.value().grammar;
  // One rule A -> (a b chain), three A-edges in S (then possibly an
  // AA rule from a second digram round).
  ASSERT_GE(grammar.num_rules(), 1u);
  const Hypergraph& rhs0 = grammar.rhs_by_index(0);
  EXPECT_EQ(rhs0.num_edges(), 2u);
  EXPECT_EQ(rhs0.num_nodes(), 3u);
  EXPECT_EQ(rhs0.rank(), 2);
  CheckRoundTrip(gg, options);
}

TEST(CompressorTest, Figure1cIncompressible) {
  // Figure 1c: the chains' middle nodes carry extra c-edges, so the
  // a-b digram has rank 3 and "no compression would be achieved";
  // with pruning the grammar must fall back to (close to) the input.
  GeneratedGraph gg;
  gg.name = "fig1c";
  gg.alphabet.Add("a", 2);
  gg.alphabet.Add("b", 2);
  gg.alphabet.Add("c", 2);
  gg.graph = Hypergraph(8);
  gg.graph.AddSimpleEdge(0, 3, 0);
  gg.graph.AddSimpleEdge(3, 1, 1);
  gg.graph.AddSimpleEdge(1, 4, 0);
  gg.graph.AddSimpleEdge(4, 2, 1);
  gg.graph.AddSimpleEdge(2, 5, 0);
  gg.graph.AddSimpleEdge(5, 0, 1);
  gg.graph.AddSimpleEdge(3, 6, 2);  // extra edges on two middles
  gg.graph.AddSimpleEdge(4, 7, 2);

  auto result = Compress(gg.graph, gg.alphabet, TrackingOptions());
  ASSERT_TRUE(result.ok());
  // Pruning keeps only contributing rules; on this graph nothing pays
  // off enough to beat the input by much.
  EXPECT_GE(result.value().stats.output_size + 3,
            result.value().stats.input_size);
  CheckRoundTrip(gg, CompressOptions());
}

TEST(CompressorTest, StarCompressesWell) {
  // 1000-leaf star: the paper's RDF-types win case. The grammar must
  // be dramatically smaller than the input.
  GeneratedGraph gg;
  gg.name = "star";
  gg.alphabet.Add("t", 2);
  gg.graph = Hypergraph(1001);
  for (uint32_t i = 1; i <= 1000; ++i) gg.graph.AddSimpleEdge(i, 0, 0);

  auto result = Compress(gg.graph, gg.alphabet, TrackingOptions());
  ASSERT_TRUE(result.ok());
  const auto& stats = result.value().stats;
  EXPECT_LT(stats.output_size, stats.input_size / 3) << "star must compress";
  CheckRoundTrip(gg, CompressOptions());
}

TEST(CompressorTest, IdenticalCopiesCompressExponentially) {
  // Figure 13: disjoint copies of a 5-edge graph. With virtual edges
  // the grammar grows ~logarithmically in the copy count.
  GeneratedGraph unit = CycleWithDiagonal();
  auto g256 = DisjointCopies(unit, 256, "c256");
  auto g1024 = DisjointCopies(unit, 1024, "c1024");

  CompressOptions options;
  auto r256 = Compress(g256.graph, g256.alphabet, options);
  auto r1024 = Compress(g1024.graph, g1024.alphabet, options);
  ASSERT_TRUE(r256.ok());
  ASSERT_TRUE(r1024.ok());
  // 4x the input must cost far less than 4x the grammar.
  EXPECT_LT(r1024.value().stats.output_size,
            2 * r256.value().stats.output_size + 64);
  EXPECT_LT(r1024.value().stats.output_size,
            g1024.graph.TotalSize() / 10);
  CheckRoundTrip(g256, options);
}

TEST(CompressorTest, VirtualEdgesAblation) {
  GeneratedGraph unit = CycleWithDiagonal();
  auto copies = DisjointCopies(unit, 128, "c128");
  CompressOptions with, without;
  without.connect_components = false;
  auto r_with = Compress(copies.graph, copies.alphabet, with);
  auto r_without = Compress(copies.graph, copies.alphabet, without);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  // Virtual edges merge per-copy nonterminals across components.
  EXPECT_LT(r_with.value().stats.output_size,
            r_without.value().stats.output_size);
  EXPECT_GT(r_with.value().stats.virtual_edges_added, 0u);
  CheckRoundTrip(copies, without);
}

TEST(CompressorTest, EmptyAndTinyGraphs) {
  GeneratedGraph gg;
  gg.name = "empty";
  gg.alphabet.Add("a", 2);
  gg.graph = Hypergraph(0);
  CheckRoundTrip(gg, CompressOptions());

  gg.name = "edgeless";
  gg.graph = Hypergraph(5);
  CheckRoundTrip(gg, CompressOptions());

  gg.name = "one-edge";
  gg.graph = Hypergraph(5);
  gg.graph.AddSimpleEdge(0, 4, 0);
  CheckRoundTrip(gg, CompressOptions());
}

TEST(CompressorTest, RejectsInvalidInput) {
  Alphabet alpha;
  alpha.Add("a", 2);
  Hypergraph g(2);
  g.AddEdge(0, {0, 0});  // repeated attachment
  EXPECT_FALSE(Compress(g, alpha, CompressOptions()).ok());

  Hypergraph h(2);
  h.AddSimpleEdge(0, 1, 0);
  h.SetExternal({0});
  EXPECT_FALSE(Compress(h, alpha, CompressOptions()).ok());

  CompressOptions bad;
  bad.max_rank = 0;
  Hypergraph ok_graph(2);
  ok_graph.AddSimpleEdge(0, 1, 0);
  EXPECT_FALSE(Compress(ok_graph, alpha, bad).ok());
}

struct SweepParam {
  const char* dataset;
  NodeOrderKind order;
  int max_rank;
  bool prune;
  bool connect;
};

class CompressorSweep : public ::testing::TestWithParam<SweepParam> {};

GeneratedGraph MakeSweepGraph(const std::string& name) {
  if (name == "er") return ErdosRenyi(300, 900, 1, 3);
  if (name == "ba") return BarabasiAlbert(400, 3, 2);
  if (name == "coauth") return CoAuthorship(200, 300, 3);
  if (name == "rdf-types") return RdfTypes(500, 12, 4);
  if (name == "rdf-ent") return RdfEntities(120, 8, 10, 5);
  if (name == "hub") return HubNetwork(300, 1200, 10, 6);
  if (name == "games") return GamePositions(40, 8, 3, 5, 7);
  if (name == "dblp") return DblpVersions(4, 40, 25, 8, "dblp");
  ADD_FAILURE() << "unknown sweep dataset " << name;
  return GeneratedGraph();
}

TEST_P(CompressorSweep, RoundTripsExactly) {
  const SweepParam& p = GetParam();
  GeneratedGraph gg = MakeSweepGraph(p.dataset);
  CompressOptions options;
  options.node_order = p.order;
  options.max_rank = p.max_rank;
  options.prune = p.prune;
  options.connect_components = p.connect;
  CheckRoundTrip(gg, options);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, CompressorSweep,
    ::testing::Values(
        SweepParam{"er", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"er", NodeOrderKind::kNatural, 4, true, true},
        SweepParam{"er", NodeOrderKind::kRandom, 4, false, false},
        SweepParam{"ba", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"ba", NodeOrderKind::kBfs, 2, true, true},
        SweepParam{"coauth", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"coauth", NodeOrderKind::kFp0, 6, true, true},
        SweepParam{"rdf-types", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"rdf-types", NodeOrderKind::kNatural, 2, true, false},
        SweepParam{"rdf-ent", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"rdf-ent", NodeOrderKind::kDfs, 8, true, true},
        SweepParam{"hub", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"hub", NodeOrderKind::kFp, 3, false, true},
        SweepParam{"games", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"games", NodeOrderKind::kFp, 5, true, false},
        SweepParam{"dblp", NodeOrderKind::kFp, 4, true, true},
        SweepParam{"dblp", NodeOrderKind::kRandom, 4, true, true}),
    [](const auto& suite_info) {
      const SweepParam& p = suite_info.param;
      std::string name = std::string(p.dataset) + "_" +
                         NodeOrderKindName(p.order) + "_r" +
                         std::to_string(p.max_rank);
      if (!p.prune) name += "_noprune";
      if (!p.connect) name += "_novirt";
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Stars whose spokes all carry distinct labels: initial counting pairs
// each spoke with one spoke of every other label, so every edge takes
// part in 11 occurrences at once, far more than the two an edge keeps
// inline, and replacements then dissolve them again. The node mapping
// must still reproduce the input exactly, pruned or not.
TEST(CompressorTest, EdgesInManyOccurrencesRoundTripExactly) {
  constexpr uint32_t kLabels = 12;
  constexpr uint32_t kStars = 8;
  GeneratedGraph gg;
  gg.name = "labeled-stars";
  for (uint32_t l = 0; l < kLabels; ++l) {
    gg.alphabet.Add("s" + std::to_string(l), 2);
  }
  gg.graph = Hypergraph(kStars * (kLabels + 1));
  for (uint32_t s = 0; s < kStars; ++s) {
    const NodeId hub = s * (kLabels + 1);
    for (uint32_t l = 0; l < kLabels; ++l) {
      gg.graph.AddSimpleEdge(hub, hub + 1 + l, l);
    }
  }
  CheckRoundTrip(gg, CompressOptions());
  CompressOptions unpruned;
  unpruned.prune = false;
  CheckRoundTrip(gg, unpruned);
  auto result = Compress(gg.graph, gg.alphabet, TrackingOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().stats.occurrences_indexed, kStars * kLabels * 5);
  EXPECT_LT(result.value().stats.output_size, gg.graph.TotalSize());
}

TEST(CompressorTest, StatsAreConsistent) {
  GeneratedGraph gg = RdfTypes(800, 10, 12);
  auto result = Compress(gg.graph, gg.alphabet, CompressOptions());
  ASSERT_TRUE(result.ok());
  const auto& stats = result.value().stats;
  EXPECT_EQ(stats.input_size, gg.graph.TotalSize());
  EXPECT_EQ(stats.output_size, result.value().grammar.TotalSize());
  EXPECT_GT(stats.digrams_replaced, 0u);
  EXPECT_GE(stats.occurrences_replaced, stats.digrams_replaced);
  EXPECT_EQ(stats.rules_after_prune, result.value().grammar.num_rules());
}

TEST(CompressorTest, MaxRankBoundsNonterminalRanks) {
  for (int max_rank : {1, 2, 3, 5}) {
    GeneratedGraph gg = ErdosRenyi(200, 700, 21, 2);
    CompressOptions options;
    options.max_rank = max_rank;
    auto result = Compress(gg.graph, gg.alphabet, options);
    ASSERT_TRUE(result.ok());
    auto stats = ComputeGrammarStats(result.value().grammar);
    EXPECT_LE(stats.max_nonterminal_rank, static_cast<uint32_t>(max_rank));
  }
}

}  // namespace
}  // namespace grepair
