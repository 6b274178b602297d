// Tests for the CompressedGraph facade: original-id transparency,
// agreement with the uncompressed graph, and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "fuzz/golden_seeds.h"
#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/graph/graph_algos.h"
#include "src/query/compressed_graph.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

std::vector<uint64_t> BruteOut(const Hypergraph& g, uint64_t node) {
  std::vector<uint64_t> out;
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2 && e.att[0] == node) out.push_back(e.att[1]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint64_t> BruteIn(const Hypergraph& g, uint64_t node) {
  std::vector<uint64_t> in;
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2 && e.att[1] == node) in.push_back(e.att[0]);
  }
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  return in;
}

class CompressedGraphSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CompressedGraphSweep, AgreesWithOriginalIds) {
  std::string which = GetParam();
  GeneratedGraph gg;
  if (which == "coauth") gg = CoAuthorship(140, 200, 61);
  if (which == "rdf") gg = RdfTypes(400, 8, 62);
  if (which == "copies") gg = DisjointCopies(CycleWithDiagonal(), 40, "c");
  if (which == "dblp") gg = DblpVersions(3, 50, 30, 63, "dblp");

  auto cg = CompressedGraph::FromGraph(gg.graph, gg.alphabet);
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  const CompressedGraph& g = cg.value();
  EXPECT_EQ(g.num_nodes(), gg.graph.num_nodes());
  EXPECT_EQ(g.num_edges(), gg.graph.num_edges());

  // Neighborhoods in ORIGINAL ids must match the input graph directly.
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    uint64_t v = rng.UniformBounded(gg.graph.num_nodes());
    ASSERT_EQ(g.OutNeighbors(v), BruteOut(gg.graph, v))
        << which << " node " << v;
  }

  // Reachability in original ids vs BFS on the input graph.
  for (int i = 0; i < 30; ++i) {
    uint64_t u = rng.UniformBounded(gg.graph.num_nodes());
    auto truth = DirectedReachable(gg.graph, static_cast<NodeId>(u));
    for (int j = 0; j < 10; ++j) {
      uint64_t v = rng.UniformBounded(gg.graph.num_nodes());
      ASSERT_EQ(g.Reachable(u, v), truth[v] != 0)
          << which << ": " << u << " -> " << v;
    }
  }

  // Aggregates.
  uint32_t comps = 0;
  ConnectedComponents(gg.graph, &comps);
  EXPECT_EQ(g.NumConnectedComponents(), comps);

  // Decompression returns the exact input.
  auto back = g.Decompress();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().EqualUpToEdgeOrder(gg.graph));

  EXPECT_GT(g.SerializedSize(), 0u);
  EXPECT_EQ(g.SerializedSize(), g.SerializedSize());
}

INSTANTIATE_TEST_SUITE_P(Graphs, CompressedGraphSweep,
                         ::testing::Values("coauth", "rdf", "copies",
                                           "dblp"));

// A payload without a node mapping is queried in val(G) numbering;
// fuzz::GrammarPayload frames a bare grammar the way Serialize does.
TEST(CompressedGraphTest, FromGrammarUsesValNumbering) {
  GeneratedGraph gg = RdfTypes(300, 6, 64);
  auto compressed = Compress(gg.graph, gg.alphabet, {});
  ASSERT_TRUE(compressed.ok());

  auto cg = CompressedGraph::Deserialize(
      fuzz::GrammarPayload(compressed.value().grammar));
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  EXPECT_FALSE(cg.value().has_original_ids());
  EXPECT_EQ(cg.value().num_nodes(), gg.graph.num_nodes());
  EXPECT_EQ(cg.value().num_edges(), gg.graph.num_edges());
  // Numbering is val(G)'s: verify against the derived graph.
  auto val = Derive(cg.value().grammar());
  ASSERT_TRUE(val.ok());
  for (uint64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(cg.value().OutNeighbors(v), BruteOut(val.value(), v));
  }
}

TEST(CompressedGraphTest, RejectsInvalidGrammar) {
  // Rule X references the later rule Y. The encoder writes the grammar
  // as given; the payload parser refuses the cyclic grammar it decodes.
  Alphabet alpha;
  alpha.Add("a", 2);
  SlhrGrammar bad(alpha, Hypergraph(2));
  Label x = bad.AddNonterminal(2, "X");
  Label y = bad.AddNonterminal(2, "Y");
  Hypergraph x_rhs(2);
  x_rhs.AddSimpleEdge(0, 1, y);
  x_rhs.SetExternal({0, 1});
  bad.SetRule(x, std::move(x_rhs));
  Hypergraph y_rhs(2);
  y_rhs.AddSimpleEdge(0, 1, 0);
  y_rhs.SetExternal({0, 1});
  bad.SetRule(y, std::move(y_rhs));
  bad.mutable_start()->AddSimpleEdge(0, 1, x);
  ASSERT_FALSE(bad.Validate().ok());
  auto cg = CompressedGraph::Deserialize(fuzz::GrammarPayload(bad));
  ASSERT_FALSE(cg.ok());
  EXPECT_NE(cg.status().message().find("cyclic"), std::string::npos)
      << cg.status().ToString();
}

TEST(CompressedGraphTest, ValGraphBeyondNodeIdsFailsClosed) {
  // 65 doubling rules in 455 bytes: val(G) has 2^64 + 2 nodes and 2^64
  // edges. Plain uint64_t sums wrapped that to 2 nodes and 0 edges, so
  // the grammar passed every size check and Decompress ran unbounded.
  SlhrGrammar wrapped = fuzz::DoublingGrammar(65);
  ASSERT_TRUE(DecodeGrammar(EncodeGrammar(wrapped)).ok());
  const ValSize size = ComputeValSize(wrapped);
  ASSERT_EQ(size.nodes, UINT64_MAX);
  ASSERT_EQ(size.edges, UINT64_MAX);
  EXPECT_EQ(Derive(wrapped).status().code(), StatusCode::kOutOfRange);
  bool called = false;
  Status streamed = ForEachDerivedEdge(
      wrapped, [&](Label, const Attachments&) { called = true; });
  EXPECT_EQ(streamed.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(called);
  auto open = [](const SlhrGrammar& grammar) {
    return CompressedGraph::Deserialize(fuzz::GrammarPayload(grammar));
  };
  EXPECT_EQ(open(wrapped).status().code(), StatusCode::kOutOfRange);

  // Edges alone can saturate too: 2 nodes and 2^64 parallel edges.
  SlhrGrammar parallel = fuzz::DoublingGrammar(65, /*new_node=*/false);
  EXPECT_EQ(ComputeValSize(parallel).nodes, 2u);
  EXPECT_EQ(ComputeValSize(parallel).edges, UINT64_MAX);
  EXPECT_EQ(open(parallel).status().code(), StatusCode::kOutOfRange);

  // 33 rules: 2^32 + 2 nodes, no wrap, but more than NodeId can name.
  EXPECT_EQ(open(fuzz::DoublingGrammar(33)).status().code(),
            StatusCode::kOutOfRange);
  // 20 rules fit, with exact counts.
  auto fits = open(fuzz::DoublingGrammar(20));
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().num_nodes(), (1u << 19) + 2);
  EXPECT_EQ(fits.value().num_edges(), 1u << 19);
}

TEST(CompressedGraphTest, ValNumberingWhenMappingDisabled) {
  GeneratedGraph gg = CoAuthorship(80, 100, 65);
  auto cg = CompressedGraph::FromGraph(gg.graph, gg.alphabet, {},
                                       /*keep_original_ids=*/false);
  ASSERT_TRUE(cg.ok());
  auto val = Derive(cg.value().grammar());
  ASSERT_TRUE(val.ok());
  for (uint64_t v = 0; v < 40; ++v) {
    EXPECT_EQ(cg.value().OutNeighbors(v), BruteOut(val.value(), v));
  }
}

// The query indexes are built on first use: stats reads never build
// them, and 8 threads racing the very first OutNeighbors / InNeighbors /
// Reachable on a freshly deserialized graph all get the model's answers
// (the TSan leg checks the build-once handoff).
TEST(CompressedGraphTest, LazyIndexesRaceFirstQueries) {
  GeneratedGraph gg = CoAuthorship(140, 200, 66);
  auto built = CompressedGraph::FromGraph(gg.graph, gg.alphabet);
  ASSERT_TRUE(built.ok());
  const std::vector<uint8_t> bytes = built.value().Serialize();
  const uint32_t n = gg.graph.num_nodes();
  std::vector<std::vector<char>> reach(n);
  for (NodeId u = 0; u < n; ++u) reach[u] = DirectedReachable(gg.graph, u);

  constexpr int kThreads = 8;
  for (int round = 0; round < 4; ++round) {
    auto fresh = CompressedGraph::Deserialize(bytes);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const CompressedGraph& g = fresh.value();
    EXPECT_EQ(g.memo_entries(), 0u);
    EXPECT_EQ(g.memo_hits(), 0u);

    std::atomic<int> ready{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Each thread starts with a different query kind, so the first
        // calls into both indexes overlap.
        for (uint32_t i = 0; i < 40; ++i) {
          uint64_t v = (static_cast<uint64_t>(t) * 37 + i * 11) % n;
          uint64_t w = (v * 7 + 3) % n;
          switch ((t + i) % 3) {
            case 0:
              if (g.OutNeighbors(v) != BruteOut(gg.graph, v)) ++mismatches;
              break;
            case 1:
              if (g.InNeighbors(v) != BruteIn(gg.graph, v)) ++mismatches;
              break;
            default:
              if (g.Reachable(v, w) != (reach[v][w] != 0)) ++mismatches;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    EXPECT_GT(g.memo_entries(), 0u);
  }
}

}  // namespace
}  // namespace grepair
