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
#include "src/query/speedup.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard_store.h"
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

// Sorted, deduplicated rank-2 adjacency of `g`: out rows, or in rows
// with `in`.
std::vector<std::vector<uint64_t>> Rank2Rows(const Hypergraph& g, bool in) {
  std::vector<std::vector<uint64_t>> rows(g.num_nodes());
  for (const HEdge& e : g.edges()) {
    if (e.att.size() != 2) continue;
    rows[e.att[in ? 1 : 0]].push_back(e.att[in ? 0 : 1]);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return rows;
}

// Differential check of a decoded graph, whose terminal rank-2 start
// edges sit in the start adjacency, against `grammar` in the form the
// compressor builds, with its whole start graph in start(): `expected`
// is that form's Decompress (DeriveOriginal with `origins`, or Derive
// without). Decompress and ForEachRank2Edge match it edge for edge and
// in order; every node's Out/InNeighbors are its sorted unique rows;
// components, degree extrema, sampled reachability and Serialize agree.
void ExpectDecodedFormAgrees(const CompressedGraph& g,
                             const SlhrGrammar& grammar,
                             const Hypergraph& expected,
                             const std::vector<uint8_t>& payload) {
  EXPECT_EQ(g.grammar().num_start_edges(), grammar.start().num_edges());
  EXPECT_EQ(g.GrammarSize(), grammar.TotalSize());
  EXPECT_EQ(g.Serialize(), payload);
  auto val = g.Decompress();
  ASSERT_TRUE(val.ok()) << val.status().ToString();
  ASSERT_TRUE(val.value() == expected);
  std::vector<std::pair<NodeId, NodeId>> streamed, derived;
  ASSERT_TRUE(g.ForEachRank2Edge([&](NodeId u, NodeId v) {
                 streamed.push_back({u, v});
               }).ok());
  for (const HEdge& e : expected.edges()) {
    if (e.att.size() == 2) derived.push_back({e.att[0], e.att[1]});
  }
  EXPECT_EQ(streamed, derived);

  const auto out = Rank2Rows(expected, false);
  const auto in = Rank2Rows(expected, true);
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    ASSERT_EQ(g.OutNeighbors(v), out[v]) << "node " << v;
    ASSERT_EQ(g.InNeighbors(v), in[v]) << "node " << v;
  }
  EXPECT_EQ(g.NumConnectedComponents(), CountConnectedComponents(grammar));
  auto extrema = ComputeDegreeExtrema(g.grammar());
  auto truth = ComputeDegreeExtrema(grammar);
  ASSERT_TRUE(extrema.ok() && truth.ok());
  EXPECT_EQ(extrema.value().min_degree, truth.value().min_degree);
  EXPECT_EQ(extrema.value().max_degree, truth.value().max_degree);
  Rng rng(expected.num_edges());
  for (int i = 0; i < 8; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformBounded(val.value().num_nodes()));
    const std::vector<char> reach = DirectedReachable(expected, u);
    for (int j = 0; j < 8; ++j) {
      const NodeId w =
          static_cast<NodeId>(rng.UniformBounded(val.value().num_nodes()));
      EXPECT_EQ(g.Reachable(u, w), reach[w] != 0) << u << " -> " << w;
    }
  }
}

// Shard grammars of both generators: a dblp shard has one terminal
// rank-2 label, an RDF shard dozens. Each shard is decoded the way a
// fault does (DecodeShardPayload) and checked against the compressor's
// own grammar.
class StartAdjacencyShards : public ::testing::TestWithParam<const char*> {};

TEST_P(StartAdjacencyShards, DecodedShardsMatchTheCompressorsGrammar) {
  const std::string which = GetParam();
  const GeneratedGraph gg = which == "dblp"
                                ? DblpVersions(6, 100, 50, 3, "dblp")
                                : RdfEntities(3000, 40, 60, 5);
  shard::PartitionOptions partition_options;
  partition_options.num_shards = 4;
  auto partition = shard::PartitionGraph(gg.graph, partition_options);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  size_t max_labels = 0;
  for (const shard::Shard& part : partition.value().shards) {
    if (part.graph.num_edges() == 0) continue;
    CompressOptions options;
    options.track_node_mapping = true;
    auto compressed = Compress(part.graph, gg.alphabet, options);
    ASSERT_TRUE(compressed.ok());
    const SlhrGrammar& grammar = compressed.value().grammar;
    auto expected = DeriveOriginal(grammar, compressed.value().origins);
    ASSERT_TRUE(expected.ok());
    auto payload = CompressedGraph::CompressToPayload(part.graph, gg.alphabet);
    ASSERT_TRUE(payload.ok());
    auto g = shard::DecodeShardPayload(SpanOf(payload.value()));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    const StartAdjacency::LabelGroups groups =
        g.value().grammar().start_adjacency().GroupByLabel();
    size_t labels = 0;
    for (size_t l = 0; l + 1 < groups.begin.size(); ++l) {
      labels += groups.begin[l + 1] > groups.begin[l] ? 1 : 0;
    }
    max_labels = std::max(max_labels, labels);
    ExpectDecodedFormAgrees(g.value(), grammar, expected.value(),
                            payload.value());
  }
  if (which == "dblp") {
    EXPECT_EQ(max_labels, 1u);
  } else {
    EXPECT_GE(max_labels, 20u);
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, StartAdjacencyShards,
                         ::testing::Values("dblp", "rdf"));

// Parallel duplicate terminal start edges (a dup patch), two labels on
// one cell, a terminal hyperedge and rank-2 nonterminal start edges.
TEST(StartAdjacencyTest, HandBuiltGrammarMatchesItsCompressorForm) {
  const SlhrGrammar grammar = fuzz::StartAdjacencyGrammar();
  ASSERT_TRUE(grammar.Validate().ok());
  const std::vector<uint8_t> payload = fuzz::GrammarPayload(grammar);
  auto g = CompressedGraph::Deserialize(SpanOf(payload));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // The seven terminal rank-2 edges sit in the CSR, the hyperedge and
  // the two nonterminal edges in start().
  EXPECT_EQ(g.value().grammar().start_adjacency().num_edges(), 7u);
  EXPECT_EQ(g.value().grammar().start().num_edges(), 3u);
  EXPECT_TRUE(g.value().grammar().Validate().ok());
  auto expected = Derive(grammar);
  ASSERT_TRUE(expected.ok());
  ExpectDecodedFormAgrees(g.value(), grammar, expected.value(), payload);
  // Node 0's CSR row holds a twice and b once to node 1, listed once.
  // Node 1's answer joins its CSR row (a to 4) and the memo path of
  // N(1,2), whose rule derives node 5.
  EXPECT_EQ(g.value().OutNeighbors(0), (std::vector<uint64_t>{1}));
  EXPECT_EQ(g.value().OutNeighbors(1), (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(g.value().InNeighbors(2), (std::vector<uint64_t>{4, 5}));
}

}  // namespace
}  // namespace grepair
