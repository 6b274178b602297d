// The rank-2 edge stream (CompressedGraph::ForEachRank2Edge) that
// shard decode builds its CSR from, differential against Decompress():
//
//   * per shard, the streamed edges are exactly Decompress()'s rank-2
//     edges, in order (hence also as a multiset),
//   * the neighborhoods the store's decode (DecodeNeighborhoods)
//     builds equal ones built the way shard decode used to:
//     Decompress() into a Hypergraph, then sort and dedup every row,
//
// over every shard of a 16-shard dblp corpus, an RDF corpus, a graph
// with rank-3 hyperedges (which the stream skips) and the shards a
// FoldOverlay recompressed.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

EdgeList Streamed(const CompressedGraph& graph) {
  EdgeList edges;
  Status status = graph.ForEachRank2Edge(
      [&](NodeId u, NodeId v) { edges.push_back({u, v}); });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return edges;
}

EdgeList Rank2Edges(const Hypergraph& g) {
  EdgeList edges;
  for (const HEdge& e : g.edges()) {
    if (e.att.size() == 2) edges.push_back({e.att[0], e.att[1]});
  }
  return edges;
}

using Rows = std::vector<std::vector<uint64_t>>;

// Shard decode as it was built before the edge stream: Decompress()
// into a Hypergraph, then sort + dedup every row. Out rows first, then
// in rows.
std::pair<Rows, Rows> ReferenceRows(const std::vector<NodeId>& nodes,
                                    const Hypergraph& g) {
  const size_t n = nodes.size();
  Rows out(n), in(n);
  for (const auto& [u, v] : Rank2Edges(g)) {
    out[u].push_back(nodes[v]);
    in[v].push_back(nodes[u]);
  }
  for (Rows* rows : {&out, &in}) {
    for (auto& row : *rows) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
  }
  return {std::move(out), std::move(in)};
}

// Checks one shard graph whose local node i is global id nodes[i].
void ExpectStreamMatchesDecompress(const std::vector<NodeId>& nodes,
                                   const CompressedGraph& shard_graph,
                                   const std::string& tag) {
  auto graph = shard_graph.Decompress();
  ASSERT_TRUE(graph.ok()) << tag << ": " << graph.status().ToString();
  ASSERT_EQ(graph.value().num_nodes(), nodes.size()) << tag;
  const EdgeList expected = Rank2Edges(graph.value());
  EXPECT_EQ(Streamed(shard_graph), expected) << tag;

  auto decoded = shard::DecodeNeighborhoods(nodes, shard_graph);
  ASSERT_NE(decoded, nullptr) << tag << ": edges do not fit the node map";
  const auto [want_out, want_in] = ReferenceRows(nodes, graph.value());
  Rows out, in;
  for (size_t u = 0; u < nodes.size(); ++u) {
    out.emplace_back(decoded->Out(u).begin(), decoded->Out(u).end());
    in.emplace_back(decoded->In(u).begin(), decoded->In(u).end());
  }
  EXPECT_EQ(out, want_out) << tag;
  EXPECT_EQ(in, want_in) << tag;
}

// Runs the check on every shard with a payload, reading the shards
// back out of the rep's own GRSHARD2 bytes (folded shards included).
// Returns the number of shards checked.
size_t CheckEveryShard(const shard::ShardedRep& rep) {
  const std::vector<uint8_t> container = rep.SerializeV2();
  auto parsed = shard::ParseContainer(SpanOf(container));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return 0;
  const shard::ParsedDirectory& dir = parsed.value().dir;
  size_t checked = 0;
  for (size_t s = 0; s < dir.rows.size(); ++s) {
    const auto& row = dir.rows[s];
    if (row.length == 0) continue;
    auto shard_graph = shard::DecodeShardPayload(
        ByteSpan(container.data() + row.offset, row.length));
    EXPECT_TRUE(shard_graph.ok()) << shard_graph.status().ToString();
    if (!shard_graph.ok()) continue;
    ExpectStreamMatchesDecompress(dir.node_maps[s], shard_graph.value(),
                                  "shard " + std::to_string(s));
    ++checked;
  }
  return checked;
}

std::unique_ptr<api::CompressedRep> CompressSharded(const GeneratedGraph& gg,
                                                    int shards) {
  auto c = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = c->Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return rep.ok() ? std::move(rep).ValueOrDie() : nullptr;
}

TEST(EdgeStreamTest, EveryShardOfA16ShardDblpCorpus) {
  GeneratedGraph gg = DblpVersions(8, 200, 100, 1, "dblp");
  auto rep = CompressSharded(gg, 16);
  ASSERT_NE(rep, nullptr);
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(CheckEveryShard(*sharded), 16u);
}

TEST(EdgeStreamTest, EveryShardOfAnRdfCorpus) {
  GeneratedGraph gg = RdfEntities(2000, 20, 30, 3);
  auto rep = CompressSharded(gg, 8);
  ASSERT_NE(rep, nullptr);
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_GT(CheckEveryShard(*sharded), 1u);
}

TEST(EdgeStreamTest, Rank3HyperedgesAreSkipped) {
  Alphabet alphabet;
  const Label knows = alphabet.Add("knows", 2);
  const Label meets = alphabet.Add("meets", 3);
  const uint32_t n = 120;
  Hypergraph g(n);
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const NodeId a = static_cast<NodeId>(rng.UniformBounded(n));
    const NodeId b = static_cast<NodeId>(rng.UniformBounded(n));
    const NodeId c = static_cast<NodeId>(rng.UniformBounded(n));
    if (a != b) g.AddEdge(knows, {a, b});
    if (a != b && b != c && a != c && i % 3 == 0) g.AddEdge(meets, {a, b, c});
  }
  auto compressed = CompressedGraph::FromGraph(g, alphabet);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  auto graph = compressed.value().Decompress();
  ASSERT_TRUE(graph.ok());
  ASSERT_LT(Rank2Edges(graph.value()).size(), graph.value().num_edges())
      << "the graph must keep hyperedges for this test to mean anything";

  std::vector<NodeId> identity(n);
  for (NodeId v = 0; v < n; ++v) identity[v] = v;
  ExpectStreamMatchesDecompress(identity, compressed.value(), "rank-3 graph");
}

TEST(EdgeStreamTest, ShardsAfterFoldOverlay) {
  GeneratedGraph gg = DblpVersions(4, 120, 60, 2, "dblp");
  auto rep = CompressSharded(gg, 4);
  ASSERT_NE(rep, nullptr);
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.get());
  ASSERT_NE(sharded, nullptr);
  // Reversals and deletions of existing edges: both endpoints already
  // share a shard, so every edit is fold-eligible.
  std::vector<shard::EdgeEdit> edits;
  const auto& edges = gg.graph.edges();
  for (size_t i = 0; i < edges.size() && edits.size() < 60; i += 37) {
    const NodeId u = edges[i].att[0], v = edges[i].att[1];
    edits.push_back(i % 2 == 0 ? shard::EdgeEdit::Add(v, u, edges[i].label)
                               : shard::EdgeEdit::Delete(u, v));
  }
  ASSERT_TRUE(sharded->ApplyEdits(edits).ok());
  sharded->set_overlay_budget_bytes(0);  // fold every eligible edit
  ASSERT_TRUE(sharded->FoldOverlay().ok());
  ASSERT_GT(sharded->query_stats().shard_folds, 0u);
  EXPECT_EQ(CheckEveryShard(*sharded), 4u);
}

}  // namespace
}  // namespace grepair
