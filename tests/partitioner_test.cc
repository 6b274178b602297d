// Partitioner invariants: every input edge lands in exactly one
// shard, node maps are sorted/compact/consistent with the local
// subgraphs, edge ranges are balanced with an empty cut shard, and
// partitioning is deterministic.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/datasets/generators.h"
#include "src/shard/partitioner.h"

namespace grepair {
namespace shard {
namespace {

// Canonical multiset of global (label, att) edges in `partition`.
std::vector<std::pair<Label, Attachments>> GlobalEdges(
    const GraphPartition& partition) {
  std::vector<std::pair<Label, Attachments>> edges;
  for (const Shard& shard : partition.shards) {
    for (const HEdge& e : shard.graph.edges()) {
      Attachments att = e.att;
      for (NodeId& v : att) v = shard.nodes[v];
      edges.push_back({e.label, std::move(att)});
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<std::pair<Label, Attachments>> CanonicalEdges(
    const Hypergraph& g) {
  std::vector<std::pair<Label, Attachments>> edges;
  for (const HEdge& e : g.edges()) edges.push_back({e.label, e.att});
  std::sort(edges.begin(), edges.end());
  return edges;
}

void CheckShardConsistency(const GraphPartition& partition,
                           uint32_t num_nodes) {
  EXPECT_EQ(partition.num_nodes, num_nodes);
  for (const Shard& shard : partition.shards) {
    EXPECT_TRUE(std::is_sorted(shard.nodes.begin(), shard.nodes.end()));
    EXPECT_EQ(std::adjacent_find(shard.nodes.begin(), shard.nodes.end()),
              shard.nodes.end());
    EXPECT_EQ(shard.graph.num_nodes(), shard.nodes.size());
    for (NodeId v : shard.nodes) EXPECT_LT(v, num_nodes);
    for (const HEdge& e : shard.graph.edges()) {
      for (NodeId v : e.att) ASSERT_LT(v, shard.nodes.size());
    }
  }
}

TEST(PartitionerTest, EdgeRangePreservesEveryEdgeWithEmptyCut) {
  GeneratedGraph gg = BarabasiAlbert(400, 3, 7);
  PartitionOptions options;
  options.num_shards = 5;
  auto partition = PartitionGraph(gg.graph, options);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();

  ASSERT_EQ(partition.value().shards.size(), 6u);  // 5 data + cut
  EXPECT_EQ(partition.value().num_cut_edges, 0u);
  EXPECT_EQ(partition.value().cut_shard().graph.num_edges(), 0u);
  CheckShardConsistency(partition.value(), gg.graph.num_nodes());
  EXPECT_EQ(GlobalEdges(partition.value()), CanonicalEdges(gg.graph));

  // Edge ranges are balanced to within one edge.
  uint32_t m = gg.graph.num_edges();
  for (int k = 0; k < 5; ++k) {
    uint32_t edges = partition.value().shards[k].graph.num_edges();
    EXPECT_GE(edges, m / 5);
    EXPECT_LE(edges, m / 5 + 1);
  }
}

TEST(PartitionerTest, HyperedgesFollowTheirAttachments) {
  Alphabet alphabet;
  alphabet.Add("e", 2);
  alphabet.Add("H", 3);
  Hypergraph g(9);
  for (NodeId v = 0; v + 1 < 9; ++v) g.AddSimpleEdge(v, v + 1, 0);
  g.AddEdge(1, {0, 4, 8});  // spans the whole graph
  PartitionOptions options;
  options.num_shards = 3;
  auto partition = PartitionGraph(g, options);
  ASSERT_TRUE(partition.ok());
  CheckShardConsistency(partition.value(), 9);
  EXPECT_EQ(GlobalEdges(partition.value()), CanonicalEdges(g));
  // The rank-3 edge is the last edge, so it lands whole in the last
  // data shard, whose node map holds all three of its attachments.
  const Shard& last = partition.value().shards[2];
  ASSERT_FALSE(last.graph.edges().empty());
  const HEdge& hyper = last.graph.edges().back();
  ASSERT_EQ(hyper.rank(), 3u);
  std::vector<NodeId> global;
  for (NodeId v : hyper.att) global.push_back(last.nodes[v]);
  EXPECT_EQ(global, (std::vector<NodeId>{0, 4, 8}));
}

TEST(PartitionerTest, SingleShardAndOvershardedGraphs) {
  GeneratedGraph gg = ErdosRenyi(20, 30, 3);
  PartitionOptions options;
  options.num_shards = 1;
  auto one = PartitionGraph(gg.graph, options);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(GlobalEdges(one.value()), CanonicalEdges(gg.graph));

  options.num_shards = 64;  // more shards than edges
  auto many = PartitionGraph(gg.graph, options);
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many.value().shards.size(), 65u);
  EXPECT_EQ(GlobalEdges(many.value()), CanonicalEdges(gg.graph));
}

TEST(PartitionerTest, RejectsBadInputs) {
  GeneratedGraph gg = ErdosRenyi(20, 30, 3);
  PartitionOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(PartitionGraph(gg.graph, options).ok());
  options.num_shards = (1 << 20) + 1;
  EXPECT_FALSE(PartitionGraph(gg.graph, options).ok());

  Hypergraph with_ext(4);
  with_ext.AddSimpleEdge(0, 1, 0);
  with_ext.SetExternal({0, 1});
  options.num_shards = 2;
  auto bad = PartitionGraph(with_ext, options);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionerTest, Deterministic) {
  GeneratedGraph gg = BarabasiAlbert(200, 4, 5);
  PartitionOptions options;
  options.num_shards = 6;
  auto a = PartitionGraph(gg.graph, options);
  auto b = PartitionGraph(gg.graph, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().shards.size(), b.value().shards.size());
  for (size_t i = 0; i < a.value().shards.size(); ++i) {
    EXPECT_EQ(a.value().shards[i].nodes, b.value().shards[i].nodes);
    EXPECT_TRUE(a.value().shards[i].graph == b.value().shards[i].graph);
  }
}

}  // namespace
}  // namespace shard
}  // namespace grepair
