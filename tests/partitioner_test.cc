// Partitioner invariants: every input edge lands in exactly one
// shard, node maps are sorted/compact/consistent with the local
// subgraphs, the BFS strategy balances regions and isolates cut
// edges, and partitioning is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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
  options.strategy = PartitionStrategy::kEdgeRange;
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

TEST(PartitionerTest, GreedyBfsOwnsEveryNodeOnceAndIsolatesCutEdges) {
  GeneratedGraph gg = CoAuthorship(300, 300, 11);
  PartitionOptions options;
  options.num_shards = 4;
  options.strategy = PartitionStrategy::kGreedyBfs;
  auto partition = PartitionGraph(gg.graph, options);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();

  ASSERT_EQ(partition.value().shards.size(), 5u);
  CheckShardConsistency(partition.value(), gg.graph.num_nodes());
  EXPECT_EQ(GlobalEdges(partition.value()), CanonicalEdges(gg.graph));
  EXPECT_EQ(partition.value().cut_shard().graph.num_edges(),
            partition.value().num_cut_edges);

  // Every node is owned by exactly one data shard, and all data
  // regions except the last respect the capacity cap.
  uint32_t cap = (gg.graph.num_nodes() + 3) / 4;
  std::map<NodeId, int> owner_count;
  for (int k = 0; k < 4; ++k) {
    const Shard& shard = partition.value().shards[k];
    EXPECT_LE(shard.nodes.size(), static_cast<size_t>(cap) + 1) << k;
    for (NodeId v : shard.nodes) owner_count[v]++;
  }
  ASSERT_EQ(owner_count.size(), gg.graph.num_nodes());
  for (const auto& [node, count] : owner_count) {
    EXPECT_EQ(count, 1) << "node " << node << " owned by " << count
                        << " shards";
  }

  // An internal edge's endpoints all live in its shard's node map, by
  // construction; a cut edge's endpoints span at least two owners.
  const Shard& cut = partition.value().cut_shard();
  for (const HEdge& e : cut.graph.edges()) {
    std::vector<NodeId> global;
    for (NodeId v : e.att) global.push_back(cut.nodes[v]);
    int first_owner = -1;
    bool spans = false;
    for (NodeId v : global) {
      for (int k = 0; k < 4; ++k) {
        const auto& nodes = partition.value().shards[k].nodes;
        if (std::binary_search(nodes.begin(), nodes.end(), v)) {
          if (first_owner == -1) first_owner = k;
          if (k != first_owner) spans = true;
        }
      }
    }
    EXPECT_TRUE(spans);
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
  options.strategy = PartitionStrategy::kGreedyBfs;
  auto partition = PartitionGraph(g, options);
  ASSERT_TRUE(partition.ok());
  CheckShardConsistency(partition.value(), 9);
  EXPECT_EQ(GlobalEdges(partition.value()), CanonicalEdges(g));
  // The rank-3 edge cannot be internal to any 3-node region.
  bool found = false;
  for (const HEdge& e : partition.value().cut_shard().graph.edges()) {
    if (e.rank() == 3) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PartitionerTest, SingleShardAndOvershardedGraphs) {
  GeneratedGraph gg = ErdosRenyi(20, 30, 3);
  for (auto strategy :
       {PartitionStrategy::kEdgeRange, PartitionStrategy::kGreedyBfs}) {
    PartitionOptions options;
    options.strategy = strategy;
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
  for (auto strategy :
       {PartitionStrategy::kEdgeRange, PartitionStrategy::kGreedyBfs}) {
    PartitionOptions options;
    options.num_shards = 6;
    options.strategy = strategy;
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
}

TEST(PartitionerTest, StrategyNamesRoundTrip) {
  PartitionStrategy s;
  ASSERT_TRUE(ParsePartitionStrategy("edge-range", &s));
  EXPECT_EQ(s, PartitionStrategy::kEdgeRange);
  ASSERT_TRUE(ParsePartitionStrategy("bfs", &s));
  EXPECT_EQ(s, PartitionStrategy::kGreedyBfs);
  EXPECT_FALSE(ParsePartitionStrategy("metis", &s));
  EXPECT_STREQ(PartitionStrategyName(PartitionStrategy::kEdgeRange),
               "edge-range");
  EXPECT_STREQ(PartitionStrategyName(PartitionStrategy::kGreedyBfs), "bfs");
}

}  // namespace
}  // namespace shard
}  // namespace grepair
