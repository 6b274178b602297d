#include "src/shard/partitioner.h"

#include <algorithm>

namespace grepair {
namespace shard {

namespace {

// Builds one shard from the edges [lo, hi): collects the attached
// global nodes, renumbers them compactly, and rewrites the edges over
// local IDs.
Shard BuildShard(const Hypergraph& graph, EdgeId lo, EdgeId hi) {
  Shard shard;
  for (EdgeId e = lo; e < hi; ++e) {
    const HEdge& edge = graph.edge(e);
    shard.nodes.insert(shard.nodes.end(), edge.att.begin(), edge.att.end());
  }
  std::sort(shard.nodes.begin(), shard.nodes.end());
  shard.nodes.erase(std::unique(shard.nodes.begin(), shard.nodes.end()),
                    shard.nodes.end());
  shard.graph = Hypergraph(static_cast<uint32_t>(shard.nodes.size()));
  shard.graph.ReserveEdges(hi - lo);
  for (EdgeId e = lo; e < hi; ++e) {
    const HEdge& edge = graph.edge(e);
    Attachments att = edge.att;
    for (NodeId& v : att) {
      auto it = std::lower_bound(shard.nodes.begin(), shard.nodes.end(), v);
      v = static_cast<NodeId>(it - shard.nodes.begin());
    }
    shard.graph.AddEdge(edge.label, std::move(att));
  }
  return shard;
}

}  // namespace

Result<GraphPartition> PartitionGraph(const Hypergraph& graph,
                                      const PartitionOptions& options) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards " + std::to_string(options.num_shards) +
        " out of range [1, " + std::to_string(kMaxShards) + "]");
  }
  if (!graph.ext().empty()) {
    return Status::InvalidArgument(
        "cannot partition a graph with external nodes");
  }
  GraphPartition partition;
  partition.num_nodes = graph.num_nodes();
  uint64_t m = graph.num_edges();
  uint64_t k_total = static_cast<uint64_t>(options.num_shards);
  for (uint64_t k = 0; k < k_total; ++k) {
    partition.shards.push_back(
        BuildShard(graph, static_cast<EdgeId>(m * k / k_total),
                   static_cast<EdgeId>(m * (k + 1) / k_total)));
  }
  partition.shards.push_back(Shard{});  // empty cut shard
  return partition;
}

}  // namespace shard
}  // namespace grepair
