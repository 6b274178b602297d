#include "src/shard/partitioner.h"

#include <algorithm>
#include <cstring>
#include <queue>

namespace grepair {
namespace shard {

namespace {

// Builds one shard from the edges selected for it: collects the
// attached global nodes, renumbers them compactly, and rewrites the
// edges over local IDs. `owned_nodes` (optional, sorted) forces extra
// nodes into the shard even when no selected edge touches them — the
// edge-cut strategy uses it so every node is materialized in its
// owning shard.
Shard BuildShard(const Hypergraph& graph,
                 const std::vector<EdgeId>& edge_ids,
                 std::vector<NodeId> owned_nodes = {}) {
  Shard shard;
  shard.nodes = std::move(owned_nodes);
  for (EdgeId e : edge_ids) {
    const HEdge& edge = graph.edge(e);
    shard.nodes.insert(shard.nodes.end(), edge.att.begin(), edge.att.end());
  }
  std::sort(shard.nodes.begin(), shard.nodes.end());
  shard.nodes.erase(std::unique(shard.nodes.begin(), shard.nodes.end()),
                    shard.nodes.end());
  shard.graph = Hypergraph(static_cast<uint32_t>(shard.nodes.size()));
  shard.graph.ReserveEdges(edge_ids.size());
  for (EdgeId e : edge_ids) {
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

GraphPartition PartitionByEdgeRange(const Hypergraph& graph, int num_shards) {
  GraphPartition partition;
  partition.num_nodes = graph.num_nodes();
  uint64_t m = graph.num_edges();
  for (int k = 0; k < num_shards; ++k) {
    uint64_t lo = m * k / num_shards;
    uint64_t hi = m * (k + 1) / num_shards;
    std::vector<EdgeId> edge_ids;
    edge_ids.reserve(hi - lo);
    for (uint64_t e = lo; e < hi; ++e) {
      edge_ids.push_back(static_cast<EdgeId>(e));
    }
    partition.shards.push_back(BuildShard(graph, edge_ids));
  }
  partition.shards.push_back(Shard{});  // empty cut shard
  return partition;
}

GraphPartition PartitionByGreedyBfs(const Hypergraph& graph, int num_shards) {
  uint32_t n = graph.num_nodes();
  // Region capacity ceil(n / num_shards); grow regions by BFS from the
  // lowest unvisited node so the assignment is deterministic.
  uint32_t cap = num_shards > 0
                     ? (n + static_cast<uint32_t>(num_shards) - 1) /
                           static_cast<uint32_t>(num_shards)
                     : n;
  if (cap == 0) cap = 1;
  auto incidence = graph.BuildIncidence();
  std::vector<int> region(n, -1);
  int current = 0;
  uint32_t current_fill = 0;
  std::queue<NodeId> frontier;
  for (NodeId seed = 0; seed < n; ++seed) {
    if (region[seed] != -1) continue;
    frontier.push(seed);
    region[seed] = current;
    ++current_fill;
    while (!frontier.empty()) {
      NodeId v = frontier.front();
      frontier.pop();
      for (EdgeId e : incidence[v]) {
        for (NodeId u : graph.edge(e).att) {
          if (region[u] != -1) continue;
          if (current_fill >= cap && current + 1 < num_shards) {
            // Region full: remaining frontier nodes keep their region,
            // but new nodes start filling the next one.
            ++current;
            current_fill = 0;
          }
          region[u] = current;
          ++current_fill;
          frontier.push(u);
        }
      }
    }
    if (current_fill >= cap && current + 1 < num_shards) {
      ++current;
      current_fill = 0;
    }
  }

  std::vector<std::vector<EdgeId>> shard_edges(num_shards);
  std::vector<EdgeId> cut_edges;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const HEdge& edge = graph.edge(e);
    int r = edge.att.empty() ? 0 : region[edge.att[0]];
    bool internal = true;
    for (NodeId v : edge.att) {
      if (region[v] != r) {
        internal = false;
        break;
      }
    }
    if (internal) {
      shard_edges[r].push_back(e);
    } else {
      cut_edges.push_back(e);
    }
  }

  std::vector<std::vector<NodeId>> owned(num_shards);
  for (NodeId v = 0; v < n; ++v) {
    owned[region[v]].push_back(v);  // ascending v => sorted lists
  }

  GraphPartition partition;
  partition.num_nodes = n;
  for (int k = 0; k < num_shards; ++k) {
    partition.shards.push_back(
        BuildShard(graph, shard_edges[k], std::move(owned[k])));
  }
  partition.num_cut_edges = static_cast<uint32_t>(cut_edges.size());
  partition.shards.push_back(BuildShard(graph, cut_edges));
  return partition;
}

}  // namespace

bool ParsePartitionStrategy(const std::string& name, PartitionStrategy* out) {
  if (name == "edge-range") {
    *out = PartitionStrategy::kEdgeRange;
    return true;
  }
  if (name == "bfs") {
    *out = PartitionStrategy::kGreedyBfs;
    return true;
  }
  return false;
}

const char* PartitionStrategyName(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kEdgeRange: return "edge-range";
    case PartitionStrategy::kGreedyBfs: return "bfs";
  }
  return "?";
}

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
  switch (options.strategy) {
    case PartitionStrategy::kEdgeRange:
      return PartitionByEdgeRange(graph, options.num_shards);
    case PartitionStrategy::kGreedyBfs:
      return PartitionByGreedyBfs(graph, options.num_shards);
  }
  return Status::InvalidArgument("unknown partition strategy");
}

}  // namespace shard
}  // namespace grepair
