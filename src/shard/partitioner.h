// Graph partitioning for sharded compression.
//
// PartitionGraph splits a Hypergraph's edges into `num_shards`
// contiguous index ranges (a vertex cut): a node appears in every shard
// whose edge range touches it. Partitioning is O(|E|), and because
// loaders and generators emit edges in node order, contiguous edge
// ranges keep the input's node order and its locality — the order
// gRePair compresses best on (a DBLP-style version graph splits almost
// exactly at version boundaries). One empty cut-edge shard follows the
// data shards, so the downstream ParallelCompressor and ShardedRep see
// K+1 shards; the GRSHARD2 layout keeps that row, and containers whose
// last shard holds edges still open and route like any other shard.
//
// Shard subgraphs are renumbered to compact local IDs (0..n_k-1); the
// sorted global-ID list `nodes` maps local back to global
// (local id == index into `nodes`). Renumbering is what makes
// sharding pay: per-shard node IDs are small again, so the inner
// codec's delta codes stay short.

#ifndef GREPAIR_SHARD_PARTITIONER_H_
#define GREPAIR_SHARD_PARTITIONER_H_

#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/status.h"

namespace grepair {
namespace shard {

/// \brief Upper bound on num_shards, shared by PartitionGraph, the
/// sharded container parser (which allows one extra cut shard), and
/// the CLI flag validation — one constant so they cannot drift.
inline constexpr int kMaxShards = 1 << 20;

struct PartitionOptions {
  int num_shards = 4;
};

/// \brief One shard: a compact-ID subgraph plus its global node list.
struct Shard {
  /// Sorted global node IDs; local node i is global nodes[i].
  std::vector<NodeId> nodes;
  /// Subgraph over local IDs (num_nodes() == nodes.size()).
  Hypergraph graph;
};

/// \brief A partition: num_shards data shards followed by the cut
/// shard (shards.back(), edgeless). Every input edge appears in exactly
/// one shard.
struct GraphPartition {
  uint32_t num_nodes = 0;  ///< global node count
  std::vector<Shard> shards;
  uint32_t num_cut_edges = 0;  ///< edges in the cut shard

  const Shard& cut_shard() const { return shards.back(); }
};

/// \brief Partitions `graph` per `options`. The graph must have no
/// external nodes (rank 0); num_shards must be in [1, 1 << 20].
/// Deterministic: equal inputs yield equal partitions.
Result<GraphPartition> PartitionGraph(const Hypergraph& graph,
                                      const PartitionOptions& options);

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_PARTITIONER_H_
