// Neighborhood queries over the grammar (Proposition 4), memoized.
//
// Computes the in/out neighbors of a val(G) node without materializing
// the graph: locate the node's G-representation, scan the edges of the
// right-hand side it lives in, resolve external endpoints by climbing
// toward the start graph, and resolve endpoints hidden behind
// nonterminal edges via per-rule *memo tables* (the paper's
// getNeighboring, precomputed per nonterminal as in Maneth & Peternek,
// arXiv:1704.05254). The table for (rule A, external position p,
// direction) lists the neighbors of ext node p inside val(A) in
// instance-relative form — either another external position of A or a
// derivation-path suffix below A — so a query resolves each
// nonterminal incident edge with one table lookup instead of a
// recursive descent. Tables are built lazily on first use, shared by
// all subsequent queries, and never invalidated (grammars are
// immutable); total table size is bounded by the neighbor sets of the
// rules' external nodes, the same tradeoff the paper's precomputed
// tables make. First-touch cost matches the old recursive walk; every
// repeat is O(answer * h) path arithmetic.
//
// Only rank-2 terminal edges define direction (att[0] -> att[1]); the
// input graphs of the paper are simple, and nonterminal hyperedges are
// traversed transparently.

#ifndef GREPAIR_QUERY_NEIGHBORHOOD_H_
#define GREPAIR_QUERY_NEIGHBORHOOD_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/query/node_map.h"
#include "src/util/sync.h"

namespace grepair {

/// \brief Neighbor query engine bound to one grammar.
///
/// Construction precomputes a flat incidence index (Hypergraph::
/// BuildIncidence: one offsets array and one edge-id array, two
/// allocations per graph) for the start graph's start() part and every
/// right-hand side (O(|G|)), so a query touches only the edges
/// actually incident with the nodes along its derivation path. The
/// start graph's terminal rank-2 edges need no index: a decoded
/// grammar holds them as a two-way CSR (start_adjacency.h), and a
/// start node's answer reads its row there. Building the index is most
/// of a cold shard's first grammar-direct query, so it allocates per
/// graph, not per node.
/// Queries are safe to run concurrently on a shared index; the lazy
/// memo tables are mutex-guarded.
class NeighborhoodIndex {
 public:
  explicit NeighborhoodIndex(const SlhrGrammar& grammar);

  const NodeMap& node_map() const { return node_map_; }

  /// \brief N+(id): targets of terminal edges with source `id`
  /// (sorted, deduplicated).
  std::vector<uint64_t> OutNeighbors(uint64_t id) const {
    return NeighborsImpl(id, /*out=*/true);
  }

  /// \brief N-(id): sources of terminal edges with target `id`.
  std::vector<uint64_t> InNeighbors(uint64_t id) const {
    return NeighborsImpl(id, /*out=*/false);
  }

  /// \brief Memo-table entries built so far (one per distinct
  /// (rule, ext position, direction) touched by queries).
  uint64_t memo_entries() const {
    return memo_entries_.load(std::memory_order_relaxed);
  }

  /// \brief Nonterminal-edge resolutions answered from an existing
  /// memo entry (vs. `memo_entries()` builds).
  uint64_t memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }

  /// \brief One memoized neighbor of a rule's external node, relative
  /// to an instance of that rule. Either another external position
  /// (`ext_pos != kNotExternal`) or an internal derived node addressed
  /// by rhs-edge steps below the instance plus the node id in the
  /// final right-hand side.
  struct RelNeighbor {
    static constexpr uint32_t kNotExternal = ~0u;
    uint32_t ext_pos = kNotExternal;
    std::vector<uint32_t> steps;
    NodeId node = kInvalidNode;
  };

  /// \brief Memo lookup-or-build for (nonterminal `label`, ext
  /// position `pos`, direction). Returned reference stays valid for
  /// the index's lifetime (entries are never removed or mutated once
  /// built). Exposed for the query walker; not a user entry point.
  const std::vector<RelNeighbor>& DescendMemo(Label label, uint32_t pos,
                                              bool out) const
      GREPAIR_LOCKS_EXCLUDED(memo_mutex_);

 private:
  std::vector<uint64_t> NeighborsImpl(uint64_t id, bool out) const;

  const std::vector<RelNeighbor>& DescendMemoLocked(Label label,
                                                    uint32_t pos,
                                                    bool out) const
      GREPAIR_REQUIRES(memo_mutex_);

  NodeMap node_map_;
  /// incidence_[0] covers start(), the start graph without its start
  /// adjacency; incidence_[1 + j] covers rule j.
  std::vector<Incidence> incidence_;

  /// Memo tables, keyed by (rule index, ext position, direction).
  /// Values are immutable once inserted; the mutex guards map access
  /// only (unordered_map never invalidates value references). Shared
  /// mutex: warm-path lookups from concurrent queries take the shared
  /// side and do not serialize each other; only builds are exclusive.
  mutable SharedMutex memo_mutex_;
  mutable std::unordered_map<uint64_t, std::vector<RelNeighbor>> memo_
      GREPAIR_GUARDED_BY(memo_mutex_);
  mutable std::atomic<uint64_t> memo_entries_{0};
  mutable std::atomic<uint64_t> memo_hits_{0};
};

}  // namespace grepair

#endif  // GREPAIR_QUERY_NEIGHBORHOOD_H_
