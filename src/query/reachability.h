// (s,t)-reachability over the grammar in time linear in |G|
// (Theorem 6).
//
// Construction computes, bottom-up, a *skeleton* per nonterminal: the
// reachability relation among the external nodes of its derived
// subgraph (the paper materializes skeleta as small graphs via SCC
// condensation; with rank <= maxRank the explicit relation is at most
// maxRank^2 bits per rule and the overall cost stays O(|G| * rank^2)).
// The start graph with every nonterminal edge replaced by its skeleton
// edges (S' in the paper) is materialized once, except for the terminal
// rank-2 edges a decoded grammar keeps in its start adjacency
// (start_adjacency.h): the start-level search reads those rows in
// place.
//
// A query locates both nodes' derivation paths, then propagates
// forward-reachable external positions up s's path and
// backward-reachable external positions up t's path, checking at every
// common ancestor level (innermost common rule first, then up to S')
// whether the forward set meets the backward set. This extends the
// paper's Case 2 — which climbs both nodes to S — to the case where
// both nodes live under the same start-graph edge and the meeting
// point is inside the shared subtree.
//
// Only rank-2 terminal edges induce direction; terminal hyperedges do
// not contribute paths (the theorem addresses simple graphs).

#ifndef GREPAIR_QUERY_REACHABILITY_H_
#define GREPAIR_QUERY_REACHABILITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/query/node_map.h"
#include "src/util/sync.h"

namespace grepair {

/// \brief Reachability oracle for val(G). Queries are safe to run
/// concurrently on a shared index; the lazily built per-rule
/// adjacency tables are mutex-guarded.
class ReachabilityIndex {
 public:
  explicit ReachabilityIndex(const SlhrGrammar& grammar);

  /// \brief True iff `to` is reachable from `from` in val(G) (ids in
  /// val(G) numbering; a node reaches itself).
  bool Reachable(uint64_t from, uint64_t to) const;

  const NodeMap& node_map() const { return node_map_; }

  /// \brief Skeleton relation of rule `j`: bit q of row p set iff
  /// external p reaches external q inside the derived subgraph.
  const std::vector<uint64_t>& skeleton(uint32_t j) const {
    return skeletons_[j];
  }

  /// \brief Per-(rule, direction) expanded adjacencies memoized so far
  /// (each was previously rebuilt on every query touching its level).
  uint64_t memo_entries() const {
    return memo_entries_.load(std::memory_order_relaxed);
  }

  /// \brief Query levels answered from a memoized adjacency.
  uint64_t memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }

 private:
  // Adjacency of a host graph with nonterminal edges expanded to their
  // skeleton edges (edges among the host's nodes only).
  std::vector<std::vector<NodeId>> ExpandedAdjacency(const Hypergraph& g,
                                                     bool reverse) const;

  // Memoized ExpandedAdjacency of rule `label`'s rhs: built on first
  // use, immutable afterwards, reused by every later query climbing
  // through that rule (build-once; reps are immutable so it is never
  // invalidated).
  const std::vector<std::vector<NodeId>>& LevelAdjacency(Label label,
                                                         bool reverse) const
      GREPAIR_LOCKS_EXCLUDED(memo_mutex_);

  const SlhrGrammar* grammar_;
  NodeMap node_map_;
  std::vector<std::vector<uint64_t>> skeletons_;  // per rule: rank rows
  // S' adjacency over start() (without the start adjacency's edges).
  std::vector<std::vector<NodeId>> start_fwd_;
  std::vector<std::vector<NodeId>> start_bwd_;    // reversed

  // Slot [2 * rule + reverse]; null until built. The mutex guards slot
  // installation; the pointed-to adjacency never changes after that.
  // Shared mutex: warm-path reads from concurrent queries share the
  // lock; only the one-time builds are exclusive.
  mutable SharedMutex memo_mutex_;
  mutable std::vector<std::unique_ptr<const std::vector<std::vector<NodeId>>>>
      rule_adj_ GREPAIR_GUARDED_BY(memo_mutex_);
  mutable std::atomic<uint64_t> memo_entries_{0};
  mutable std::atomic<uint64_t> memo_hits_{0};
};

}  // namespace grepair

#endif  // GREPAIR_QUERY_REACHABILITY_H_
