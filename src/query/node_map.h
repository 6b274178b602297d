// G-representations: mapping between val(G) node IDs and derivation
// paths (Section V).
//
// The derived graph's node IDs follow the deterministic layout of
// derivation.h: start-graph nodes first, then one contiguous block per
// start-graph nonterminal edge, each block laid out depth-first (rule
// internals first, then the child blocks in rhs edge order). A
// G-representation ("GPath") addresses a node by the start edge, the
// chain of nonterminal rhs-edge indices, and the node inside the final
// right-hand side. The block bases are plain sorted 32-bit prefix
// arrays (one for the start graph, one flat array for every rule's
// child blocks), so each descent step in PathOf is one
// std::upper_bound and IdOf runs in O(h) (Section V's getID).

#ifndef GREPAIR_QUERY_NODE_MAP_H_
#define GREPAIR_QUERY_NODE_MAP_H_

#include <cstdint>
#include <vector>

#include "src/grammar/derivation.h"
#include "src/grammar/grammar.h"

namespace grepair {

/// \brief Derivation path of one val(G) node.
struct GPath {
  /// Start-graph edge the node is derived under; kInvalidEdge when the
  /// node is a start-graph node (then `node` is its start-graph id).
  EdgeId start_edge = kInvalidEdge;
  /// Rhs edge indices of the nonterminal edges followed, outermost
  /// first. Each index is into the corresponding rhs's edge list.
  std::vector<uint32_t> steps;
  /// Node id within the innermost rhs (internal node) or within S.
  NodeId node = kInvalidNode;

  bool operator==(const GPath& o) const {
    return start_edge == o.start_edge && steps == o.steps && node == o.node;
  }
};

/// \brief Precomputed index for PathOf/IdOf on one grammar.
class NodeMap {
 public:
  /// \brief Indexes `grammar`, which must outlive the map. Its val(G)
  /// must have at most kMaxValNodes nodes (CompressedGraph checks this
  /// at load), so every block base fits a 32-bit entry.
  explicit NodeMap(const SlhrGrammar& grammar);

  const SlhrGrammar& grammar() const { return *grammar_; }

  /// \brief Total nodes of val(G).
  uint64_t num_nodes() const { return total_nodes_; }

  /// \brief Derivation path of node `id` (must be < num_nodes()).
  GPath PathOf(uint64_t id) const;

  /// \brief Inverse of PathOf.
  uint64_t IdOf(const GPath& path) const;

 private:
  const SlhrGrammar* grammar_;
  uint64_t total_nodes_ = 0;
  /// Start edges before this one are all terminal. In canonical
  /// start-edge order (nonterminal labels sort last) the edges from
  /// here on are exactly the nonterminal ones.
  EdgeId first_block_edge_ = 0;
  /// start_base_[i]: first id derived under start edge
  /// first_block_edge_ + i (|V_S| plus all earlier blocks). A terminal
  /// edge's block is empty, so it repeats its successor's base.
  std::vector<uint32_t> start_base_;
  /// Rule j's entries are child_base_[rule_begin_[j], rule_begin_[j+1]),
  /// one per rhs edge: the offset of that edge's child block after the
  /// rule's own internal nodes.
  std::vector<uint32_t> rule_begin_;
  std::vector<uint32_t> child_base_;
};

}  // namespace grepair

#endif  // GREPAIR_QUERY_NODE_MAP_H_
