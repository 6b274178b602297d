// Terminal rank-2 start edges as an immutable two-way CSR.
//
// Most of a decoded grammar's start graph is terminal rank-2 edges: in
// the read corpus's 16 shards, 118,704 of 136,459. DecodeGrammar does
// not copy them into 32-byte HEdges. It writes them here, straight
// from each label's k^2-tree level walk, and SlhrGrammar::start() keeps
// only the other edges: nonterminal edges and terminal edges of rank
// other than 2. Terminal edges create no val(G) nodes, so the derived
// node ids (derivation.h, node_map.h) are the same either way.
//
// Layout, for n start nodes and E edges (parallel edges counted once
// per copy): out row u is targets_[out_off_[u], out_off_[u + 1]),
// sorted by (target, label), with the labels in a parallel array; in
// row v is sources_[in_off_[v], in_off_[v + 1]), ascending. Both are
// filled by stable counting sorts, with no comparison sort:
//   1. by column, over the label sections in label order: within a
//      column, a section's keys already ascend by row (Z-order and
//      row-major both do), so in row v comes out sorted by (label,
//      source);
//   2. by row, over the in rows in column order: out row u comes out
//      sorted by (target, label);
//   3. with more than one label, once more by column over the out rows,
//      so in rows ascend by source. One label skips it: pass 1 already
//      sorted them.
// A grammar with one terminal rank-2 label, like every dblp shard,
// stores no per-edge label.

#ifndef GREPAIR_GRAMMAR_START_ADJACENCY_H_
#define GREPAIR_GRAMMAR_START_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Immutable out- and in-adjacency of a start graph's terminal
/// rank-2 edges (see the top of this file).
class StartAdjacency {
 public:
  /// \brief One terminal rank-2 label's distinct cells as packed
  /// `row << 32 | col` keys, ascending by row within each column.
  /// `copies[i]`, when given, is key i's edge count (parallel edges);
  /// without it every key is one edge.
  struct Section {
    Label label = 0;
    std::vector<uint64_t> keys;
    std::vector<uint32_t> copies;
  };

  StartAdjacency() = default;

  /// \brief The CSR of `sections`, given in ascending label order, over
  /// `num_nodes` start nodes. Treats the keys as untrusted: a cell
  /// outside the node range, a cell on the diagonal, or more edges than
  /// 32-bit offsets hold is Corruption.
  static Result<StartAdjacency> Build(uint32_t num_nodes,
                                      const std::vector<Section>& sections);

  /// \brief One node's neighbors.
  struct Row {
    const NodeId* first = nullptr;
    const NodeId* last = nullptr;
    const NodeId* begin() const { return first; }
    const NodeId* end() const { return last; }
  };

  /// \brief Targets of u's edges, sorted, one entry per edge.
  Row Targets(NodeId u) const { return RowOf(out_off_, targets_, u); }

  /// \brief Sources of v's edges, sorted, one entry per edge.
  Row Sources(NodeId v) const { return RowOf(in_off_, sources_, v); }

  uint64_t num_edges() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }

  /// \brief Every edge as a packed `u << 32 | v` key, grouped by label:
  /// label l's keys are keys[begin[l], begin[l + 1]) for l below
  /// begin.size() - 1, in canonical (u, v) order with parallel edges
  /// adjacent. This is the order EncodeGrammar writes and Derive emits.
  struct LabelGroups {
    std::vector<uint64_t> begin;
    std::vector<uint64_t> keys;
  };
  LabelGroups GroupByLabel() const;

 private:
  static Row RowOf(const std::vector<uint32_t>& off,
                   const std::vector<NodeId>& data, NodeId v) {
    // A grammar built by the compressor holds no CSR: every row empty.
    if (size_t{v} + 1 >= off.size()) return {};
    return {data.data() + off[v], data.data() + off[v + 1]};
  }

  std::vector<uint32_t> out_off_;  ///< num_nodes + 1 entries, or none
  std::vector<NodeId> targets_;
  /// Parallel to targets_; empty when every edge has single_label_.
  std::vector<Label> labels_;
  Label single_label_ = 0;
  std::vector<uint32_t> in_off_;
  std::vector<NodeId> sources_;
};

}  // namespace grepair

#endif  // GREPAIR_GRAMMAR_START_ADJACENCY_H_
