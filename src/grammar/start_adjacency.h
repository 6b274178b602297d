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
// row v is sources_[in_off_[v], in_off_[v + 1]), ascending. The rows'
// lengths come from the decoder: its k^2 walk counts each row's and
// column's cells at the leaf level (K2Tree::Degrees) and its dup
// patches add their copies, so Build starts from the degrees and runs
// no counting pass of its own. It turns them into offsets in place and
// fills the rows by stable counting sorts, with no comparison sort.
// Within a row a section's keys already ascend by column, and within a
// column by row (Z-order and row-major both do), so:
//   * one label, like every dblp shard's, takes one pass over its keys
//     that appends each edge to its out row and its in row at once,
//     and stores no per-edge label;
//   * more labels take three: (1) by column over the sections in label
//     order, so in row v comes out sorted by (label, source); (2) by
//     row over the in rows in column order, so out row u comes out
//     sorted by (target, label); (3) by column over the out rows, so
//     in rows ascend by source.
// The first pass over the keys also rejects a cell on the diagonal.
// On the read corpus's 16 shards (rdtsc, 4-vCPU Xeon) Build took 18% of
// DecodeGrammar's cycles with its own counting pass and two passes
// over the edges, and takes 12% with the walk's counts and one pass.

#ifndef GREPAIR_GRAMMAR_START_ADJACENCY_H_
#define GREPAIR_GRAMMAR_START_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/status.h"
#include "src/util/uninitialized.h"

namespace grepair {

/// \brief Immutable out- and in-adjacency of a start graph's terminal
/// rank-2 edges (see the top of this file).
class StartAdjacency {
 public:
  /// \brief One terminal rank-2 label's distinct cells: the packed
  /// `row << 32 | col` keys [begin, end) of the array Build is given,
  /// ascending by row within each column. `copies[i]`, when given, is
  /// key begin + i's edge count (parallel edges); without it every key
  /// is one edge.
  struct Section {
    Label label = 0;
    size_t begin = 0;
    size_t end = 0;
    std::vector<uint32_t> copies;
  };

  /// \brief Edges per start node, which Build turns into the offsets in
  /// place: node v's out-degree is out[v + 2] and its in-degree in[v +
  /// 2], num_nodes + 2 entries each: K2Tree::Degrees, limited to
  /// num_nodes, counts into out + 2 and in + 2.
  struct Degrees {
    explicit Degrees(uint32_t num_nodes)
        : out(size_t{num_nodes} + 2, 0), in(size_t{num_nodes} + 2, 0) {}
    std::vector<uint32_t> out;
    std::vector<uint32_t> in;
  };

  StartAdjacency() = default;

  /// \brief The CSR of `sections`, given in ascending label order, over
  /// `num_nodes` start nodes, with `degrees` counting every section's
  /// edges. The keys must lie below num_nodes and `degrees` must count
  /// them, copies included: K2Tree::DecodeCells with Degrees limited to
  /// num_nodes guarantees both, and DecodeGrammar is the one caller. A
  /// cell on the diagonal, or more edges than 32-bit offsets hold, is
  /// Corruption.
  static Result<StartAdjacency> Build(uint32_t num_nodes,
                                      const uint64_t* keys,
                                      const std::vector<Section>& sections,
                                      Degrees degrees);

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
                   const UninitializedVector<NodeId>& data, NodeId v) {
    // A grammar built by the compressor holds no CSR: every row empty.
    if (size_t{v} + 1 >= off.size()) return {};
    return {data.data() + off[v], data.data() + off[v + 1]};
  }

  std::vector<uint32_t> out_off_;  ///< num_nodes + 1 entries, or none
  // The rows are sized by the edge count and then filled, every slot.
  UninitializedVector<NodeId> targets_;
  /// Parallel to targets_; empty when every edge has single_label_.
  UninitializedVector<Label> labels_;
  Label single_label_ = 0;
  std::vector<uint32_t> in_off_;
  UninitializedVector<NodeId> sources_;
};

}  // namespace grepair

#endif  // GREPAIR_GRAMMAR_START_ADJACENCY_H_
