// Directed edge-labeled hypergraphs (Section II of the paper).
//
// A hypergraph g = (V, E, att, lab, ext) over a ranked alphabet:
//   * V = {0, .., n-1}  (the paper uses 1-based IDs; we are 0-based
//     internally and shift by one at serialization boundaries),
//   * att : E -> V*  assigns each edge its sequence of attached nodes,
//   * lab : E -> Sigma, with |att(e)| == rank(lab(e)),
//   * ext in V*  is the sequence of external nodes (empty for start
//     graphs and for plain data graphs).
//
// The paper's restrictions are enforced by Validate():
//   (1) att(e) contains no node twice (no self-loops on simple edges),
//   (2) ext contains no node twice,
//   (3) node IDs are contiguous.
//
// Size metrics follow the paper exactly: |g|_V = |V|; |g|_E counts 1 per
// edge of rank <= 2 and rank(e) per hyperedge of rank > 2; |g| is the sum.

#ifndef GREPAIR_GRAPH_HYPERGRAPH_H_
#define GREPAIR_GRAPH_HYPERGRAPH_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace grepair {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using Label = uint32_t;

inline constexpr NodeId kInvalidNode = ~0u;
inline constexpr EdgeId kInvalidEdge = ~0u;
inline constexpr Label kInvalidLabel = ~0u;

/// \brief Ranked alphabet: every label has a rank (attachment arity) >= 1
/// and an optional human-readable name.
class Alphabet {
 public:
  Alphabet() = default;

  /// \brief Adds a label with the given rank; returns its id.
  Label Add(std::string name, int rank);

  /// \brief Adds `count` anonymous rank-2 labels (convenience for simple
  /// edge-labeled graphs); returns the first id.
  Label AddSimpleLabels(int count);

  int rank(Label l) const { return ranks_[l]; }
  const std::string& name(Label l) const { return names_[l]; }
  size_t size() const { return ranks_.size(); }

  bool operator==(const Alphabet& other) const {
    return ranks_ == other.ranks_;
  }

 private:
  std::vector<uint8_t> ranks_;
  std::vector<std::string> names_;
};

/// \brief One (hyper)edge: label plus attachment sequence.
struct HEdge {
  Label label = kInvalidLabel;
  std::vector<NodeId> att;

  int rank() const { return static_cast<int>(att.size()); }
  bool operator==(const HEdge& other) const {
    return label == other.label && att == other.att;
  }
};

/// \brief Directed edge-labeled hypergraph with external-node sequence.
class Hypergraph {
 public:
  Hypergraph() = default;
  explicit Hypergraph(uint32_t num_nodes) : num_nodes_(num_nodes) {}

  /// \brief Appends a fresh node and returns its id.
  NodeId AddNode() { return num_nodes_++; }

  /// \brief Appends `count` fresh nodes; returns the first id.
  NodeId AddNodes(uint32_t count) {
    NodeId first = num_nodes_;
    num_nodes_ += count;
    return first;
  }

  /// \brief Appends an edge; attachment nodes must already exist.
  EdgeId AddEdge(Label label, std::vector<NodeId> att);

  /// \brief Convenience for a rank-2 edge u -> v.
  EdgeId AddSimpleEdge(NodeId u, NodeId v, Label label) {
    return AddEdge(label, {u, v});
  }

  /// \brief Sets the external-node sequence.
  void SetExternal(std::vector<NodeId> ext) { ext_ = std::move(ext); }

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t num_edges() const { return static_cast<uint32_t>(edges_.size()); }
  const std::vector<HEdge>& edges() const { return edges_; }
  const HEdge& edge(EdgeId e) const { return edges_[e]; }
  HEdge& mutable_edge(EdgeId e) { return edges_[e]; }
  const std::vector<NodeId>& ext() const { return ext_; }

  /// \brief rank(g) = number of external nodes.
  int rank() const { return static_cast<int>(ext_.size()); }

  /// \brief |g|_V.
  uint64_t NodeSize() const { return num_nodes_; }

  /// \brief |g|_E: 1 per rank<=2 edge, rank(e) per hyperedge.
  uint64_t EdgeSize() const;

  /// \brief |g| = |g|_V + |g|_E.
  uint64_t TotalSize() const { return NodeSize() + EdgeSize(); }

  /// \brief True if every node is external.
  bool AllNodesExternal() const { return ext_.size() == num_nodes_; }

  /// \brief Checks the paper's hypergraph restrictions against `alphabet`:
  /// edge ranks match label ranks, no duplicate nodes in att or ext, all
  /// referenced nodes exist.
  Status Validate(const Alphabet& alphabet) const;

  /// \brief True if the graph is simple: all edges rank 2 and no two edges
  /// share both attachment sequence and label.
  bool IsSimple() const;

  /// \brief Replaces the whole edge list (used by rule inlining, which
  /// splices copies of a right-hand side in place of nonterminal edges).
  void SetEdges(std::vector<HEdge> edges) { edges_ = std::move(edges); }

  /// \brief Moves the edge list out (leaves the graph edgeless);
  /// pairs with SetEdges for alloc-free edge-list surgery.
  std::vector<HEdge> TakeEdges() { return std::move(edges_); }

  /// \brief Removes edges matching `pred(edge)`; node set unchanged.
  template <typename Pred>
  void RemoveEdgesIf(Pred pred) {
    std::vector<HEdge> kept;
    kept.reserve(edges_.size());
    for (auto& e : edges_) {
      if (!pred(e)) kept.push_back(std::move(e));
    }
    edges_ = std::move(kept);
  }

  /// \brief Equality up to edge order (labels, attachments, ext, |V|).
  bool EqualUpToEdgeOrder(const Hypergraph& other) const;

  /// \brief Exact structural equality including edge order.
  bool operator==(const Hypergraph& other) const {
    return num_nodes_ == other.num_nodes_ && ext_ == other.ext_ &&
           edges_ == other.edges_;
  }

  /// \brief Per-node list of incident edge ids (each edge listed once per
  /// distinct attached node; attachments never repeat a node).
  std::vector<std::vector<EdgeId>> BuildIncidence() const;

  /// \brief Degree (number of incident edges) per node.
  std::vector<uint32_t> Degrees() const;

  /// \brief Debug rendering ("n=4 ext=[0 1] edges: a(0,1) A(1,2,3) ...").
  std::string ToString(const Alphabet* alphabet = nullptr) const;

 private:
  uint32_t num_nodes_ = 0;
  std::vector<HEdge> edges_;
  std::vector<NodeId> ext_;
};

/// \brief Builds a simple directed graph from (u, v, label) triples,
/// dropping self-loops and duplicate triples (the paper's model excludes
/// both; loaders and generators funnel through here).
Hypergraph BuildSimpleGraph(uint32_t num_nodes,
                            std::vector<std::array<uint32_t, 3>> triples);

/// \brief Minimal alphabet covering the labels of `g`, for graphs
/// whose alphabet was not stored (codec payloads carry no label names
/// or ranks): labels 0..max named "l<id>", each ranked by the first
/// edge that carries it. Unobserved labels get rank 2, and an edgeless
/// graph gets a single rank-2 label.
Alphabet InferAlphabet(const Hypergraph& g);

}  // namespace grepair

#endif  // GREPAIR_GRAPH_HYPERGRAPH_H_
