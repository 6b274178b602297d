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
//
// Attachment storage: att(e) is an Attachments, which keeps up to four
// node ids inline and moves longer sequences to the heap. Terminal
// edges of simple graphs have rank 2 and gRePair caps nonterminal ranks
// at 4 by default, so adding, copying and deriving edges allocates
// nothing per edge in practice, and an HEdge is 32 bytes. Attachments
// converts neither to nor from std::vector<NodeId>: a hidden per-edge
// vector copy does not compile. Build one from a brace list, a pointer
// and a size, or element by element.

#ifndef GREPAIR_GRAPH_HYPERGRAPH_H_
#define GREPAIR_GRAPH_HYPERGRAPH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
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

/// \brief Attachment sequence of one edge: up to kInlineAttachments
/// node ids in place, longer sequences on the heap (see the top of this
/// file). Compares like a vector: by elements, then lexicographically.
class Attachments {
 public:
  static constexpr uint32_t kInlineAttachments = 4;
  using value_type = NodeId;
  using iterator = NodeId*;
  using const_iterator = const NodeId*;

  Attachments() = default;
  Attachments(std::initializer_list<NodeId> init)
      : Attachments(init.begin(), init.size()) {}
  Attachments(const NodeId* data, size_t size) { assign(data, size); }
  Attachments(const Attachments& o) : Attachments(o.data(), o.size()) {}
  Attachments(Attachments&& o) noexcept { Steal(&o); }
  Attachments& operator=(const Attachments& o) {
    if (this != &o) assign(o.data(), o.size());
    return *this;
  }
  Attachments& operator=(Attachments&& o) noexcept {
    if (this != &o) {
      Release();
      Steal(&o);
    }
    return *this;
  }
  ~Attachments() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NodeId* data() const { return on_heap() ? heap_ : inline_; }
  NodeId* data() { return on_heap() ? heap_ : inline_; }
  const NodeId* begin() const { return data(); }
  const NodeId* end() const { return data() + size_; }
  NodeId* begin() { return data(); }
  NodeId* end() { return data() + size_; }
  NodeId operator[](size_t i) const { return data()[i]; }
  NodeId& operator[](size_t i) { return data()[i]; }

  /// \brief Keeps the storage: a cleared heap sequence refills without
  /// allocating.
  void clear() { size_ = 0; }
  void push_back(NodeId v) {
    if (size_ == capacity_) Grow(2 * static_cast<size_t>(size_));
    data()[size_++] = v;
  }
  /// \brief Replaces the contents; `src` may point into this sequence.
  void assign(const NodeId* src, size_t n);
  /// \brief New elements are zero.
  void resize(size_t n);

  bool operator==(const Attachments& o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }
  bool operator!=(const Attachments& o) const { return !(*this == o); }
  bool operator<(const Attachments& o) const {
    return std::lexicographical_compare(begin(), end(), o.begin(), o.end());
  }

 private:
  bool on_heap() const { return capacity_ > kInlineAttachments; }
  // Moves the elements to a heap buffer of at least `capacity` ids.
  void Grow(size_t capacity);
  void Release() {
    if (on_heap()) delete[] heap_;
    capacity_ = kInlineAttachments;
  }
  // Takes o's contents; o is left empty and inline. *this must hold no
  // heap buffer.
  void Steal(Attachments* o) {
    size_ = o->size_;
    capacity_ = o->capacity_;
    if (o->on_heap()) {
      heap_ = o->heap_;
    } else {
      std::copy(o->inline_, o->inline_ + size_, inline_);
    }
    o->size_ = 0;
    o->capacity_ = kInlineAttachments;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineAttachments;
  union {
    NodeId inline_[kInlineAttachments];
    NodeId* heap_;
  };
};

/// \brief One (hyper)edge: label plus attachment sequence.
struct HEdge {
  Label label = kInvalidLabel;
  Attachments att;

  int rank() const { return static_cast<int>(att.size()); }
  bool operator==(const HEdge& other) const {
    return label == other.label && att == other.att;
  }
};

// Edge lists are the bulk of every graph in memory: a label and an
// inline rank-4 attachment in one half cache line.
static_assert(sizeof(HEdge) <= 32, "HEdge outgrew half a cache line");

/// \brief Every node's incident edge ids in one flat array pair (CSR):
/// node v's ids are edges[offsets[v], offsets[v + 1]), ascending. It
/// costs two allocations per graph, whatever its node count.
struct Incidence {
  /// \brief One node's incident edge ids.
  struct Row {
    const EdgeId* first = nullptr;
    const EdgeId* last = nullptr;
    const EdgeId* begin() const { return first; }
    const EdgeId* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
  };

  Row operator[](NodeId v) const {
    return {edges.data() + offsets[v], edges.data() + offsets[v + 1]};
  }

  std::vector<uint64_t> offsets;  ///< num_nodes + 1 entries
  std::vector<EdgeId> edges;      ///< rows back to back, node order
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
  EdgeId AddEdge(Label label, Attachments att) {
    edges_.push_back(HEdge{label, std::move(att)});
    return static_cast<EdgeId>(edges_.size() - 1);
  }

  /// \brief Reserves room for `count` edges in total.
  void ReserveEdges(size_t count) { edges_.reserve(count); }

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
    edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                [&](const HEdge& e) { return pred(e); }),
                 edges_.end());
  }

  /// \brief Equality up to edge order (labels, attachments, ext, |V|).
  bool EqualUpToEdgeOrder(const Hypergraph& other) const;

  /// \brief Exact structural equality including edge order.
  bool operator==(const Hypergraph& other) const {
    return num_nodes_ == other.num_nodes_ && ext_ == other.ext_ &&
           edges_ == other.edges_;
  }

  /// \brief Per-node incident edge ids, ascending within each node (each
  /// edge listed once per distinct attached node; attachments never
  /// repeat a node).
  Incidence BuildIncidence() const;

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
