// Digrams: pairs of connected hyperedges (Definition 2) and occurrences
// of digrams in a graph (Definition 3).
//
// A digram *shape* is what identifies "the same digram" across the
// graph: the two edge labels with their ranks, which attachment
// positions coincide (the shared nodes), and which digram nodes are
// external. Two edges of an occurrence induce a subgraph isomorphic to
// the digram (conditions 1+2 of Definition 3) and a node of the
// occurrence is external exactly when it is incident with an edge
// outside the occurrence (condition 3).
//
// Shapes are canonical over the unordered edge pair: of the two
// orientations the lexicographically smaller one wins, so {e1,e2} and
// {e2,e1} always map to one digram. The digram's external sequence is
// fixed as "ascending pre-canonical node id", where pre-canonical ids
// enumerate edge0's attachments first and then edge1's unshared
// attachments; the replacement edge attaches its nodes in exactly this
// order, which makes rule application reproduce the replaced subgraph
// (Section III).
//
// Shapes are built in the innermost loop of occurrence counting, so
// they allocate nothing. The shared positions live inline: an edge
// attaches no node twice (restriction 1) and Compress caps every rank
// at 63, so a pair shares at most 63 positions, and only the used
// prefix of those slots is ever written or copied. The backward
// orientation has the forward one's fields with edge0 and edge1
// exchanged, so ComputeDigramShape builds only the winner whenever the
// labels (or ranks) differ. Only on a tie, in practice equal labels,
// does it build the backward shared positions, by transposing the
// forward ones, and then only when the externality masks tie too or
// already favor the backward orientation.
//
// Stability note (why stored occurrences never go stale): for a live
// occurrence {e1,e2}, a node's externality can never flip. External
// nodes keep at least one outside edge because any replacement that
// consumes such an edge attaches the replacement nonterminal edge to
// the same node (the node is external in that occurrence too, since e1
// or e2 is its "other" edge). Internal nodes have no edges besides
// e1,e2, and replacements only ever attach new edges to nodes that had
// outside edges. Occurrences that share an edge with a replaced
// occurrence are removed from the index before the replacement, so
// every stored occurrence refers to live edges with an unchanged shape.

#ifndef GREPAIR_GREPAIR_DIGRAM_H_
#define GREPAIR_GREPAIR_DIGRAM_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/graph/hypergraph.h"

namespace grepair {

/// \brief Most attachment positions two edges can share: ranks are at
/// most 63 and an edge attaches no node twice.
inline constexpr int kMaxSharedPositions = 63;

/// \brief Shared attachment positions of a digram, stored inline.
/// Compares like a vector: by elements, then lexicographically.
///
/// Only the live prefix [0, size()) is ever read: construction leaves
/// the slots unfilled, and copies, comparisons and DigramShapeHash
/// touch the prefix alone. A shape is built per candidate pair in
/// occurrence counting and most candidates are rejected, so filling
/// all 63 slots for each of them is wasted work.
class SharedPositions {
 public:
  SharedPositions() = default;
  SharedPositions(std::initializer_list<uint16_t> init) {
    for (uint16_t p : init) push_back(p);
  }
  SharedPositions(const SharedPositions& o) : size_(o.size_) {
    std::copy(o.begin(), o.end(), data_);
  }
  SharedPositions& operator=(const SharedPositions& o) {
    if (this != &o) {
      size_ = o.size_;
      std::copy(o.begin(), o.end(), data_);
    }
    return *this;
  }

  void push_back(uint16_t packed) {
    assert(size_ < kMaxSharedPositions);
    data_[size_++] = packed;
  }
  void clear() { size_ = 0; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint16_t operator[](size_t i) const { return data_[i]; }
  const uint16_t* begin() const { return data_; }
  const uint16_t* end() const { return data_ + size_; }
  uint16_t* begin() { return data_; }
  uint16_t* end() { return data_ + size_; }

  bool operator==(const SharedPositions& o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }
  bool operator<(const SharedPositions& o) const {
    return std::lexicographical_compare(begin(), end(), o.begin(), o.end());
  }

 private:
  uint16_t data_[kMaxSharedPositions];  // [size_, 63) is never read
  uint8_t size_ = 0;
};

/// \brief Canonical identity of a digram.
struct DigramShape {
  Label label0 = kInvalidLabel;
  Label label1 = kInvalidLabel;
  uint8_t rank0 = 0;
  uint8_t rank1 = 0;
  /// Shared attachment positions, packed (pos_in_edge0 << 8) |
  /// pos_in_edge1, sorted ascending by pos_in_edge0. Non-empty for any
  /// valid digram (the edges must be connected).
  SharedPositions shared;
  /// Externality bitmasks by attachment position (bit i = position i is
  /// an external node). Shared nodes are flagged in both masks.
  uint64_t ext0 = 0;
  uint64_t ext1 = 0;

  bool operator==(const DigramShape& o) const {
    return label0 == o.label0 && label1 == o.label1 && rank0 == o.rank0 &&
           rank1 == o.rank1 && ext0 == o.ext0 && ext1 == o.ext1 &&
           shared == o.shared;
  }

  /// \brief Lexicographic order used for canonical orientation.
  bool operator<(const DigramShape& o) const;

  /// \brief Total distinct nodes of the digram.
  int NumNodes() const {
    return rank0 + rank1 - static_cast<int>(shared.size());
  }

  /// \brief Number of external nodes = rank of the digram = rank of the
  /// nonterminal that replaces its occurrences.
  int NumExternal() const;

  /// \brief Number of internal (removal) nodes.
  int NumInternal() const { return NumNodes() - NumExternal(); }
};

struct DigramShapeHash {
  size_t operator()(const DigramShape& s) const;
};

namespace internal {

/// \brief Shared positions with x playing edge0, ascending, and the
/// masks of the shared positions of x and of y.
inline void CollectShared(const HEdge& x, const HEdge& y,
                          SharedPositions* out, uint64_t* shared_x,
                          uint64_t* shared_y) {
  out->clear();
  *shared_x = 0;
  *shared_y = 0;
  for (size_t i = 0; i < x.att.size(); ++i) {
    for (size_t j = 0; j < y.att.size(); ++j) {
      if (x.att[i] == y.att[j]) {
        out->push_back(static_cast<uint16_t>((i << 8) | j));
        *shared_x |= 1ull << i;
        *shared_y |= 1ull << j;
      }
    }
  }
}

/// \brief The same positions with the edge roles exchanged, ascending.
void Transpose(const SharedPositions& in, SharedPositions* out);

/// \brief Set bits of a mask. Externality masks hold a few bits, and
/// this loop beats the library call __builtin_popcountll becomes on
/// targets built without a popcount instruction.
inline int CountBits(uint64_t mask) {
  int n = 0;
  for (; mask != 0; mask &= mask - 1) ++n;
  return n;
}

/// \brief Externality mask of e within its pair (Definition 3,
/// condition 3). The pair attaches a node once, or twice when it is
/// shared, so the node at position i has an edge outside the pair
/// exactly when its degree exceeds that count.
template <typename Degree>
uint64_t ExternalMask(const HEdge& e, uint64_t shared, const Degree& degree) {
  uint64_t mask = 0;
  for (size_t i = 0; i < e.att.size(); ++i) {
    const uint32_t inside = 1 + static_cast<uint32_t>((shared >> i) & 1);
    if (degree(e.att[i]) > inside) mask |= 1ull << i;
  }
  return mask;
}

}  // namespace internal

/// \brief Computes the canonical shape of the edge pair {a, b}.
///
/// `degree(v)` must report the number of live edges incident with node
/// v, a and b included. Returns false when the edges share no node (not
/// a digram) or when the digram has more than `max_rank` external nodes;
/// the rank does not depend on the orientation, so that rejection comes
/// before an equal-label tie is broken. `*swapped` is set when the
/// canonical orientation has b playing edge0. The degree is a template
/// parameter: this runs in the innermost loop of occurrence counting.
/// Both edges must have rank at most 63 and attach no node twice.
template <typename Degree>
bool ComputeDigramShape(const HEdge& a, const HEdge& b, const Degree& degree,
                        int max_rank, DigramShape* shape, bool* swapped) {
  assert(a.att.size() <= kMaxSharedPositions &&
         b.att.size() <= kMaxSharedPositions);
  // Labels, then ranks, decide the orientation before anything is built.
  const bool by_label =
      a.label != b.label || a.att.size() != b.att.size();
  bool backward_less = a.label != b.label ? b.label < a.label
                                          : b.att.size() < a.att.size();
  const HEdge& x = backward_less ? b : a;  // plays edge0
  const HEdge& y = backward_less ? a : b;
  uint64_t shared_x = 0, shared_y = 0;
  internal::CollectShared(x, y, &shape->shared, &shared_x, &shared_y);
  if (shape->shared.empty()) return false;  // not connected: no digram
  shape->ext0 = internal::ExternalMask(x, shared_x, degree);
  shape->ext1 = internal::ExternalMask(y, shared_y, degree);
  // Shared nodes are flagged in both masks; count them via x only.
  const int rank = internal::CountBits(shape->ext0) +
                   internal::CountBits(shape->ext1 & ~shared_y);
  if (rank > max_rank) return false;
  shape->label0 = x.label;
  shape->label1 = y.label;
  shape->rank0 = static_cast<uint8_t>(x.att.size());
  shape->rank1 = static_cast<uint8_t>(y.att.size());
  if (!by_label) {
    // Equal labels and ranks: the backward orientation exchanges the
    // externality masks and transposes the shared positions, and is
    // built only when the masks tie or already favor it.
    backward_less = shape->ext1 < shape->ext0;
    if (backward_less || shape->ext0 == shape->ext1) {
      SharedPositions backward;
      internal::Transpose(shape->shared, &backward);
      if (shape->ext0 == shape->ext1) {
        backward_less = backward < shape->shared;
      }
      if (backward_less) {
        std::swap(shape->ext0, shape->ext1);
        shape->shared = backward;
      }
    }
  }
  *swapped = backward_less;
  return true;
}

/// \brief Builds the canonical right-hand side for the digram's rule:
/// external nodes get ids 0..k-1 (ascending pre-canonical order),
/// internal nodes follow; edges are [edge0, edge1].
Hypergraph BuildDigramRhs(const DigramShape& shape);

/// \brief Node correspondence for replacing one occurrence: given the
/// oriented attachments (att0 belongs to the edge playing edge0), emits
/// the host-graph nodes the replacement nonterminal edge attaches to
/// (in external order) and the removal nodes (in internal order, which
/// equals the rhs's internal node order).
void MapOccurrenceNodes(const DigramShape& shape, const Attachments& att0,
                        const Attachments& att1,
                        Attachments* attachment_nodes,
                        std::vector<NodeId>* removal_nodes);

}  // namespace grepair

#endif  // GREPAIR_GREPAIR_DIGRAM_H_
