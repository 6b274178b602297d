#include "src/grepair/digram.h"

#include <algorithm>
#include <cassert>

#include "src/util/hashing.h"

namespace grepair {

namespace {

// Mask of positions [0, n).
uint64_t LowBits(int n) { return n >= 64 ? ~0ull : (1ull << n) - 1; }

// Mask of edge1 positions that are shared with edge0.
uint64_t SharedMask1(const DigramShape& s) {
  uint64_t mask = 0;
  for (uint16_t packed : s.shared) {
    mask |= 1ull << (packed & 0xFF);
  }
  return mask;
}

}  // namespace

namespace internal {

void Transpose(const SharedPositions& in, SharedPositions* out) {
  out->clear();
  for (uint16_t packed : in) {
    out->push_back(static_cast<uint16_t>(((packed & 0xFF) << 8) |
                                         (packed >> 8)));
  }
  std::sort(out->begin(), out->end());
}

}  // namespace internal

int DigramShape::NumExternal() const {
  // Shared nodes are flagged in both masks; count them via edge0 only.
  return __builtin_popcountll(ext0 & LowBits(rank0)) +
         __builtin_popcountll(ext1 & ~SharedMask1(*this) & LowBits(rank1));
}

size_t DigramShapeHash::operator()(const DigramShape& s) const {
  uint64_t h = HashCombine(s.label0, s.label1);
  h = HashCombine(h, (static_cast<uint64_t>(s.rank0) << 8) | s.rank1);
  h = HashCombine(h, s.ext0);
  h = HashCombine(h, s.ext1);
  for (uint16_t p : s.shared) h = HashCombine(h, p);
  return static_cast<size_t>(h);
}

// Pre-canonical enumeration: edge0 attachments get pre-ids equal to
// their positions; edge1's unshared attachments follow in position
// order. `visit(pre_id, edge_index, position, external)` is called in
// ascending pre-id order.
template <typename Visitor>
static void VisitPreCanonicalNodes(const DigramShape& s, Visitor visit) {
  for (int i = 0; i < s.rank0; ++i) {
    visit(i, 0, i, ((s.ext0 >> i) & 1) != 0);
  }
  uint64_t shared1 = SharedMask1(s);
  int next = s.rank0;
  for (int j = 0; j < s.rank1; ++j) {
    if ((shared1 >> j) & 1) continue;
    visit(next++, 1, j, ((s.ext1 >> j) & 1) != 0);
  }
}

Hypergraph BuildDigramRhs(const DigramShape& shape) {
  const int num_nodes = shape.NumNodes();
  const int num_ext = shape.NumExternal();

  // canon[pre_id]: externals get 0..k-1, internals k.. (ascending pre-id
  // within each class), matching the canonical-form invariant.
  std::vector<NodeId> canon(num_nodes);
  {
    int next_ext = 0, next_int = num_ext;
    VisitPreCanonicalNodes(shape, [&](int pre, int, int, bool external) {
      canon[pre] = external ? next_ext++ : next_int++;
    });
  }

  // Edge attachments in canonical ids. edge0 positions are their own
  // pre-ids; edge1 positions resolve through the shared map.
  Attachments att0, att1;
  att0.resize(shape.rank0);
  att1.resize(shape.rank1);
  for (int i = 0; i < shape.rank0; ++i) att0[i] = canon[i];
  for (uint16_t packed : shape.shared) {
    att1[packed & 0xFF] = canon[packed >> 8];
  }
  VisitPreCanonicalNodes(shape, [&](int pre, int edge, int pos, bool) {
    if (edge == 1) att1[pos] = canon[pre];
  });

  Hypergraph rhs(static_cast<uint32_t>(num_nodes));
  rhs.AddEdge(shape.label0, std::move(att0));
  rhs.AddEdge(shape.label1, std::move(att1));
  std::vector<NodeId> ext(num_ext);
  for (int i = 0; i < num_ext; ++i) ext[i] = static_cast<NodeId>(i);
  rhs.SetExternal(std::move(ext));
  return rhs;
}

void MapOccurrenceNodes(const DigramShape& shape, const Attachments& att0,
                        const Attachments& att1,
                        Attachments* attachment_nodes,
                        std::vector<NodeId>* removal_nodes) {
  attachment_nodes->clear();
  removal_nodes->clear();
  VisitPreCanonicalNodes(shape, [&](int, int edge, int pos, bool external) {
    NodeId v = edge == 0 ? att0[pos] : att1[pos];
    if (external) {
      attachment_nodes->push_back(v);
    } else {
      removal_nodes->push_back(v);
    }
  });
}

}  // namespace grepair
