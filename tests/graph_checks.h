// Test oracles over hypergraphs. Header-only: every tests/*.cc file
// builds its own binary, and the library ships only what products use.
//
// WlHash is a Weisfeiler-Leman style isomorphism-invariant graph hash.
// The grammar produced by gRePair derives an isomorphic copy of the
// input (Section III-C2), so round-trip property tests compare
// WlHash(original) with WlHash(val(grammar)). Isomorphic graphs always
// hash equal; non-isomorphic graphs hash equal only if they are
// 1-WL-equivalent AND the final multiset hashes collide, which the
// tests accept as a vanishing false-negative risk (exact-equality
// tests via the tracked node mapping cover the rest).
//
// WholeStartGraph puts a decoded grammar's start graph back together
// from its two parts, for tests that compare it edge for edge.

#ifndef GREPAIR_TESTS_GRAPH_CHECKS_H_
#define GREPAIR_TESTS_GRAPH_CHECKS_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/graph/hypergraph.h"
#include "src/graph/node_order.h"
#include "src/util/hashing.h"

namespace grepair {

/// \brief Isomorphism-invariant 64-bit hash of a hypergraph.
inline uint64_t WlHash(const Hypergraph& g) {
  auto fp = ComputeFpRefinement(g);

  // Hash the multiset of edges rendered with stable node colors, plus the
  // multiset of node colors (covers isolated nodes) and the external
  // sequence rendered with colors.
  std::vector<uint64_t> edge_hashes;
  edge_hashes.reserve(g.num_edges());
  for (const auto& e : g.edges()) {
    uint64_t h = HashCombine(0x9E1Eull, e.label);
    for (NodeId v : e.att) h = HashCombine(h, fp.colors[v]);
    edge_hashes.push_back(h);
  }
  std::sort(edge_hashes.begin(), edge_hashes.end());

  std::vector<uint64_t> node_colors;
  node_colors.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    node_colors.push_back(fp.colors[v]);
  }
  std::sort(node_colors.begin(), node_colors.end());

  uint64_t h = HashCombine(0xC0FFEEull, g.num_nodes());
  h = HashCombine(h, HashVector(edge_hashes));
  h = HashCombine(h, HashVector(node_colors));
  for (NodeId v : g.ext()) h = HashCombine(h, fp.colors[v]);
  h = HashCombine(h, g.ext().size());
  return h;
}

/// \brief True if `g` is simple: all edges rank 2 and no two edges
/// share both attachment sequence and label.
inline bool IsSimple(const Hypergraph& g) {
  std::set<std::tuple<NodeId, NodeId, Label>> seen;
  for (const auto& e : g.edges()) {
    if (e.att.size() != 2) return false;
    if (!seen.emplace(e.att[0], e.att[1], e.label).second) return false;
  }
  return true;
}

/// \brief `grammar`'s whole start graph: start() plus the start
/// adjacency's edges, in canonical (label, attachment) order when
/// start() is canonical. Each label's edges sit in one part, so a
/// stable sort by label alone merges them.
inline Hypergraph WholeStartGraph(const SlhrGrammar& grammar) {
  std::vector<HEdge> edges = grammar.start().edges();
  const StartAdjacency::LabelGroups csr =
      grammar.start_adjacency().GroupByLabel();
  for (Label l = 0; l + 1 < csr.begin.size(); ++l) {
    for (uint64_t i = csr.begin[l]; i < csr.begin[l + 1]; ++i) {
      edges.push_back(HEdge{l, {static_cast<NodeId>(csr.keys[i] >> 32),
                                static_cast<NodeId>(csr.keys[i])}});
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const HEdge& a, const HEdge& b) {
                     return a.label < b.label;
                   });
  Hypergraph start(grammar.start().num_nodes());
  start.SetEdges(std::move(edges));
  return start;
}

}  // namespace grepair

#endif  // GREPAIR_TESTS_GRAPH_CHECKS_H_
