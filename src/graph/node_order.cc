#include "src/graph/node_order.h"

#include <algorithm>
#include <numeric>

#include "src/graph/graph_algos.h"
#include "src/util/rng.h"

namespace grepair {

bool ParseNodeOrderKind(const std::string& name, NodeOrderKind* kind) {
  if (name == "natural") *kind = NodeOrderKind::kNatural;
  else if (name == "bfs") *kind = NodeOrderKind::kBfs;
  else if (name == "dfs") *kind = NodeOrderKind::kDfs;
  else if (name == "random") *kind = NodeOrderKind::kRandom;
  else if (name == "fp0") *kind = NodeOrderKind::kFp0;
  else if (name == "fp") *kind = NodeOrderKind::kFp;
  else return false;
  return true;
}

std::string NodeOrderKindName(NodeOrderKind kind) {
  switch (kind) {
    case NodeOrderKind::kNatural: return "natural";
    case NodeOrderKind::kBfs: return "bfs";
    case NodeOrderKind::kDfs: return "dfs";
    case NodeOrderKind::kRandom: return "random";
    case NodeOrderKind::kFp0: return "fp0";
    case NodeOrderKind::kFp: return "fp";
  }
  return "?";
}

namespace {

// Lexicographic comparison of two spans in the signature arena.
struct SigSpan {
  size_t offset;
  size_t length;
};

bool SigLess(const std::vector<uint64_t>& arena, const SigSpan& a,
             const SigSpan& b) {
  size_t n = std::min(a.length, b.length);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = arena[a.offset + i];
    uint64_t y = arena[b.offset + i];
    if (x != y) return x < y;
  }
  return a.length < b.length;
}

bool SigEqual(const std::vector<uint64_t>& arena, const SigSpan& a,
              const SigSpan& b) {
  if (a.length != b.length) return false;
  for (size_t i = 0; i < a.length; ++i) {
    if (arena[a.offset + i] != arena[b.offset + i]) return false;
  }
  return true;
}

}  // namespace

FpRefinement ComputeFpRefinement(const Hypergraph& g, int max_iterations) {
  const uint32_t n = g.num_nodes();
  FpRefinement result;
  result.colors.assign(n, 0);
  if (n == 0) return result;

  auto incidence = g.BuildIncidence();

  // c_0(v) = deg(v), densely ranked.
  {
    auto degrees = g.Degrees();
    std::vector<NodeId> by_degree(n);
    std::iota(by_degree.begin(), by_degree.end(), 0u);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](NodeId a, NodeId b) { return degrees[a] < degrees[b]; });
    uint32_t color = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0 && degrees[by_degree[i]] != degrees[by_degree[i - 1]]) ++color;
      result.colors[by_degree[i]] = color;
    }
    result.num_classes = color + 1;
  }

  std::vector<uint32_t> next_colors(n);
  std::vector<uint64_t> arena;
  std::vector<SigSpan> spans(n);
  // One node's incident-edge tuples, flat, and their spans (reused).
  std::vector<uint64_t> tuple_arena;
  std::vector<SigSpan> tuple_spans;
  // The nodes grouped by color, ascending ids within a class: class c
  // is by_color[class_begin[c], class_begin[c + 1]).
  std::vector<NodeId> by_color(n);
  std::vector<uint32_t> class_begin;

  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter;
    class_begin.assign(result.num_classes + 1, 0);
    for (NodeId v = 0; v < n; ++v) ++class_begin[result.colors[v] + 1];
    for (uint32_t c = 0; c < result.num_classes; ++c) {
      class_begin[c + 1] += class_begin[c];
    }
    {
      std::vector<uint32_t> fill(class_begin.begin(), class_begin.end() - 1);
      for (NodeId v = 0; v < n; ++v) by_color[fill[result.colors[v]]++] = v;
    }

    // A node's signature is its own color followed by the sorted tuples
    // of its incident edges. An edge tuple records the label, the
    // position of v within the edge, and the current colors of all
    // attached nodes in attachment order — this is the
    // "straightforward extension to directed labeled graphs" of
    // Section III-B1 (direction = position, label included). Ranking
    // the signatures lexicographically gives the next coloring. The
    // own color comes first, so the ranking keeps the classes in color
    // order and only splits each one: a class is ranked alone, by the
    // tuples, and a singleton class needs no signature at all.
    uint32_t color = 0;
    for (uint32_t c = 0; c < result.num_classes; ++c) {
      NodeId* first = by_color.data() + class_begin[c];
      NodeId* last = by_color.data() + class_begin[c + 1];
      if (last - first == 1) {
        next_colors[*first] = color++;
        continue;
      }
      arena.clear();
      for (const NodeId* it = first; it != last; ++it) {
        const NodeId v = *it;
        tuple_arena.clear();
        tuple_spans.clear();
        for (EdgeId e : incidence[v]) {
          const HEdge& edge = g.edge(e);
          size_t offset = tuple_arena.size();
          tuple_arena.push_back(edge.label);
          uint64_t pos = 0;
          for (size_t i = 0; i < edge.att.size(); ++i) {
            if (edge.att[i] == v) pos = i;
          }
          tuple_arena.push_back(pos);
          for (NodeId u : edge.att) tuple_arena.push_back(result.colors[u]);
          tuple_spans.push_back({offset, tuple_arena.size() - offset});
        }
        std::sort(tuple_spans.begin(), tuple_spans.end(),
                  [&](const SigSpan& a, const SigSpan& b) {
                    return SigLess(tuple_arena, a, b);
                  });
        size_t offset = arena.size();
        for (const SigSpan& t : tuple_spans) {
          arena.push_back(t.length);  // length prefix: unambiguous flatten
          arena.insert(arena.end(), tuple_arena.begin() + t.offset,
                       tuple_arena.begin() + t.offset + t.length);
        }
        spans[v] = {offset, arena.size() - offset};
      }
      std::stable_sort(first, last, [&](NodeId a, NodeId b) {
        return SigLess(arena, spans[a], spans[b]);
      });
      next_colors[*first] = color;
      for (const NodeId* it = first + 1; it != last; ++it) {
        if (!SigEqual(arena, spans[*it], spans[*(it - 1)])) ++color;
        next_colors[*it] = color;
      }
      ++color;
    }
    const uint32_t new_classes = color;

    // Refinement only splits classes; equal counts imply a fixpoint.
    if (new_classes == result.num_classes) {
      result.iterations = iter + 1;
      return result;
    }
    result.colors.swap(next_colors);
    result.num_classes = new_classes;
  }
  return result;
}

uint32_t CountFpClasses(const Hypergraph& g) {
  return ComputeFpRefinement(g).num_classes;
}

std::vector<NodeId> ComputeNodeOrder(const Hypergraph& g, NodeOrderKind kind,
                                     uint64_t seed) {
  const uint32_t n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  switch (kind) {
    case NodeOrderKind::kNatural:
      return order;
    case NodeOrderKind::kBfs:
      return BfsOrder(g);
    case NodeOrderKind::kDfs:
      return DfsOrder(g);
    case NodeOrderKind::kRandom: {
      Rng rng(seed);
      rng.Shuffle(&order);
      return order;
    }
    case NodeOrderKind::kFp0: {
      auto degrees = g.Degrees();
      std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return degrees[a] < degrees[b];
      });
      return order;
    }
    case NodeOrderKind::kFp: {
      auto fp = ComputeFpRefinement(g);
      std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return fp.colors[a] < fp.colors[b];
      });
      return order;
    }
  }
  return order;
}

}  // namespace grepair
