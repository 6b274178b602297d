#include "src/query/speedup.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/util/union_find.h"

namespace grepair {

namespace {

// Connectivity summary of one rule: which external positions are in
// the same component of val(subgraph), plus how many components have
// no external node at all.
struct ComponentSummary {
  std::vector<uint32_t> ext_group;  // dense group id per ext position
  uint64_t closed = 0;              // fully internal components
};

// `csr` is the start adjacency when `g` is the start graph, else null.
ComponentSummary SummarizeComponents(
    const SlhrGrammar& grammar, const Hypergraph& g,
    const std::vector<ComponentSummary>& rule_summaries,
    const StartAdjacency* csr = nullptr) {
  UnionFind uf(g.num_nodes());
  uint64_t closed = 0;
  for (NodeId u = 0; csr != nullptr && u < g.num_nodes(); ++u) {
    for (NodeId v : csr->Targets(u)) uf.Union(u, v);
  }
  for (const auto& e : g.edges()) {
    if (grammar.IsTerminal(e.label)) {
      for (size_t i = 1; i < e.att.size(); ++i) {
        uf.Union(e.att[0], e.att[i]);
      }
    } else {
      const ComponentSummary& child =
          rule_summaries[grammar.RuleIndex(e.label)];
      closed += child.closed;
      // Union attachment nodes whose ext positions share a child group.
      std::vector<NodeId> group_rep(child.ext_group.size(), kInvalidNode);
      for (size_t p = 0; p < child.ext_group.size(); ++p) {
        uint32_t gid = child.ext_group[p];
        if (group_rep[gid] == kInvalidNode) {
          group_rep[gid] = e.att[p];
        } else {
          uf.Union(group_rep[gid], e.att[p]);
        }
      }
    }
  }
  ComponentSummary summary;
  summary.closed = closed;
  // Components of this level: count those without external nodes; map
  // the rest to dense group ids over ext positions.
  std::vector<char> has_ext(g.num_nodes(), 0);
  for (NodeId v : g.ext()) has_ext[uf.Find(v)] = 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (uf.Find(v) == v && !has_ext[v]) ++summary.closed;
  }
  std::vector<uint32_t> root_to_group(g.num_nodes(), ~0u);
  uint32_t next_group = 0;
  summary.ext_group.reserve(g.ext().size());
  for (NodeId v : g.ext()) {
    uint32_t root = uf.Find(v);
    if (root_to_group[root] == ~0u) root_to_group[root] = next_group++;
    summary.ext_group.push_back(root_to_group[root]);
  }
  return summary;
}

}  // namespace

uint64_t CountConnectedComponents(const SlhrGrammar& grammar) {
  std::vector<ComponentSummary> summaries(grammar.num_rules());
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    summaries[j] =
        SummarizeComponents(grammar, grammar.rhs_by_index(j), summaries);
  }
  ComponentSummary top = SummarizeComponents(
      grammar, grammar.start(), summaries, &grammar.start_adjacency());
  // The start graph has no external nodes: everything is "closed".
  return top.closed;
}

namespace {

// Degree summary of one rule: degree each external position
// contributes to its attachment node, plus internal degree extrema.
struct DegreeSummary {
  std::vector<uint64_t> ext_degree;
  uint64_t min_internal = std::numeric_limits<uint64_t>::max();
  uint64_t max_internal = 0;
  bool has_internal = false;
};

// `csr` is the start adjacency when `g` is the start graph, else null.
DegreeSummary SummarizeDegrees(const SlhrGrammar& grammar,
                               const Hypergraph& g,
                               const std::vector<DegreeSummary>& summaries,
                               const StartAdjacency* csr = nullptr) {
  std::vector<uint64_t> degree(g.num_nodes(), 0);
  DegreeSummary out;
  for (NodeId u = 0; csr != nullptr && u < g.num_nodes(); ++u) {
    for (NodeId v : csr->Targets(u)) {
      ++degree[u];
      ++degree[v];
    }
  }
  for (const auto& e : g.edges()) {
    if (grammar.IsTerminal(e.label)) {
      for (NodeId v : e.att) ++degree[v];
    } else {
      const DegreeSummary& child = summaries[grammar.RuleIndex(e.label)];
      for (size_t p = 0; p < child.ext_degree.size(); ++p) {
        degree[e.att[p]] += child.ext_degree[p];
      }
      if (child.has_internal) {
        out.min_internal = std::min(out.min_internal, child.min_internal);
        out.max_internal = std::max(out.max_internal, child.max_internal);
        out.has_internal = true;
      }
    }
  }
  std::vector<char> is_ext(g.num_nodes(), 0);
  for (NodeId v : g.ext()) is_ext[v] = 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (is_ext[v]) continue;
    out.min_internal = std::min(out.min_internal, degree[v]);
    out.max_internal = std::max(out.max_internal, degree[v]);
    out.has_internal = true;
  }
  out.ext_degree.reserve(g.ext().size());
  for (NodeId v : g.ext()) out.ext_degree.push_back(degree[v]);
  return out;
}

}  // namespace

Result<DegreeExtrema> ComputeDegreeExtrema(const SlhrGrammar& grammar) {
  std::vector<DegreeSummary> summaries(grammar.num_rules());
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    summaries[j] =
        SummarizeDegrees(grammar, grammar.rhs_by_index(j), summaries);
  }
  // The start graph has no external nodes, so every val(G) node
  // surfaces as "internal" in the top summary; unapplied rules never
  // flow into it.
  DegreeSummary top = SummarizeDegrees(grammar, grammar.start(), summaries,
                                       &grammar.start_adjacency());
  if (!top.has_internal) {
    return Status::InvalidArgument(
        "grammar derives an empty graph (no nodes): degree extrema are "
        "undefined");
  }
  DegreeExtrema extrema;
  extrema.min_degree = top.min_internal;
  extrema.max_degree = top.max_internal;
  return extrema;
}

}  // namespace grepair
