#include "src/grammar/normal_form.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace grepair {

namespace {

// Splits `h` (a right-hand side or the start graph of `ng`) until it
// has at most `max_edges` edges, extracting balanced halves of the edge
// list into fresh nonterminals (recursively normalized). Returns an
// error if an extraction would need a nonterminal of rank > 255.
Status SplitToLimit(SlhrGrammar* ng, Hypergraph* h, uint32_t max_edges) {
  while (h->num_edges() > max_edges) {
    const uint32_t take = (h->num_edges() + 1) / 2;

    // Classify h's nodes: touched by the extracted range, by the rest,
    // or external in h itself.
    std::vector<char> in_range(h->num_nodes(), 0);
    std::vector<char> in_rest(h->num_nodes(), 0);
    for (EdgeId e = 0; e < h->num_edges(); ++e) {
      for (NodeId v : h->edge(e).att) {
        (e < take ? in_range : in_rest)[v] = 1;
      }
    }
    std::vector<char> host_ext(h->num_nodes(), 0);
    for (NodeId v : h->ext()) host_ext[v] = 1;

    // Boundary = nodes the extraction must keep visible in h.
    std::vector<NodeId> boundary, internal;
    for (NodeId v = 0; v < h->num_nodes(); ++v) {
      if (!in_range[v]) continue;
      if (in_rest[v] || host_ext[v]) {
        boundary.push_back(v);
      } else {
        internal.push_back(v);
      }
    }
    if (boundary.empty()) {
      // The range is a closed component; rank-0 nonterminals are
      // illegal, so keep its first node visible (it stays in h).
      assert(!internal.empty());
      boundary.push_back(internal.front());
      internal.erase(internal.begin());
    }
    if (boundary.size() > 255) {
      return Status::InvalidArgument(
          "normal form split needs rank " +
          std::to_string(boundary.size()) + " > 255");
    }

    // Build the sub-rhs in canonical form: boundary first (ascending
    // host id), internals after.
    std::vector<NodeId> sub_id(h->num_nodes(), kInvalidNode);
    Hypergraph sub(static_cast<uint32_t>(boundary.size() + internal.size()));
    {
      NodeId next = 0;
      for (NodeId v : boundary) sub_id[v] = next++;
      for (NodeId v : internal) sub_id[v] = next++;
      std::vector<NodeId> ext(boundary.size());
      for (NodeId i = 0; i < boundary.size(); ++i) ext[i] = i;
      sub.SetExternal(std::move(ext));
    }
    for (EdgeId e = 0; e < take; ++e) {
      Attachments att = h->edge(e).att;
      for (NodeId& v : att) v = sub_id[v];
      sub.AddEdge(h->edge(e).label, std::move(att));
    }
    GREPAIR_RETURN_IF_ERROR(SplitToLimit(ng, &sub, max_edges));
    Label fresh =
        ng->AddNonterminal(static_cast<int>(boundary.size()));
    ng->SetRule(fresh, std::move(sub));

    // Rebuild h: the fresh edge replaces the extracted range; nodes
    // that moved inside the rule disappear (ids compacted).
    std::vector<NodeId> keep_id(h->num_nodes(), kInvalidNode);
    std::vector<char> removed(h->num_nodes(), 0);
    for (NodeId v : internal) removed[v] = 1;
    uint32_t next = 0;
    for (NodeId v = 0; v < h->num_nodes(); ++v) {
      if (!removed[v]) keep_id[v] = next++;
    }
    Hypergraph rebuilt(next);
    {
      Attachments att;
      for (NodeId v : boundary) att.push_back(keep_id[v]);
      rebuilt.AddEdge(fresh, std::move(att));
    }
    for (EdgeId e = take; e < h->num_edges(); ++e) {
      Attachments att = h->edge(e).att;
      for (NodeId& v : att) v = keep_id[v];
      rebuilt.AddEdge(h->edge(e).label, std::move(att));
    }
    std::vector<NodeId> ext;
    ext.reserve(h->ext().size());
    for (NodeId v : h->ext()) ext.push_back(keep_id[v]);
    rebuilt.SetExternal(std::move(ext));
    *h = std::move(rebuilt);
  }
  return Status::OK();
}

}  // namespace

Result<NormalFormStats> NormalizeGrammar(SlhrGrammar* grammar,
                                         const NormalFormOptions& options) {
  if (options.max_edges < 2) {
    return Status::InvalidArgument("max_edges must be >= 2");
  }
  NormalFormStats stats;
  stats.rules_before = grammar->num_rules();

  // Rebuild bottom-up so fresh helper rules precede their referents.
  Alphabet terminals;
  for (Label l = 0; l < grammar->num_terminals(); ++l) {
    terminals.Add(grammar->alphabet().name(l), grammar->alphabet().rank(l));
  }
  SlhrGrammar ng(std::move(terminals), Hypergraph(0));
  std::vector<Label> relabel(grammar->alphabet().size(), kInvalidLabel);
  for (Label l = 0; l < grammar->num_terminals(); ++l) relabel[l] = l;

  for (uint32_t j = 0; j < grammar->num_rules(); ++j) {
    Label old_label = grammar->NonterminalLabel(j);
    Hypergraph rhs = grammar->rhs_by_index(j);
    for (EdgeId e = 0; e < rhs.num_edges(); ++e) {
      Label& l = rhs.mutable_edge(e).label;
      assert(relabel[l] != kInvalidLabel);
      l = relabel[l];
    }
    GREPAIR_RETURN_IF_ERROR(SplitToLimit(&ng, &rhs, options.max_edges));
    Label fresh = ng.AddNonterminal(grammar->rank(old_label),
                                    grammar->alphabet().name(old_label));
    ng.SetRule(fresh, std::move(rhs));
    relabel[old_label] = fresh;
  }

  Hypergraph start = grammar->start();
  for (EdgeId e = 0; e < start.num_edges(); ++e) {
    Label& l = start.mutable_edge(e).label;
    l = relabel[l];
  }
  if (options.max_edges_start >= 2) {
    GREPAIR_RETURN_IF_ERROR(
        SplitToLimit(&ng, &start, options.max_edges_start));
  }
  *ng.mutable_start() = std::move(start);

  GREPAIR_RETURN_IF_ERROR(ng.Validate());
  *grammar = std::move(ng);
  stats.rules_after = grammar->num_rules();
  for (uint32_t j = 0; j < grammar->num_rules(); ++j) {
    stats.max_rank_after = std::max(
        stats.max_rank_after,
        static_cast<uint32_t>(grammar->rank(grammar->NonterminalLabel(j))));
  }
  return stats;
}

}  // namespace grepair
