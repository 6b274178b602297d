#include "src/query/reachability.h"

#include <cassert>
#include <mutex>

namespace grepair {

namespace {

// Nodes reachable from `seeds` over `adj` and the rows `extra(v)`.
template <typename ExtraRow>
std::vector<char> Search(const std::vector<std::vector<NodeId>>& adj,
                         const std::vector<NodeId>& seeds, ExtraRow extra) {
  std::vector<char> reached(adj.size(), 0);
  std::vector<NodeId> stack;
  auto visit = [&](NodeId u) {
    if (!reached[u]) {
      reached[u] = 1;
      stack.push_back(u);
    }
  };
  for (NodeId s : seeds) visit(s);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (NodeId u : adj[v]) visit(u);
    for (NodeId u : extra(v)) visit(u);
  }
  return reached;
}

std::vector<char> Bfs(const std::vector<std::vector<NodeId>>& adj,
                      const std::vector<NodeId>& seeds) {
  return Search(adj, seeds, [](NodeId) { return StartAdjacency::Row{}; });
}

}  // namespace

std::vector<std::vector<NodeId>> ReachabilityIndex::ExpandedAdjacency(
    const Hypergraph& g, bool reverse) const {
  std::vector<std::vector<NodeId>> adj(g.num_nodes());
  auto add = [&](NodeId from, NodeId to) {
    if (reverse) {
      adj[to].push_back(from);
    } else {
      adj[from].push_back(to);
    }
  };
  for (const auto& e : g.edges()) {
    if (grammar_->IsTerminal(e.label)) {
      if (e.att.size() == 2) add(e.att[0], e.att[1]);
      continue;
    }
    const auto& sk = skeletons_[grammar_->RuleIndex(e.label)];
    for (size_t p = 0; p < sk.size(); ++p) {
      for (size_t q = 0; q < sk.size(); ++q) {
        if (p != q && ((sk[p] >> q) & 1)) {
          add(e.att[p], e.att[q]);
        }
      }
    }
  }
  return adj;
}

ReachabilityIndex::ReachabilityIndex(const SlhrGrammar& grammar)
    : grammar_(&grammar), node_map_(grammar) {
  skeletons_.resize(grammar.num_rules());
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    const Hypergraph& rhs = grammar.rhs_by_index(j);
    auto adj = ExpandedAdjacency(rhs, false);
    uint32_t rank = static_cast<uint32_t>(rhs.ext().size());
    skeletons_[j].assign(rank, 0);
    for (uint32_t p = 0; p < rank; ++p) {
      auto reached = Bfs(adj, {static_cast<NodeId>(p)});
      for (uint32_t q = 0; q < rank; ++q) {
        if (reached[q]) skeletons_[j][p] |= 1ull << q;
      }
    }
  }
  start_fwd_ = ExpandedAdjacency(grammar.start(), false);
  start_bwd_ = ExpandedAdjacency(grammar.start(), true);
  rule_adj_.resize(2 * static_cast<size_t>(grammar.num_rules()));
}

const std::vector<std::vector<NodeId>>& ReachabilityIndex::LevelAdjacency(
    Label label, bool reverse) const {
  size_t slot = 2 * static_cast<size_t>(grammar_->RuleIndex(label)) +
                (reverse ? 1 : 0);
  {
    // Warm fast path: concurrent lookups share the lock.
    ReaderMutexLock read_lock(memo_mutex_);
    if (rule_adj_[slot] != nullptr) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return *rule_adj_[slot];
    }
  }
  WriterMutexLock write_lock(memo_mutex_);
  if (rule_adj_[slot] == nullptr) {
    rule_adj_[slot] =
        std::make_unique<const std::vector<std::vector<NodeId>>>(
            ExpandedAdjacency(grammar_->rhs(label), reverse));
    memo_entries_.fetch_add(1, std::memory_order_relaxed);
  } else {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return *rule_adj_[slot];
}

namespace {

// Reach information of one rule level along a derivation path.
struct LevelInfo {
  std::vector<char> reached;  // nodes of the level's rhs
};

// Chain of levels (innermost first) plus the start-graph reach set.
struct Chain {
  std::vector<LevelInfo> levels;
  std::vector<char> s_reached;
};

}  // namespace

bool ReachabilityIndex::Reachable(uint64_t from, uint64_t to) const {
  if (from == to) return true;
  GPath pu = node_map_.PathOf(from);
  GPath pv = node_map_.PathOf(to);

  // Builds the reach chain for one endpoint; `backward` computes
  // co-reachability (for the target node).
  auto build = [&](const GPath& path, bool backward) {
    Chain chain;
    std::vector<NodeId> seeds;
    if (path.start_edge == kInvalidEdge) {
      seeds = {path.node};
    } else {
      // Collect the rule labels along the path.
      std::vector<Label> labels;
      Label label = grammar_->start().edge(path.start_edge).label;
      labels.push_back(label);
      for (uint32_t step : path.steps) {
        label = grammar_->rhs(label).edge(step).label;
        labels.push_back(label);
      }
      seeds = {path.node};
      for (size_t i = labels.size(); i-- > 0;) {
        const Hypergraph& rhs = grammar_->rhs(labels[i]);
        const auto& adj = LevelAdjacency(labels[i], backward);
        LevelInfo info;
        info.reached = Bfs(adj, seeds);
        // External positions reaching/reachable become parent seeds via
        // the nonterminal edge's attachment.
        const HEdge& edge =
            i == 0 ? grammar_->start().edge(path.start_edge)
                   : grammar_->rhs(labels[i - 1]).edge(path.steps[i - 1]);
        seeds.clear();
        for (size_t p = 0; p < rhs.ext().size(); ++p) {
          if (info.reached[p]) seeds.push_back(edge.att[p]);
        }
        chain.levels.push_back(std::move(info));
      }
    }
    // The start level adds the start adjacency's rows to S'.
    const StartAdjacency& csr = grammar_->start_adjacency();
    chain.s_reached =
        backward ? Search(start_bwd_, seeds,
                          [&](NodeId v) { return csr.Sources(v); })
                 : Search(start_fwd_, seeds,
                          [&](NodeId v) { return csr.Targets(v); });
    return chain;
  };

  Chain cu = build(pu, false);
  Chain cv = build(pv, true);

  // Meet in the start graph (the paper's Cases 1 and 2).
  for (NodeId v = 0; v < grammar_->start().num_nodes(); ++v) {
    if (cu.s_reached[v] && cv.s_reached[v]) return true;
  }

  // Meet inside a shared subtree: compare reach sets at every common
  // rule level (innermost first).
  if (pu.start_edge != kInvalidEdge && pu.start_edge == pv.start_edge) {
    size_t lcp = 0;
    while (lcp < pu.steps.size() && lcp < pv.steps.size() &&
           pu.steps[lcp] == pv.steps[lcp]) {
      ++lcp;
    }
    size_t common = 1 + lcp;  // rule levels shared by both paths
    size_t depth_u = 1 + pu.steps.size();
    size_t depth_v = 1 + pv.steps.size();
    assert(common <= depth_u && common <= depth_v);
    for (size_t level = common; level >= 1; --level) {
      // chain.levels[0] is the innermost level (== depth).
      const auto& ru = cu.levels[depth_u - level].reached;
      const auto& rv = cv.levels[depth_v - level].reached;
      assert(ru.size() == rv.size());
      for (size_t v = 0; v < ru.size(); ++v) {
        if (ru[v] && rv[v]) return true;
      }
    }
  }
  return false;
}

}  // namespace grepair
