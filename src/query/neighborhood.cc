#include "src/query/neighborhood.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace grepair {

NeighborhoodIndex::NeighborhoodIndex(const SlhrGrammar& grammar)
    : node_map_(grammar) {
  incidence_.reserve(grammar.num_rules() + 1);
  incidence_.push_back(grammar.start().BuildIncidence());
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    incidence_.push_back(grammar.rhs_by_index(j).BuildIncidence());
  }
}

namespace {

// Memo key for (rule, ext position, direction). Ranks are stored as
// uint8 so pos fits in 8 bits with room to spare.
uint64_t MemoKey(uint32_t rule, uint32_t pos, bool out) {
  return (static_cast<uint64_t>(rule) << 9) |
         (static_cast<uint64_t>(pos) << 1) | (out ? 1 : 0);
}

}  // namespace

const std::vector<NeighborhoodIndex::RelNeighbor>&
NeighborhoodIndex::DescendMemo(Label label, uint32_t pos, bool out) const {
  // Warm fast path: concurrent lookups share the lock.
  uint64_t key = MemoKey(node_map_.grammar().RuleIndex(label), pos, out);
  {
    ReaderMutexLock read_lock(memo_mutex_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  WriterMutexLock write_lock(memo_mutex_);
  return DescendMemoLocked(label, pos, out);
}

// Builds (or returns) the instance-relative neighbor table of external
// position `pos` of nonterminal `label`. Rules only reference rules of
// lower index, so the recursion terminates; the lock is held across
// the whole recursive build (DescendMemoLocked assumes it).
const std::vector<NeighborhoodIndex::RelNeighbor>&
NeighborhoodIndex::DescendMemoLocked(Label label, uint32_t pos,
                                     bool out) const {
  const SlhrGrammar& g = node_map_.grammar();
  uint32_t rule = g.RuleIndex(label);
  uint64_t key = MemoKey(rule, pos, out);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  const Hypergraph& rhs = g.rhs(label);
  size_t ext_count = rhs.ext().size();
  std::vector<RelNeighbor> entries;
  // Normal form pins external nodes to ids [0, ext); anything above is
  // internal to this rhs and addressed by an empty relative path. An
  // external position is listed once: rules stacked in parallel would
  // otherwise double the list per level.
  std::vector<char> ext_listed(ext_count, 0);
  auto add_node = [&](NodeId u) {
    RelNeighbor rn;
    if (u < ext_count) {
      if (ext_listed[u]) return;
      ext_listed[u] = 1;
      rn.ext_pos = u;
    } else {
      rn.node = u;
    }
    entries.push_back(std::move(rn));
  };

  for (EdgeId ei : incidence_[1 + rule][pos]) {
    const HEdge& e = rhs.edge(ei);
    if (g.IsTerminal(e.label)) {
      if (e.att.size() != 2) continue;  // hyperedges carry no direction
      if (out && e.att[0] == static_cast<NodeId>(pos)) {
        add_node(e.att[1]);
      } else if (!out && e.att[1] == static_cast<NodeId>(pos)) {
        add_node(e.att[0]);
      }
      continue;
    }
    for (uint32_t q = 0; q < e.att.size(); ++q) {
      if (e.att[q] != static_cast<NodeId>(pos)) continue;
      // References into memo_ stay valid across later insertions
      // (unordered_map values are node-based), and `child` is fully
      // consumed before the next recursive build can run.
      const std::vector<RelNeighbor>& child =
          DescendMemoLocked(e.label, q, out);
      for (const RelNeighbor& c : child) {
        if (c.ext_pos != RelNeighbor::kNotExternal) {
          add_node(e.att[c.ext_pos]);
        } else {
          RelNeighbor rn;
          rn.steps.reserve(1 + c.steps.size());
          rn.steps.push_back(ei);
          rn.steps.insert(rn.steps.end(), c.steps.begin(), c.steps.end());
          rn.node = c.node;
          entries.push_back(std::move(rn));
        }
      }
    }
  }
  memo_entries_.fetch_add(1, std::memory_order_relaxed);
  return memo_.emplace(key, std::move(entries)).first->second;
}

namespace {

// Walking context: the chain of rule applications leading to the rhs
// currently being examined. Empty chain (start_edge == kInvalidEdge)
// means the start graph itself.
struct Ctx {
  EdgeId start_edge = kInvalidEdge;
  std::vector<uint32_t> steps;   // rhs edge indices, outermost first
  std::vector<Label> labels;     // label applied at each level
};

class Walker {
 public:
  Walker(const NeighborhoodIndex& index, const NodeMap& nm,
         const std::vector<Incidence>& incidence,
         bool out, std::vector<uint64_t>* results)
      : index_(index),
        g_(nm.grammar()),
        nm_(nm),
        incidence_(incidence),
        out_(out),
        results_(results) {}

  // Global id of node `v` within the rhs instance identified by `ctx`
  // (or within S when the ctx is empty). External nodes climb to the
  // parent instance through the nonterminal edge's attachment.
  uint64_t Resolve(const Ctx& ctx, NodeId v) const {
    Ctx walk = ctx;
    for (;;) {
      if (walk.start_edge == kInvalidEdge) return v;  // start-graph node
      const Hypergraph& rhs = g_.rhs(walk.labels.back());
      if (v >= rhs.ext().size()) {
        GPath p;
        p.start_edge = walk.start_edge;
        p.steps = walk.steps;
        p.node = v;
        return nm_.IdOf(p);
      }
      // External position v: look up the attachment in the parent.
      if (walk.steps.empty()) {
        const HEdge& e = g_.start().edge(walk.start_edge);
        return e.att[v];  // parent is S
      }
      const Hypergraph& parent =
          walk.labels.size() >= 2
              ? g_.rhs(walk.labels[walk.labels.size() - 2])
              : g_.rhs(g_.start().edge(walk.start_edge).label);
      const HEdge& e = parent.edge(walk.steps.back());
      v = e.att[v];
      walk.steps.pop_back();
      walk.labels.pop_back();
    }
  }

  // Emits the neighbors of node `v` within the rhs instance `ctx`,
  // examining only the edges incident with v. `host_index` is 0 for S
  // and 1 + rule index for right-hand sides. Nonterminal edges resolve
  // through the per-rule memo tables instead of a recursive descent.
  void ScanIncident(const Ctx& ctx, const Hypergraph& host,
                    size_t host_index, NodeId v) {
    for (EdgeId ei : incidence_[host_index][v]) {
      const HEdge& e = host.edge(ei);
      if (g_.IsTerminal(e.label)) {
        if (e.att.size() != 2) continue;  // hyperedges carry no direction
        if (out_ && e.att[0] == v) {
          results_->push_back(Resolve(ctx, e.att[1]));
        } else if (!out_ && e.att[1] == v) {
          results_->push_back(Resolve(ctx, e.att[0]));
        }
        continue;
      }
      for (size_t q = 0; q < e.att.size(); ++q) {
        if (e.att[q] == v) {
          ApplyMemo(ctx, ei, e, static_cast<uint32_t>(q));
        }
      }
    }
  }

  // getNeighboring (Section V) via the memo table: neighbors of
  // external position `pos` inside the subgraph derived from edge `ei`
  // of the instance `ctx`, translated from instance-relative form to
  // global ids.
  void ApplyMemo(const Ctx& ctx, EdgeId ei, const HEdge& e, uint32_t pos) {
    const auto& entries = index_.DescendMemo(e.label, pos, out_);
    for (const NeighborhoodIndex::RelNeighbor& rn : entries) {
      if (rn.ext_pos != NeighborhoodIndex::RelNeighbor::kNotExternal) {
        // A neighbor that is external to the child instance sits on
        // the nonterminal edge's attachment in the current host.
        results_->push_back(Resolve(ctx, e.att[rn.ext_pos]));
        continue;
      }
      GPath p;
      if (ctx.start_edge == kInvalidEdge) {
        p.start_edge = ei;
        p.steps = rn.steps;
      } else {
        p.start_edge = ctx.start_edge;
        p.steps.reserve(ctx.steps.size() + 1 + rn.steps.size());
        p.steps = ctx.steps;
        p.steps.push_back(ei);
        p.steps.insert(p.steps.end(), rn.steps.begin(), rn.steps.end());
      }
      p.node = rn.node;
      results_->push_back(nm_.IdOf(p));
    }
  }

  // Entry: neighbors of the node addressed by `path`.
  void Run(const GPath& path) {
    Ctx ctx;
    if (path.start_edge == kInvalidEdge) {
      // A start node: its terminal rank-2 edges are one CSR row, the
      // rest of S goes through the incidence index.
      const StartAdjacency& csr = g_.start_adjacency();
      for (NodeId w : out_ ? csr.Targets(path.node) : csr.Sources(path.node)) {
        results_->push_back(w);
      }
      ScanIncident(ctx, g_.start(), 0, path.node);
      return;
    }
    ctx.start_edge = path.start_edge;
    Label label = g_.start().edge(path.start_edge).label;
    ctx.labels.push_back(label);
    for (uint32_t step : path.steps) {
      ctx.steps.push_back(step);
      label = g_.rhs(label).edge(step).label;
      ctx.labels.push_back(label);
    }
    ScanIncident(ctx, g_.rhs(label), 1 + g_.RuleIndex(label), path.node);
  }

 private:
  const NeighborhoodIndex& index_;
  const SlhrGrammar& g_;
  const NodeMap& nm_;
  const std::vector<Incidence>& incidence_;
  bool out_;
  std::vector<uint64_t>* results_;
};

}  // namespace

std::vector<uint64_t> NeighborhoodIndex::NeighborsImpl(uint64_t id,
                                                       bool out) const {
  std::vector<uint64_t> results;
  Walker walker(*this, node_map_, incidence_, out, &results);
  walker.Run(node_map_.PathOf(id));
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  return results;
}

}  // namespace grepair
