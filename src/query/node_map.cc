#include "src/query/node_map.h"

#include <algorithm>
#include <cassert>

namespace grepair {

NodeMap::NodeMap(const SlhrGrammar& grammar) : grammar_(&grammar) {
  const std::vector<uint64_t> gen = ComputeGeneratedSizes(grammar).gen_nodes;
  auto block = [&](const HEdge& e) -> uint64_t {
    return grammar.IsNonterminal(e.label) ? gen[grammar.RuleIndex(e.label)]
                                          : 0;
  };

  const Hypergraph& start = grammar.start();
  while (first_block_edge_ < start.num_edges() &&
         !grammar.IsNonterminal(start.edge(first_block_edge_).label)) {
    ++first_block_edge_;
  }
  start_base_.assign(start.num_edges() - first_block_edge_, 0);
  uint64_t acc = start.num_nodes();
  for (EdgeId e = first_block_edge_; e < start.num_edges(); ++e) {
    start_base_[e - first_block_edge_] = static_cast<uint32_t>(acc);
    acc += block(start.edge(e));
  }
  total_nodes_ = acc;
  assert(total_nodes_ <= kMaxValNodes);

  rule_begin_.assign(grammar.num_rules() + 1, 0);
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    rule_begin_[j + 1] = rule_begin_[j] + grammar.rhs_by_index(j).num_edges();
  }
  child_base_.assign(rule_begin_.back(), 0);
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    const Hypergraph& rhs = grammar.rhs_by_index(j);
    uint64_t sum = 0;
    for (EdgeId e = 0; e < rhs.num_edges(); ++e) {
      child_base_[rule_begin_[j] + e] = static_cast<uint32_t>(sum);
      sum += block(rhs.edge(e));
    }
  }
}

GPath NodeMap::PathOf(uint64_t id) const {
  assert(id < total_nodes_);
  GPath path;
  const Hypergraph& start = grammar_->start();
  if (id < start.num_nodes()) {
    path.node = static_cast<NodeId>(id);
    return path;
  }
  // The last start edge whose block begins at or before id: one exists
  // because start_base_[0] == |V_S| <= id. Among equal bases (empty
  // blocks) upper_bound - 1 picks the last, whose block holds id.
  auto at = std::upper_bound(start_base_.begin(), start_base_.end(), id) - 1;
  path.start_edge =
      first_block_edge_ + static_cast<EdgeId>(at - start_base_.begin());
  uint64_t offset = id - *at;

  Label label = start.edge(path.start_edge).label;
  for (;;) {
    uint32_t j = grammar_->RuleIndex(label);
    const Hypergraph& rhs = grammar_->rhs_by_index(j);
    uint64_t internal = rhs.num_nodes() - rhs.ext().size();
    if (offset < internal) {
      // Internal node: canonical ids put internals after the rank
      // externals.
      path.node = static_cast<NodeId>(rhs.ext().size() + offset);
      return path;
    }
    offset -= internal;
    // offset lies inside some child block here, and the first entry
    // is 0, so the predecessor exists and is a nonterminal edge.
    const uint32_t* begin = child_base_.data() + rule_begin_[j];
    const uint32_t* end = child_base_.data() + rule_begin_[j + 1];
    const uint32_t* child = std::upper_bound(begin, end, offset) - 1;
    path.steps.push_back(static_cast<uint32_t>(child - begin));
    offset -= *child;
    label = rhs.edge(path.steps.back()).label;
    assert(grammar_->IsNonterminal(label));
  }
}

uint64_t NodeMap::IdOf(const GPath& path) const {
  const Hypergraph& start = grammar_->start();
  if (path.start_edge == kInvalidEdge) {
    return path.node;
  }
  assert(path.start_edge >= first_block_edge_);
  uint64_t id = start_base_[path.start_edge - first_block_edge_];
  Label label = start.edge(path.start_edge).label;
  for (uint32_t step : path.steps) {
    uint32_t j = grammar_->RuleIndex(label);
    const Hypergraph& rhs = grammar_->rhs_by_index(j);
    id += rhs.num_nodes() - rhs.ext().size();
    id += child_base_[rule_begin_[j] + step];
    label = rhs.edge(step).label;
  }
  const Hypergraph& rhs = grammar_->rhs(label);
  assert(path.node >= rhs.ext().size() && path.node < rhs.num_nodes());
  id += path.node - rhs.ext().size();
  return id;
}

}  // namespace grepair
