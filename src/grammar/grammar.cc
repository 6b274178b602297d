#include "src/grammar/grammar.h"

#include <algorithm>
#include <cassert>

namespace grepair {

SlhrGrammar::SlhrGrammar(Alphabet terminals, Hypergraph start)
    : alphabet_(std::move(terminals)),
      num_terminals_(static_cast<uint32_t>(alphabet_.size())),
      start_(std::move(start)) {}

Label SlhrGrammar::AddNonterminal(int rank, std::string name) {
  if (name.empty()) {
    name = "N" + std::to_string(rules_.size());
  }
  Label l = alphabet_.Add(std::move(name), rank);
  rules_.emplace_back();
  assert(RuleIndex(l) == rules_.size() - 1);
  return l;
}

void SlhrGrammar::SetRule(Label nt, Hypergraph rhs) {
  assert(IsNonterminal(nt));
  rules_[RuleIndex(nt)] = std::move(rhs);
}

uint64_t SlhrGrammar::RuleSize() const {
  uint64_t size = 0;
  for (const auto& rhs : rules_) size += rhs.TotalSize();
  return size;
}

std::vector<uint64_t> SlhrGrammar::AllReferenceCounts() const {
  std::vector<uint64_t> refs(rules_.size(), 0);
  auto scan = [&](const Hypergraph& g) {
    for (const auto& e : g.edges()) {
      if (IsNonterminal(e.label)) ++refs[RuleIndex(e.label)];
    }
  };
  scan(start_);
  for (const auto& rhs : rules_) scan(rhs);
  return refs;
}

uint32_t SlhrGrammar::Height() const {
  // heights[j] = longest chain below rule j (>= 1 for any rule).
  std::vector<uint32_t> heights(rules_.size(), 1);
  for (uint32_t j = 0; j < rules_.size(); ++j) {
    for (const auto& e : rules_[j].edges()) {
      if (IsNonterminal(e.label)) {
        assert(RuleIndex(e.label) < j);
        heights[j] = std::max(heights[j], heights[RuleIndex(e.label)] + 1);
      }
    }
  }
  uint32_t h = 0;
  for (const auto& e : start_.edges()) {
    if (IsNonterminal(e.label)) {
      h = std::max(h, heights[RuleIndex(e.label)]);
    }
  }
  return h;
}

Status SlhrGrammar::Validate() const {
  GREPAIR_RETURN_IF_ERROR(start_.Validate(alphabet_));
  if (!start_.ext().empty()) {
    return Status::InvalidArgument("start graph must have no external nodes");
  }
  const StartAdjacency::LabelGroups groups = start_adjacency_.GroupByLabel();
  for (Label l = 0; l + 1 < groups.begin.size(); ++l) {
    if (groups.begin[l] == groups.begin[l + 1]) continue;
    if (!IsTerminal(l) || alphabet_.rank(l) != 2) {
      return Status::InvalidArgument(
          "start adjacency holds a label that is not terminal rank 2");
    }
    for (uint64_t i = groups.begin[l]; i < groups.begin[l + 1]; ++i) {
      const uint64_t u = groups.keys[i] >> 32;
      const uint64_t v = groups.keys[i] & 0xFFFFFFFFu;
      if (u == v || u >= start_.num_nodes() || v >= start_.num_nodes()) {
        return Status::InvalidArgument("bad start adjacency edge");
      }
    }
  }
  return ValidateRules();
}

Status SlhrGrammar::ValidateRules() const {
  for (uint32_t j = 0; j < rules_.size(); ++j) {
    const Hypergraph& rhs = rules_[j];
    GREPAIR_RETURN_IF_ERROR(rhs.Validate(alphabet_));
    Label nt = NonterminalLabel(j);
    if (rhs.rank() != alphabet_.rank(nt)) {
      return Status::InvalidArgument(
          "rule " + std::to_string(j) + ": rank(rhs)=" +
          std::to_string(rhs.rank()) + " != rank(A)=" +
          std::to_string(alphabet_.rank(nt)));
    }
    // Canonical form: external node i has id i.
    for (size_t i = 0; i < rhs.ext().size(); ++i) {
      if (rhs.ext()[i] != i) {
        return Status::InvalidArgument(
            "rule " + std::to_string(j) + " not in canonical form");
      }
    }
    // Straight-line bottom-up order: only references to earlier rules.
    for (const auto& e : rhs.edges()) {
      if (IsNonterminal(e.label) && RuleIndex(e.label) >= j) {
        return Status::InvalidArgument(
            "rule " + std::to_string(j) +
            " references rule " + std::to_string(RuleIndex(e.label)) +
            " (not bottom-up / cyclic)");
      }
    }
  }
  return Status::OK();
}

int64_t SlhrGrammar::Contribution(Label nt, uint64_t ref) const {
  const Hypergraph& r = rhs(nt);
  int64_t rhs_size = static_cast<int64_t>(r.TotalSize());
  int64_t handle = static_cast<int64_t>(HandleSize(alphabet_.rank(nt)));
  return static_cast<int64_t>(ref) * (rhs_size - handle) - rhs_size;
}

void SlhrGrammar::CompactRules(const std::vector<char>& dead) {
  assert(dead.size() == rules_.size());
  std::vector<Label> remap(alphabet_.size(), kInvalidLabel);
  Alphabet new_alpha;
  for (Label l = 0; l < num_terminals_; ++l) {
    new_alpha.Add(alphabet_.name(l), alphabet_.rank(l));
    remap[l] = l;
  }
  for (uint32_t j = 0; j < rules_.size(); ++j) {
    if (dead[j]) continue;
    Label old_label = NonterminalLabel(j);
    remap[old_label] =
        new_alpha.Add(alphabet_.name(old_label), alphabet_.rank(old_label));
  }
  auto relabel = [&](Hypergraph* g) {
    for (EdgeId i = 0; i < g->num_edges(); ++i) {
      Label& l = g->mutable_edge(i).label;
      assert(remap[l] != kInvalidLabel && "dead rule still referenced");
      l = remap[l];
    }
  };
  std::vector<Hypergraph> new_rules;
  new_rules.reserve(rules_.size());
  for (uint32_t j = 0; j < rules_.size(); ++j) {
    if (dead[j]) continue;
    relabel(&rules_[j]);
    new_rules.push_back(std::move(rules_[j]));
  }
  relabel(&start_);
  rules_ = std::move(new_rules);
  alphabet_ = std::move(new_alpha);
}

GrammarStats ComputeGrammarStats(const SlhrGrammar& grammar) {
  GrammarStats stats;
  stats.num_rules = grammar.num_rules();
  stats.height = grammar.Height();
  stats.rule_size = grammar.RuleSize();
  stats.start_size =
      grammar.start().TotalSize() + grammar.start_adjacency().num_edges();
  stats.total_size = stats.rule_size + stats.start_size;
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    stats.max_nonterminal_rank = std::max(
        stats.max_nonterminal_rank,
        static_cast<uint32_t>(grammar.rank(grammar.NonterminalLabel(j))));
  }
  stats.start_nodes = grammar.start().num_nodes();
  stats.start_edges = static_cast<uint32_t>(grammar.num_start_edges());
  return stats;
}

}  // namespace grepair
