#include "src/grammar/pruning.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace grepair {

namespace {

// Inline step of a rule that is never inlined. Compares greater than
// every real step, so it doubles as "alive until the end".
constexpr uint32_t kNeverInlined = ~0u;

// Labels of the nonterminal edges of a sequence of hypergraphs, in edge
// order, stored flat: list i is labels[offsets[i], offsets[i + 1]).
class LabelLists {
 public:
  void Append(const SlhrGrammar& g, const Hypergraph& h) {
    if (offsets_.empty()) offsets_.push_back(0);
    for (const auto& e : h.edges()) {
      if (g.IsNonterminal(e.label)) labels_.push_back(e.label);
    }
    offsets_.push_back(static_cast<uint32_t>(labels_.size()));
  }
  const Label* begin(uint32_t i) const { return labels_.data() + offsets_[i]; }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<Label> labels_;
};

// Copy of a right-hand-side edge with its attachment renamed by `node_map`.
HEdge MapEdge(const HEdge& e, const std::vector<NodeId>& node_map) {
  HEdge copy = e;
  for (NodeId& v : copy.att) v = node_map[v];
  return copy;
}

// Inlining engine shared by PruneGrammar and InlineRuleEverywhere.
//
// Inline(j) does the rule-side surgery at once: every rule that holds
// an edge labeled j gets a copy of rhs(j) in its place. That keeps
// |rhs| and the reference structure current for the pruning decisions,
// which never look at the start graph. Rule j's right-hand side at
// that moment is kept as the snapshot of its inline step.
//
// Finish() then applies all steps to the start graph and the node
// mapping in one pass. The result is exactly what inlining every step
// into the start graph in turn would give:
//  - Each start edge labeled by an inlined rule is replaced, in place,
//    by that rule's snapshot. Snapshot edges whose labels were inlined
//    later are replaced recursively, so the new edge list is the
//    document-order expansion of the old one.
//  - Sequentially, step s appends its new nodes after those of steps
//    < s, one block per replaced edge, in start-edge order. The
//    expansion is visited in that same relative order, so instance k of
//    step s gets the k-th block after all earlier steps' blocks; the
//    block sizes come from per-step instance counts computed up front.
//  - A derivation record mirrors the right-hand side of its rule as it
//    was before pruning. Its final form dissolves every child whose
//    rule was inlined while the record's own rule still existed: the
//    child's (already final) internal origins are appended as one group
//    at the child's step, and its children take its place. Groups are
//    ordered by step and, within a step, by edge order, exactly as the
//    per-step splices append them.
class Inliner {
 public:
  Inliner(SlhrGrammar* grammar, NodeMapping* mapping)
      : grammar_(grammar),
        mapping_(mapping),
        step_of_(grammar->num_rules(), kNeverInlined) {
    if (mapping_ != nullptr) {
      for (uint32_t j = 0; j < grammar_->num_rules(); ++j) {
        rule_children_.Append(*grammar_, grammar_->rhs_by_index(j));
      }
    }
  }

  // Inlines rule j into the rules listed in `hosts` (by index; stale
  // and duplicate entries are skipped) and clears its right-hand side.
  void Inline(uint32_t j, const std::vector<uint32_t>& hosts) {
    Label nt = grammar_->NonterminalLabel(j);
    Hypergraph rhs = std::move(*grammar_->mutable_rhs_by_index(j));
    grammar_->SetRule(nt, Hypergraph());
    for (uint32_t h : hosts) InlineIntoRule(nt, rhs, h);
    step_of_[j] = static_cast<uint32_t>(snapshots_.size());
    if (mapping_ != nullptr) snapshot_children_.Append(*grammar_, rhs);
    snapshots_.push_back(std::move(rhs));
  }

  // Applies every inline step to the start graph and the mapping.
  void Finish();

  uint64_t spliced_edges() const { return spliced_edges_; }

 private:
  uint32_t StepOf(Label l) const {
    return grammar_->IsNonterminal(l) ? step_of_[grammar_->RuleIndex(l)]
                                      : kNeverInlined;
  }

  // Copies `rhs_a` into the host rule in place of each A-labeled edge:
  // external node i of rhs_a merges with the edge's i-th attachment,
  // internal nodes are appended to the host, per A-edge in edge order.
  void InlineIntoRule(Label a, const Hypergraph& rhs_a, uint32_t host_index);

  void FinalizeRecord(DerivationRecord* root, Label label);
  void DissolveChildren(DerivationRecord* rec, Label label);
  void ExpandStartEdge(HEdge edge, DerivationRecord rec);

  SlhrGrammar* grammar_;
  NodeMapping* mapping_;
  std::vector<uint32_t> step_of_;      // per rule index
  std::vector<Hypergraph> snapshots_;  // per step: rhs at inline time
  // Nonterminal child labels of each rule before pruning and of each
  // snapshot (filled only when a mapping is tracked).
  LabelLists rule_children_;
  LabelLists snapshot_children_;
  uint64_t spliced_edges_ = 0;

  // Start-graph expansion state (Finish).
  std::vector<NodeId> step_base_;  // first new start node of each step
  std::vector<uint32_t> next_instance_;  // per step: instances numbered
  std::vector<HEdge> new_edges_;
  std::vector<DerivationRecord> new_records_;
};

void Inliner::InlineIntoRule(Label a, const Hypergraph& rhs_a,
                             uint32_t host_index) {
  Hypergraph* host = grammar_->mutable_rhs_by_index(host_index);
  bool has_a = false;
  for (const auto& e : host->edges()) {
    if (e.label == a) {
      has_a = true;
      break;
    }
  }
  if (!has_a) return;
  const uint32_t rank = static_cast<uint32_t>(rhs_a.ext().size());
  std::vector<HEdge> old_edges = host->TakeEdges();
  std::vector<HEdge> new_edges;
  new_edges.reserve(old_edges.size());
  std::vector<NodeId> node_map(rhs_a.num_nodes());
  for (auto& e : old_edges) {
    if (e.label != a) {
      new_edges.push_back(std::move(e));
      continue;
    }
    assert(e.att.size() == rank);
    for (uint32_t i = 0; i < rank; ++i) node_map[i] = e.att[i];
    for (uint32_t i = rank; i < rhs_a.num_nodes(); ++i) {
      node_map[i] = host->AddNode();
    }
    for (const auto& re : rhs_a.edges()) {
      new_edges.push_back(MapEdge(re, node_map));
    }
  }
  spliced_edges_ += new_edges.size();
  host->SetEdges(std::move(new_edges));
}

// Brings `root` (a record of rule `label`, shaped like the rules before
// pruning) and all records below it into final form, children first.
void Inliner::FinalizeRecord(DerivationRecord* root, Label label) {
  struct Work {
    DerivationRecord* rec;
    Label label;
    bool children_done;
  };
  std::vector<Work> stack = {{root, label, false}};
  while (!stack.empty()) {
    Work w = stack.back();
    stack.pop_back();
    if (w.children_done) {
      DissolveChildren(w.rec, w.label);
      continue;
    }
    stack.push_back({w.rec, w.label, true});
    const Label* labels = rule_children_.begin(grammar_->RuleIndex(w.label));
    for (size_t c = 0; c < w.rec->children.size(); ++c) {
      stack.push_back({&w.rec->children[c], labels[c], false});
    }
  }
}

// `rec`'s children are final; dissolves those whose rule was inlined
// before `label`'s own step, recursively through the children they
// bring along.
void Inliner::DissolveChildren(DerivationRecord* rec, Label label) {
  const uint32_t death = StepOf(label);
  const Label* labels = rule_children_.begin(grammar_->RuleIndex(label));
  bool any = false;
  for (size_t c = 0; c < rec->children.size() && !any; ++c) {
    any = StepOf(labels[c]) < death;
  }
  if (!any) return;

  struct Level {
    std::vector<DerivationRecord>* children;
    const Label* labels;
    size_t next;
  };
  std::vector<DerivationRecord> old_children = std::move(rec->children);
  std::vector<DerivationRecord> kept;
  std::vector<std::pair<uint32_t, std::vector<NodeId>>> groups;
  std::vector<Level> levels = {{&old_children, labels, 0}};
  while (!levels.empty()) {
    Level& level = levels.back();
    if (level.next == level.children->size()) {
      levels.pop_back();
      continue;
    }
    DerivationRecord& child = (*level.children)[level.next];
    uint32_t step = StepOf(level.labels[level.next]);
    ++level.next;
    if (step >= death) {
      kept.push_back(std::move(child));
      continue;
    }
    groups.emplace_back(step, std::move(child.internal_origs));
    levels.push_back({&child.children, snapshot_children_.begin(step), 0});
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  for (auto& group : groups) {
    rec->internal_origs.insert(rec->internal_origs.end(),
                               group.second.begin(), group.second.end());
  }
  rec->children = std::move(kept);
}

// Emits `edge` into the new start graph, expanding it (and whatever
// its snapshot brings along) when its rule was inlined. `rec` is final.
void Inliner::ExpandStartEdge(HEdge edge, DerivationRecord rec) {
  const bool track = mapping_ != nullptr;
  struct Frame {
    const Hypergraph* rhs;
    std::vector<NodeId> node_map;
    DerivationRecord rec;
    size_t next_edge = 0;
    size_t next_child = 0;
  };
  std::vector<Frame> frames;
  // Emits one edge: as is when its rule survives, else as a new frame.
  auto emit = [&](HEdge e, DerivationRecord r) {
    uint32_t step = StepOf(e.label);
    if (step == kNeverInlined) {
      new_edges_.push_back(std::move(e));
      if (track) new_records_.push_back(std::move(r));
      return;
    }
    Frame f;
    f.rhs = &snapshots_[step];
    const uint32_t rank = static_cast<uint32_t>(f.rhs->ext().size());
    const uint32_t internal = f.rhs->num_nodes() - rank;
    assert(e.att.size() == rank);
    f.node_map.assign(e.att.begin(), e.att.end());
    NodeId first = step_base_[step] + next_instance_[step]++ * internal;
    for (uint32_t i = 0; i < internal; ++i) f.node_map.push_back(first + i);
    if (track) {
      assert(r.internal_origs.size() == internal);
      for (uint32_t i = 0; i < internal; ++i) {
        mapping_->start_origs[first + i] = r.internal_origs[i];
      }
      f.rec = std::move(r);
    }
    frames.push_back(std::move(f));
  };
  emit(std::move(edge), std::move(rec));
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.next_edge == f.rhs->num_edges()) {
      assert(!track || f.next_child == f.rec.children.size());
      frames.pop_back();
      continue;
    }
    const HEdge& re = f.rhs->edge(static_cast<EdgeId>(f.next_edge++));
    DerivationRecord child;
    if (track && grammar_->IsNonterminal(re.label)) {
      child = std::move(f.rec.children[f.next_child++]);
    }
    emit(MapEdge(re, f.node_map), std::move(child));  // may invalidate f
  }
}

void Inliner::Finish() {
  Hypergraph* start = grammar_->mutable_start();
  const size_t num_steps = snapshots_.size();
  if (num_steps == 0) return;

  // Instances per step: the step's edges in the start graph at the time
  // it ran. Each start edge labeled A contributes one; each instance of
  // an earlier step contributes one per A-edge of its snapshot.
  std::vector<uint64_t> instances(num_steps, 0);
  for (const auto& e : start->edges()) {
    uint32_t step = StepOf(e.label);
    if (step != kNeverInlined) ++instances[step];
  }
  for (size_t s = 0; s < num_steps; ++s) {
    for (const auto& e : snapshots_[s].edges()) {
      uint32_t step = StepOf(e.label);
      if (step == kNeverInlined) continue;
      assert(step > s);
      instances[step] += instances[s];
    }
  }
  step_base_.resize(num_steps);
  uint64_t num_nodes = start->num_nodes();
  for (size_t s = 0; s < num_steps; ++s) {
    step_base_[s] = static_cast<NodeId>(num_nodes);
    num_nodes += instances[s] * (snapshots_[s].num_nodes() -
                                 snapshots_[s].ext().size());
  }
  assert(num_nodes <= kInvalidNode);

  const bool track = mapping_ != nullptr;
  if (track) mapping_->start_origs.resize(num_nodes);
  std::vector<HEdge> old_edges = start->TakeEdges();
  next_instance_.assign(num_steps, 0);
  for (EdgeId i = 0; i < old_edges.size(); ++i) {
    DerivationRecord rec;
    if (track) {
      rec = std::move(mapping_->edge_records[i]);
      if (grammar_->IsNonterminal(old_edges[i].label)) {
        FinalizeRecord(&rec, old_edges[i].label);
      }
    }
    ExpandStartEdge(std::move(old_edges[i]), std::move(rec));
  }
  start->AddNodes(static_cast<uint32_t>(num_nodes - start->num_nodes()));
  spliced_edges_ += new_edges_.size();
  start->SetEdges(std::move(new_edges_));
  if (track) mapping_->edge_records = std::move(new_records_);
}

}  // namespace

void InlineRuleEverywhere(SlhrGrammar* grammar, Label nt,
                          NodeMapping* mapping) {
  std::vector<uint32_t> hosts(grammar->num_rules());
  std::iota(hosts.begin(), hosts.end(), 0u);
  Inliner inliner(grammar, mapping);
  inliner.Inline(grammar->RuleIndex(nt), hosts);
  inliner.Finish();
  std::vector<char> dead(grammar->num_rules(), 0);
  dead[grammar->RuleIndex(nt)] = 1;
  grammar->CompactRules(dead);
}

PruneStats PruneGrammar(SlhrGrammar* grammar, NodeMapping* mapping,
                        const PruneOptions& options) {
  PruneStats stats;
  stats.size_before = grammar->TotalSize();

  uint32_t n = grammar->num_rules();
  std::vector<char> dead(n, 0);
  std::vector<uint64_t> refs = grammar->AllReferenceCounts();

  // Reference-location index: which rules mention each rule (the start
  // graph is expanded once at the end). Entries can go stale after
  // inlining (tolerated), and hosts gaining references through an
  // inline are appended.
  std::vector<std::vector<uint32_t>> host_refs(n);
  for (uint32_t j = 0; j < n; ++j) {
    for (const auto& e : grammar->rhs_by_index(j).edges()) {
      if (grammar->IsNonterminal(e.label)) {
        auto& list = host_refs[grammar->RuleIndex(e.label)];
        if (list.empty() || list.back() != j) list.push_back(j);
      }
    }
  }

  Inliner inliner(grammar, mapping);
  // Incremental ref maintenance: inlining A with ref(A)=r replaces each
  // A-edge by a copy of rhs(A), so every nonterminal B referenced k
  // times in rhs(A) gains r*k references and loses the k references from
  // the deleted rule itself: refs[B] += (r-1)*k.
  auto inline_rule = [&](uint32_t j) {
    int64_t r = static_cast<int64_t>(refs[j]);
    std::vector<uint32_t> children;
    for (const auto& e : grammar->rhs_by_index(j).edges()) {
      if (grammar->IsNonterminal(e.label)) {
        uint32_t child = grammar->RuleIndex(e.label);
        refs[child] = static_cast<uint64_t>(
            static_cast<int64_t>(refs[child]) + (r - 1));
        children.push_back(child);
      }
    }
    std::vector<uint32_t> hosts = std::move(host_refs[j]);
    host_refs[j].clear();
    inliner.Inline(j, hosts);
    // The hosts that contained A now contain A's children.
    for (uint32_t child : children) {
      for (uint32_t h : hosts) host_refs[child].push_back(h);
    }
    refs[j] = 0;
    dead[j] = 1;
  };

  bool removed_any = true;
  bool first_round = true;
  while (removed_any && (first_round || options.iterate_to_fixpoint)) {
    removed_any = false;
    first_round = false;

    if (options.remove_single_refs) {
      for (uint32_t j = 0; j < n; ++j) {
        if (dead[j] || refs[j] > 1) continue;
        // ref==1 never pays for itself; ref==0 is garbage either way.
        inline_rule(j);
        ++stats.removed_single_ref;
        removed_any = true;
      }
    }

    if (options.remove_nonpositive) {
      // Bottom-up <=NT order == ascending rule index.
      for (uint32_t j = 0; j < n; ++j) {
        if (dead[j]) continue;
        Label nt = grammar->NonterminalLabel(j);
        if (grammar->Contribution(nt, refs[j]) <= 0) {
          inline_rule(j);
          ++stats.removed_contribution;
          removed_any = true;
        }
      }
    }
  }

  inliner.Finish();
  grammar->CompactRules(dead);
  stats.size_after = grammar->TotalSize();
  stats.spliced_edges = inliner.spliced_edges();
  return stats;
}

}  // namespace grepair
