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
HEdge MapEdge(const HEdge& e, const NodeId* node_map) {
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
// The records live in the mapping's arena (derivation.h): dissolving a
// child relinks its children into its parent's chain and gives the
// parent a fresh origin slice at the end of the pool. The walks keep
// their stacks in members, so Finish allocates nothing per record.
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

  void FinalizeRecord(RecordId root, Label label);
  void DissolveChildren(RecordId rec, Label label);
  void ExpandStartEdge(HEdge edge, RecordId rec);

  DerivationRecord& record(RecordId r) { return mapping_->records[r]; }

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
  std::vector<RecordId> new_records_;

  // Scratch of the record and expansion walks, reused across calls.
  struct FinalizeWork {
    RecordId rec;
    Label label;
    bool children_done;
  };
  struct DissolveLevel {
    RecordId next;         // next child to visit at this level
    const Label* labels;   // rule labels of this level's children
    size_t index;          // position of `next` among them
  };
  struct DissolvedGroup {
    uint32_t step;
    uint32_t seq;  // visit order
    RecordId rec;
    bool operator<(const DissolvedGroup& o) const {
      return step != o.step ? step < o.step : seq < o.seq;
    }
  };
  struct ExpandFrame {
    const Hypergraph* rhs;
    size_t map_begin;      // rhs node id -> start node id, in maps_
    RecordId next_child;   // record of the next nonterminal rhs edge
    size_t next_edge;
  };
  std::vector<FinalizeWork> finalize_stack_;
  std::vector<DissolveLevel> levels_;
  std::vector<DissolvedGroup> groups_;
  std::vector<ExpandFrame> frames_;
  std::vector<NodeId> maps_;
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
      new_edges.push_back(MapEdge(re, node_map.data()));
    }
  }
  spliced_edges_ += new_edges.size();
  host->SetEdges(std::move(new_edges));
}

// Brings `root` (a record of rule `label`, shaped like the rules before
// pruning) and all records below it into final form, children first.
void Inliner::FinalizeRecord(RecordId root, Label label) {
  finalize_stack_.push_back({root, label, false});
  while (!finalize_stack_.empty()) {
    FinalizeWork w = finalize_stack_.back();
    finalize_stack_.pop_back();
    if (w.children_done) {
      DissolveChildren(w.rec, w.label);
      continue;
    }
    finalize_stack_.push_back({w.rec, w.label, true});
    const Label* labels = rule_children_.begin(grammar_->RuleIndex(w.label));
    size_t c = 0;
    for (RecordId child = record(w.rec).first_child; child != kNoRecord;
         child = record(child).next_sibling) {
      finalize_stack_.push_back({child, labels[c++], false});
    }
  }
}

// `rec`'s children are final; dissolves those whose rule was inlined
// before `label`'s own step, recursively through the children they
// bring along.
void Inliner::DissolveChildren(RecordId rec, Label label) {
  const uint32_t death = StepOf(label);
  const Label* labels = rule_children_.begin(grammar_->RuleIndex(label));
  bool any = false;
  size_t c = 0;
  for (RecordId child = record(rec).first_child; child != kNoRecord && !any;
       child = record(child).next_sibling) {
    any = StepOf(labels[c++]) < death;
  }
  if (!any) return;

  // Kept records form rec's new chain; each one's old next_sibling is
  // read before the chain overwrites it.
  RecordId kept_head = kNoRecord;
  RecordId kept_tail = kNoRecord;
  groups_.clear();
  levels_.push_back({record(rec).first_child, labels, 0});
  while (!levels_.empty()) {
    DissolveLevel& level = levels_.back();
    if (level.next == kNoRecord) {
      levels_.pop_back();
      continue;
    }
    const RecordId child = level.next;
    const uint32_t step = StepOf(level.labels[level.index++]);
    level.next = record(child).next_sibling;
    if (step >= death) {
      if (kept_tail == kNoRecord) {
        kept_head = child;
      } else {
        record(kept_tail).next_sibling = child;
      }
      kept_tail = child;
      continue;
    }
    groups_.push_back({step, static_cast<uint32_t>(groups_.size()), child});
    levels_.push_back(
        {record(child).first_child, snapshot_children_.begin(step), 0});
  }
  if (kept_tail != kNoRecord) record(kept_tail).next_sibling = kNoRecord;
  // By step, then in visit order: a stable sort that, unlike
  // std::stable_sort, needs no buffer of its own.
  std::sort(groups_.begin(), groups_.end());
  // rec's origins, then each group's, become one new slice at the end
  // of the pool (copied by index: the sources live in the same pool).
  std::vector<NodeId>& pool = mapping_->origs;
  size_t total = record(rec).num_origs;
  for (const auto& group : groups_) total += record(group.rec).num_origs;
  if (pool.capacity() < pool.size() + total) {
    pool.reserve(std::max(pool.size() + total, 2 * pool.capacity()));
  }
  const uint32_t first = static_cast<uint32_t>(pool.size());
  auto append = [&](RecordId r) {
    const size_t begin = record(r).first_orig;
    for (size_t i = begin; i < begin + record(r).num_origs; ++i) {
      pool.push_back(pool[i]);
    }
  };
  append(rec);
  for (const auto& group : groups_) append(group.rec);
  DerivationRecord& out = record(rec);
  out.first_orig = first;
  out.num_origs = static_cast<uint32_t>(total);
  out.first_child = kept_head;
}

// Emits `edge` into the new start graph, expanding it (and whatever
// its snapshot brings along) when its rule was inlined. `rec` is final.
void Inliner::ExpandStartEdge(HEdge edge, RecordId rec) {
  const bool track = mapping_ != nullptr;
  // Emits one edge: as is when its rule survives, else as a new frame.
  auto emit = [&](HEdge e, RecordId r) {
    uint32_t step = StepOf(e.label);
    if (step == kNeverInlined) {
      new_edges_.push_back(std::move(e));
      if (track) {
        // A start edge's record ends no sibling chain.
        if (r != kNoRecord) record(r).next_sibling = kNoRecord;
        new_records_.push_back(r);
      }
      return;
    }
    const Hypergraph* rhs = &snapshots_[step];
    const uint32_t rank = static_cast<uint32_t>(rhs->ext().size());
    const uint32_t internal = rhs->num_nodes() - rank;
    assert(e.att.size() == rank);
    const size_t map_begin = maps_.size();
    maps_.insert(maps_.end(), e.att.begin(), e.att.end());
    NodeId first = step_base_[step] + next_instance_[step]++ * internal;
    for (uint32_t i = 0; i < internal; ++i) maps_.push_back(first + i);
    RecordId next_child = kNoRecord;
    if (track) {
      assert(record(r).num_origs == internal);
      const NodeId* origs = mapping_->internal_origs(r);
      std::copy(origs, origs + internal,
                mapping_->start_origs.begin() + first);
      next_child = record(r).first_child;
    }
    frames_.push_back({rhs, map_begin, next_child, 0});
  };
  emit(std::move(edge), rec);
  while (!frames_.empty()) {
    ExpandFrame& f = frames_.back();
    if (f.next_edge == f.rhs->num_edges()) {
      assert(!track || f.next_child == kNoRecord);
      maps_.resize(f.map_begin);
      frames_.pop_back();
      continue;
    }
    const HEdge& re = f.rhs->edge(static_cast<EdgeId>(f.next_edge++));
    RecordId child = kNoRecord;
    if (track && grammar_->IsNonterminal(re.label)) {
      child = f.next_child;
      f.next_child = record(child).next_sibling;
    }
    // MapEdge copies before emit may grow maps_ and frames_ (and so
    // invalidate f).
    emit(MapEdge(re, maps_.data() + f.map_begin), child);
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
  if (track) new_records_.reserve(old_edges.size());
  for (EdgeId i = 0; i < old_edges.size(); ++i) {
    RecordId rec = kNoRecord;
    if (track) {
      rec = mapping_->edge_records[i];
      if (grammar_->IsNonterminal(old_edges[i].label)) {
        FinalizeRecord(rec, old_edges[i].label);
      }
    }
    ExpandStartEdge(std::move(old_edges[i]), rec);
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
