#include "src/grepair/compressor.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/encoding/grammar_coder.h"
#include "src/graph/graph_algos.h"
#include "src/grepair/occurrence_index.h"

namespace grepair {

namespace {

// Mutable working form of the start graph during compression, plus all
// transient pairing state. Node/edge slots are never reused; dead slots
// are skipped (and incidence lists compacted lazily).
class Compressor {
 public:
  Compressor(const Hypergraph& graph, const Alphabet& alphabet,
             const CompressOptions& options)
      : options_(options), input_(graph) {
    work_alphabet_ = alphabet;
    if (options_.connect_components) {
      virtual_label_ = work_alphabet_.Add("__virtual__", 2);
    }
    num_terminals_ = static_cast<uint32_t>(work_alphabet_.size());

    node_alive_.assign(graph.num_nodes(), 1);
    degree_.assign(graph.num_nodes(), 0);
    incidence_.resize(graph.num_nodes());
    round_lists_.resize(graph.num_nodes());
    dead_incident_.assign(graph.num_nodes(), 0);
    if (options_.track_node_mapping) {
      orig_.resize(graph.num_nodes());
      for (NodeId v = 0; v < graph.num_nodes(); ++v) orig_[v] = v;
    }
    for (const auto& e : graph.edges()) {
      AddWorkEdge(e.label, e.att);
    }
    // The node order omega is fixed once on the input graph
    // (Section III-A); the virtual-edge pass reuses it restricted to
    // the surviving nodes.
    order_ = ComputeNodeOrder(graph, options_.node_order,
                              options_.order_seed);
  }

  Result<CompressResult> Run() {
    stats_.input_size = input_.TotalSize();

    RunPass();
    if (options_.connect_components) {
      if (AddVirtualEdges() > 0) {
        RunPass();
      }
      StripVirtualEdges();
    }

    NodeMapping mapping;
    NodeMapping* tracked = options_.track_node_mapping ? &mapping : nullptr;
    CompressResult result = Assemble(tracked);
    if (options_.prune) {
      result.stats.prune_stats =
          PruneGrammar(&result.grammar, tracked, options_.prune_options);
    }
    // Finish in canonical start-edge order so the binary encoder can
    // round-trip val(G) exactly.
    CanonicalizeStartEdgeOrder(&result.grammar, tracked);
    if (tracked != nullptr) {
      auto origins = FlattenOrigins(result.grammar, mapping);
      if (!origins.ok()) return origins.status();
      result.origins = std::move(origins).ValueOrDie();
    }
    result.stats.rules_after_prune = result.grammar.num_rules();
    result.stats.output_size = result.grammar.TotalSize();
    return result;
  }

 private:
  // One occurrence an edge participates in, with the label of the
  // occurrence's other edge (which never changes while it is stored).
  struct OccRef {
    OccId oid;
    Label partner;
  };

  struct WEdge {
    HEdge edge;
    bool alive = true;
    std::vector<OccRef> occs;  // occurrences this edge participates in
  };

  // Entries of the per-round pairing lists: edges of one label at one
  // node, consumed front to back. Reset every round (see PairNewEdge).
  struct RoundList {
    Label label = kInvalidLabel;
    uint32_t cursor = 0;
    std::vector<EdgeId> edges;
  };

  // A node's round lists: slots [first, first + count) of round_slots_,
  // ascending by label, in a block with room for `capacity` lists. A
  // node is materialized this round exactly when count > 0.
  struct NodeRoundLists {
    uint32_t first = 0;
    uint32_t count = 0;
    uint32_t capacity = 0;
  };

  // Round lists that grew past this many entries give their memory back
  // at the end of the round; the many small ones keep it.
  static constexpr size_t kKeptRoundListCapacity = 64;

  // Scratch entry for grouping a node's incident edges by a key; the
  // sequence number keeps incidence order within a key under std::sort.
  struct KeyedEdge {
    uint64_t key;
    uint32_t seq;
    EdgeId edge;
    bool operator<(const KeyedEdge& o) const {
      return key != o.key ? key < o.key : seq < o.seq;
    }
  };

  bool IsNonterminalLabel(Label l) const { return l >= num_terminals_; }

  EdgeId AddWorkEdge(Label label, const Attachments& att) {
    EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(WEdge{HEdge{label, att}, true, {}});
    if (options_.track_node_mapping) records_.emplace_back();
    for (NodeId v : edges_[id].edge.att) {
      incidence_[v].push_back(id);
      ++degree_[v];
      // Keep any materialized round list at v complete: new nonterminal
      // edges must be pairable at shared hub nodes. Creating the label
      // entry on demand matters — the fill at materialization time only
      // saw labels that existed then.
      if (round_lists_[v].count > 0) {
        RoundListFor(v, label).edges.push_back(id);
      }
    }
    return id;
  }

  // Takes n slots off the round's slot arena. Slots are reused round
  // after round, so their edge vectors keep their capacity.
  uint32_t AllocateRoundSlots(uint32_t n) {
    const uint32_t first = round_slots_used_;
    round_slots_used_ += n;
    if (round_slots_.size() < round_slots_used_) {
      round_slots_.resize(round_slots_used_);
    }
    return first;
  }

  RoundList& InitRoundSlot(uint32_t slot, Label label) {
    RoundList& list = round_slots_[slot];
    list.label = label;
    list.cursor = 0;
    list.edges.clear();
    return list;
  }

  // The round list for `label` at materialized node v, created in label
  // order when missing.
  RoundList& RoundListFor(NodeId v, Label label) {
    NodeRoundLists& node = round_lists_[v];
    auto begin = round_slots_.begin() + node.first;
    auto end = begin + node.count;
    auto it = std::lower_bound(
        begin, end, label,
        [](const RoundList& list, Label l) { return list.label < l; });
    if (it != end && it->label == label) return *it;
    const auto pos = it - begin;
    if (node.count == node.capacity) {
      // Full: move the lists to a block twice the size.
      const uint32_t first = AllocateRoundSlots(2 * node.capacity);
      for (uint32_t k = 0; k < node.count; ++k) {
        std::swap(round_slots_[first + k], round_slots_[node.first + k]);
      }
      node.first = first;
      node.capacity *= 2;
    }
    InitRoundSlot(node.first + node.count++, label);
    auto block = round_slots_.begin() + node.first;
    std::rotate(block + pos, block + node.count - 1, block + node.count);
    return block[pos];
  }

  // Ends the round: every materialized node goes back to zero lists.
  void ResetRoundLists() {
    for (NodeId v : touched_) round_lists_[v].count = 0;
    touched_.clear();
    for (uint32_t i = 0; i < round_slots_used_; ++i) {
      if (round_slots_[i].edges.capacity() > kKeptRoundListCapacity) {
        round_slots_[i].edges = std::vector<EdgeId>();
      }
    }
    round_slots_used_ = 0;
  }

  void KillEdge(EdgeId e) {
    assert(edges_[e].alive);
    edges_[e].alive = false;
    for (NodeId v : edges_[e].edge.att) {
      assert(degree_[v] > 0);
      --degree_[v];
      ++dead_incident_[v];
    }
  }

  // Compacts v's incidence list when at least half of it is dead.
  void MaybeCompactIncidence(NodeId v) {
    auto& inc = incidence_[v];
    if (dead_incident_[v] * 2 < inc.size()) return;
    size_t out = 0;
    for (EdgeId e : inc) {
      if (edges_[e].alive) inc[out++] = e;
    }
    inc.resize(out);
    dead_incident_[v] = 0;
  }

  // True if edge e is already in an occurrence whose other edge carries
  // label `partner` (the availability predicate of Section III-C1).
  bool HasOccWithPartner(EdgeId e, Label partner) const {
    for (const OccRef& ref : edges_[e].occs) {
      if (ref.partner == partner) return true;
    }
    return false;
  }

  // Attempts to register {x, y} as an occurrence of its digram. Returns
  // true if an occurrence was created.
  bool TryCreateOccurrence(EdgeId x, EdgeId y) {
    if (x == y) return false;
    const WEdge& ex = edges_[x];
    const WEdge& ey = edges_[y];
    if (!ex.alive || !ey.alive) return false;
    // Never pair two virtual edges: their rule would derive nothing
    // after the virtual edges are stripped.
    if (options_.connect_components && ex.edge.label == virtual_label_ &&
        ey.edge.label == virtual_label_) {
      return false;
    }
    if (HasOccWithPartner(x, ey.edge.label) ||
        HasOccWithPartner(y, ex.edge.label)) {
      return false;
    }
    DigramShape shape;
    bool swapped = false;
    // degree_ counts live incident edges, x and y included.
    auto degree = [&](NodeId v) { return degree_[v]; };
    if (!ComputeDigramShape(ex.edge, ey.edge, degree, options_.max_rank,
                            &shape, &swapped)) {
      return false;
    }
    // Rank 0 (no external node): the pair is a whole component.
    if (shape.ext0 == 0 && shape.ext1 == 0) return false;

    EdgeId e0 = swapped ? y : x;
    EdgeId e1 = swapped ? x : y;
    OccId oid = index_->Add(shape, e0, e1);
    edges_[x].occs.push_back({oid, ey.edge.label});
    edges_[y].occs.push_back({oid, ex.edge.label});
    return true;
  }

  // Removes every occurrence edge e participates in, fixing up the
  // partner edges' back references. Surviving partners become available
  // again for the partner label they just lost, so they are re-pushed
  // onto any materialized round lists (the "available list" maintenance
  // of Section III-C1; without it, edges freed mid-round could never be
  // paired with later nonterminal edges).
  void RemoveOccurrencesOf(EdgeId e) {
    for (const OccRef& ref : edges_[e].occs) {
      const OccId oid = ref.oid;
      const Occurrence& o = index_->occ(oid);
      if (!o.alive) continue;
      EdgeId other = o.other(e);
      auto& other_occs = edges_[other].occs;
      other_occs.erase(std::find_if(
          other_occs.begin(), other_occs.end(),
          [oid](const OccRef& r) { return r.oid == oid; }));
      index_->Remove(oid);
      if (edges_[other].alive) RepushToRoundLists(other);
    }
    edges_[e].occs.clear();
  }

  // Makes `e` visible again to round-list scans at all its nodes.
  void RepushToRoundLists(EdgeId e) {
    Label label = edges_[e].edge.label;
    for (NodeId v : edges_[e].edge.att) {
      if (round_lists_[v].count > 0) {
        RoundListFor(v, label).edges.push_back(e);
      }
    }
  }

  // ---- Step 2: initial occurrence counting ------------------------------

  // Counts occurrences centered around v: incident live edges are
  // grouped by (label, position-of-v), and for every group pair the
  // available edges are matched one-to-one (the Occ(E1,E2) split of
  // Section III-C1). Only O(deg) candidate pairs are formed.
  void CountAroundNode(NodeId v) {
    MaybeCompactIncidence(v);
    // Type key = (label << 8) | position-of-v.
    typed_.clear();
    for (EdgeId e : incidence_[v]) {
      if (!edges_[e].alive) continue;
      uint64_t pos = 0;
      const auto& att = edges_[e].edge.att;
      for (size_t i = 0; i < att.size(); ++i) {
        if (att[i] == v) pos = i;
      }
      typed_.push_back(
          {(static_cast<uint64_t>(edges_[e].edge.label) << 8) | pos,
           static_cast<uint32_t>(typed_.size()), e});
    }
    std::sort(typed_.begin(), typed_.end());
    // Group boundaries.
    groups_.clear();
    for (size_t i = 0; i < typed_.size();) {
      size_t j = i;
      while (j < typed_.size() && typed_[j].key == typed_[i].key) ++j;
      groups_.push_back({i, j});
      i = j;
    }
    auto label_of_group = [&](size_t g) {
      return static_cast<Label>(typed_[groups_[g].first].key >> 8);
    };
    // Fills *out with the group's edges that are still available for a
    // partner of label `partner`.
    auto collect = [&](size_t g, Label partner, std::vector<EdgeId>* out) {
      out->clear();
      for (size_t i = groups_[g].first; i < groups_[g].second; ++i) {
        EdgeId e = typed_[i].edge;
        if (edges_[e].alive && !HasOccWithPartner(e, partner)) {
          out->push_back(e);
        }
      }
    };
    for (size_t g1 = 0; g1 < groups_.size(); ++g1) {
      for (size_t g2 = g1; g2 < groups_.size(); ++g2) {
        Label lab1 = label_of_group(g1);
        Label lab2 = label_of_group(g2);
        if (g1 == g2) {
          // Same type: split the available edges into halves E1, E2 and
          // pair element-wise.
          collect(g1, lab2, &list1_);
          size_t n = list1_.size() / 2;
          for (size_t i = 0; i < n; ++i) {
            TryCreateOccurrence(list1_[i], list1_[n + i]);
          }
        } else {
          collect(g1, lab2, &list1_);
          collect(g2, lab1, &list2_);
          size_t n = std::min(list1_.size(), list2_.size());
          for (size_t i = 0; i < n; ++i) {
            TryCreateOccurrence(list1_[i], list2_[i]);
          }
        }
      }
    }
  }

  // Snapshot of the current live graph (dead nodes stay as isolated
  // slots so ids line up), whose components the virtual-edge pass
  // connects.
  Hypergraph Snapshot() const {
    Hypergraph g(static_cast<uint32_t>(node_alive_.size()));
    g.ReserveEdges(CountLiveEdges());
    for (const auto& e : edges_) {
      if (e.alive) g.AddEdge(e.edge.label, e.edge.att);
    }
    return g;
  }

  void InitialCount() {
    for (NodeId v : order_) {
      if (node_alive_[v]) CountAroundNode(v);
    }
  }

  // ---- Steps 3-7: replacement loop ---------------------------------------

  // Replaces every occurrence of the digram, creating rule A -> digram.
  void ReplaceDigram(DigramId did) {
    const DigramShape shape = index_->digram(did).shape;  // copy: stable
    Label a_label = work_alphabet_.Add(
        "N" + std::to_string(rule_rhs_.size()), shape.NumExternal());
    rule_rhs_.push_back(BuildDigramRhs(shape));
    ResetRoundLists();

    Attachments attachment;
    std::vector<NodeId> removal;
    for (;;) {
      OccId oid = index_->FirstOccurrence(did);
      if (oid == kInvalidOcc) break;
      Occurrence o = index_->occ(oid);  // copy before removal
      EdgeId e0 = o.edge0, e1 = o.edge1;
      MapOccurrenceNodes(shape, edges_[e0].edge.att, edges_[e1].edge.att,
                         &attachment, &removal);

      // Drop all occurrences using e0/e1 (including this one).
      RemoveOccurrencesOf(e0);
      RemoveOccurrencesOf(e1);
      KillEdge(e0);
      KillEdge(e1);
      for (NodeId v : removal) {
        assert(degree_[v] == 0 && "removal node still has live edges");
        node_alive_[v] = 0;
      }
      EdgeId ne = AddWorkEdge(a_label, attachment);
      if (options_.track_node_mapping) {
        DerivationRecord rec;
        rec.internal_origs.reserve(removal.size());
        for (NodeId v : removal) rec.internal_origs.push_back(orig_[v]);
        // Children follow the rhs edge order [edge0, edge1].
        if (IsNonterminalLabel(edges_[e0].edge.label)) {
          rec.children.push_back(std::move(records_[e0]));
        }
        if (IsNonterminalLabel(edges_[e1].edge.label)) {
          rec.children.push_back(std::move(records_[e1]));
        }
        records_[ne] = std::move(rec);
      }
      ++stats_.occurrences_replaced;
      PairNewEdge(ne);
    }
    ++stats_.digrams_replaced;
  }

  // Step 6 for one new nonterminal edge: at each attachment node, pair
  // e' with the first available edge of every label (Section III-C1's
  // per-label available lists; ours are materialized lazily per round,
  // which is equivalent because the partner label — the fresh
  // nonterminal — cannot have pre-round pairings).
  void PairNewEdge(EdgeId ne) {
    Label a_label = edges_[ne].edge.label;
    // TryCreateOccurrence adds no edge, so the attachment stays put.
    for (NodeId v : edges_[ne].edge.att) {
      const NodeRoundLists& node = round_lists_[v];
      if (node.count == 0) MaterializeRoundLists(v);
      // TryCreateOccurrence never touches round lists, so v's lists
      // neither move nor grow in number during this loop.
      for (uint32_t k = 0; k < node.count; ++k) {
        RoundList& list = round_slots_[node.first + k];
        Label label = list.label;
        if (HasOccWithPartner(ne, label)) continue;
        // Entries are consumed front-to-back; every skip consumes its
        // entry so a round's total scan work at a node stays linear:
        //  * dead edges are gone for good,
        //  * ne itself is re-appended once (the next new edge can and
        //    should pair with it — this is how hub stars cascade),
        //  * edges busy with an a_label partner are re-pushed by
        //    RemoveOccurrencesOf if that occurrence later dissolves,
        //  * rank-rejected shapes are NOT retried: another new edge of
        //    the same label would form (nearly) the same shape, and
        //    re-adding them makes hubs quadratic.
        bool readd_self = false;
        while (list.cursor < list.edges.size()) {
          EdgeId f = list.edges[list.cursor++];
          if (!edges_[f].alive) continue;
          if (f == ne) {
            readd_self = true;
            continue;
          }
          if (HasOccWithPartner(f, a_label)) continue;
          if (TryCreateOccurrence(ne, f)) break;
        }
        if (readd_self) list.edges.push_back(ne);
      }
    }
  }

  // Fills v's round lists with its live incident edges, grouped by label
  // in incidence order.
  void MaterializeRoundLists(NodeId v) {
    MaybeCompactIncidence(v);
    typed_.clear();
    for (EdgeId e : incidence_[v]) {
      if (edges_[e].alive) {
        typed_.push_back({edges_[e].edge.label,
                          static_cast<uint32_t>(typed_.size()), e});
      }
    }
    std::sort(typed_.begin(), typed_.end());
    uint32_t num_labels = 0;
    for (size_t i = 0; i < typed_.size(); ++i) {
      if (i == 0 || typed_[i].key != typed_[i - 1].key) ++num_labels;
    }
    NodeRoundLists& node = round_lists_[v];
    node.first = AllocateRoundSlots(num_labels);
    node.capacity = num_labels;
    node.count = 0;
    RoundList* list = nullptr;
    for (const KeyedEdge& k : typed_) {
      if (list == nullptr || list->label != k.key) {
        list = &InitRoundSlot(node.first + node.count++,
                              static_cast<Label>(k.key));
      }
      list->edges.push_back(k.edge);
    }
    touched_.push_back(v);
  }

  void RunPass() {
    index_ = std::make_unique<OccurrenceIndex>(CountLiveEdges());
    for (auto& e : edges_) e.occs.clear();
    ResetRoundLists();
    InitialCount();
    for (;;) {
      DigramId did = index_->PopMaxDigram();
      if (did == kInvalidDigram) break;
      ReplaceDigram(did);
    }
    stats_.occurrences_indexed += index_->total_occurrences_added();
  }

  uint32_t CountLiveEdges() const {
    uint32_t n = 0;
    for (const auto& e : edges_) n += e.alive ? 1 : 0;
    return n;
  }

  // ---- Virtual edges (Section III-A, step after the main loop) ----------

  uint32_t AddVirtualEdges() {
    Hypergraph snapshot = Snapshot();
    uint32_t num_components = 0;
    auto comp = ConnectedComponents(snapshot, &num_components);
    // Representative per component = lowest live node id; skip
    // components that are dead slots.
    std::vector<NodeId> rep(num_components, kInvalidNode);
    for (NodeId v = 0; v < snapshot.num_nodes(); ++v) {
      if (!node_alive_[v]) continue;
      if (rep[comp[v]] == kInvalidNode) rep[comp[v]] = v;
    }
    std::vector<NodeId> reps;
    for (uint32_t c = 0; c < num_components; ++c) {
      if (rep[c] != kInvalidNode) reps.push_back(rep[c]);
    }
    if (reps.size() <= 1) return 0;
    for (size_t i = 0; i + 1 < reps.size(); ++i) {
      AddWorkEdge(virtual_label_, {reps[i], reps[i + 1]});
      ++stats_.virtual_edges_added;
    }
    return static_cast<uint32_t>(reps.size() - 1);
  }

  void StripVirtualEdges() {
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (edges_[e].alive && edges_[e].edge.label == virtual_label_) {
        RemoveOccurrencesOf(e);
        KillEdge(e);
      }
    }
    for (auto& rhs : rule_rhs_) {
      rhs.RemoveEdgesIf(
          [&](const HEdge& e) { return e.label == virtual_label_; });
    }
  }

  // ---- Final assembly -----------------------------------------------------

  // Builds the grammar; fills *mapping when it is non-null.
  CompressResult Assemble(NodeMapping* mapping) {
    // Compact live node ids.
    std::vector<NodeId> remap(node_alive_.size(), kInvalidNode);
    uint32_t next = 0;
    for (NodeId v = 0; v < node_alive_.size(); ++v) {
      if (node_alive_[v]) remap[v] = next++;
    }
    Hypergraph start(next);
    CompressResult result;
    if (mapping != nullptr) {
      mapping->start_origs.reserve(next);
      for (NodeId v = 0; v < node_alive_.size(); ++v) {
        if (node_alive_[v]) mapping->start_origs.push_back(orig_[v]);
      }
    }
    // The reserved virtual label is always the last terminal and all
    // its edges were stripped; drop it from the output alphabet by
    // shifting every higher (nonterminal) label down by one.
    const bool drop_virtual = options_.connect_components;
    auto out_label = [&](Label l) {
      assert(!drop_virtual || l != virtual_label_);
      return drop_virtual && l > virtual_label_ ? l - 1 : l;
    };
    start.ReserveEdges(CountLiveEdges());
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (!edges_[e].alive) continue;
      Attachments att = edges_[e].edge.att;
      for (NodeId& v : att) v = remap[v];
      start.AddEdge(out_label(edges_[e].edge.label), std::move(att));
      if (mapping != nullptr) {
        mapping->edge_records.push_back(std::move(records_[e]));
      }
    }

    // Rebuild the grammar with the terminal prefix of the work alphabet
    // (minus the reserved virtual label).
    uint32_t out_terminals = drop_virtual ? num_terminals_ - 1
                                          : num_terminals_;
    Alphabet terminals;
    for (Label l = 0; l < out_terminals; ++l) {
      terminals.Add(work_alphabet_.name(l), work_alphabet_.rank(l));
    }
    result.grammar = SlhrGrammar(std::move(terminals), std::move(start));
    for (uint32_t j = 0; j < rule_rhs_.size(); ++j) {
      Label nt = result.grammar.AddNonterminal(
          work_alphabet_.rank(num_terminals_ + j),
          work_alphabet_.name(num_terminals_ + j));
      assert(nt == out_terminals + j);
      (void)nt;
      for (EdgeId re = 0; re < rule_rhs_[j].num_edges(); ++re) {
        Label& l = rule_rhs_[j].mutable_edge(re).label;
        l = out_label(l);
      }
      result.grammar.SetRule(result.grammar.NonterminalLabel(j),
                             std::move(rule_rhs_[j]));
    }
    result.stats = stats_;
    return result;
  }

  const CompressOptions options_;
  const Hypergraph& input_;

  Alphabet work_alphabet_;
  uint32_t num_terminals_ = 0;
  Label virtual_label_ = kInvalidLabel;

  std::vector<char> node_alive_;
  std::vector<uint32_t> degree_;
  std::vector<std::vector<EdgeId>> incidence_;
  std::vector<uint32_t> dead_incident_;
  std::vector<NodeId> orig_;
  std::vector<WEdge> edges_;
  std::vector<DerivationRecord> records_;
  std::vector<Hypergraph> rule_rhs_;

  std::vector<NodeId> order_;
  std::unique_ptr<OccurrenceIndex> index_;
  std::vector<NodeRoundLists> round_lists_;  // per node
  std::vector<RoundList> round_slots_;       // every node's lists
  uint32_t round_slots_used_ = 0;            // this round's prefix
  std::vector<NodeId> touched_;  // nodes materialized this round

  // Scratch buffers of CountAroundNode and MaterializeRoundLists.
  std::vector<KeyedEdge> typed_;
  std::vector<std::pair<size_t, size_t>> groups_;
  std::vector<EdgeId> list1_, list2_;

  CompressStats stats_;
};

}  // namespace

Result<CompressResult> Compress(const Hypergraph& graph,
                                const Alphabet& alphabet,
                                const CompressOptions& options) {
  GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
  if (!graph.ext().empty()) {
    return Status::InvalidArgument("input graph must have no external nodes");
  }
  if (options.max_rank < 1 || options.max_rank > 63) {
    return Status::InvalidArgument("max_rank must be in [1, 63]");
  }
  for (Label l = 0; l < alphabet.size(); ++l) {
    if (alphabet.rank(l) > 63) {
      return Status::InvalidArgument("label ranks above 63 are unsupported");
    }
  }
  Compressor compressor(graph, alphabet, options);
  auto run = compressor.Run();
  if (!run.ok()) return run.status();
  CompressResult result = std::move(run).ValueOrDie();
  // The binary format caps total duplicate parallel rank-2 edges at
  // kMaxDupEdges (grammar_coder.h); enforce it here, where there is
  // an error channel, so EncodeGrammar can never emit a file its own
  // decoder rejects. Start edges are in canonical (label, attachment)
  // order, so duplicates are adjacent.
  const Hypergraph& start = result.grammar.start();
  uint64_t dup_edges = 0;
  for (uint32_t i = 1; i < start.num_edges(); ++i) {
    if (start.edge(i).rank() == 2 && start.edge(i) == start.edge(i - 1)) {
      if (++dup_edges > kMaxDupEdges) {
        return Status::InvalidArgument(
            "graph exceeds the grammar format's capacity of " +
            std::to_string(kMaxDupEdges) + " duplicate parallel edges");
      }
    }
  }
  return result;
}

}  // namespace grepair
