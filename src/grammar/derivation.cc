#include "src/grammar/derivation.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace grepair {

RecordId NodeMapping::AddRecord(const std::vector<NodeId>& internal,
                                const std::vector<RecordId>& children) {
  const RecordId id = static_cast<RecordId>(records.size());
  DerivationRecord rec;
  rec.first_orig = static_cast<uint32_t>(origs.size());
  rec.num_origs = static_cast<uint32_t>(internal.size());
  origs.insert(origs.end(), internal.begin(), internal.end());
  for (size_t c = children.size(); c-- > 0;) {
    records[children[c]].next_sibling = rec.first_child;
    rec.first_child = children[c];
  }
  records.push_back(rec);
  return id;
}

void CanonicalizeStartEdgeOrder(SlhrGrammar* grammar, NodeMapping* mapping) {
  std::vector<HEdge> edges = grammar->mutable_start()->TakeEdges();
  std::vector<EdgeId> order(edges.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    const HEdge& ea = edges[a];
    const HEdge& eb = edges[b];
    if (ea.label != eb.label) return ea.label < eb.label;
    return ea.att < eb.att;
  });
  std::vector<HEdge> sorted;
  sorted.reserve(order.size());
  std::vector<RecordId> sorted_records;
  if (mapping != nullptr) sorted_records.reserve(order.size());
  for (EdgeId e : order) {
    sorted.push_back(std::move(edges[e]));
    if (mapping != nullptr) {
      sorted_records.push_back(mapping->edge_records[e]);
    }
  }
  grammar->mutable_start()->SetEdges(std::move(sorted));
  if (mapping != nullptr) mapping->edge_records = std::move(sorted_records);
}

namespace {

// a + b, saturating at UINT64_MAX.
uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

}  // namespace

GeneratedSizes ComputeGeneratedSizes(const SlhrGrammar& grammar) {
  GeneratedSizes sizes;
  uint32_t n = grammar.num_rules();
  sizes.gen_nodes.assign(n, 0);
  sizes.gen_edges.assign(n, 0);
  for (uint32_t j = 0; j < n; ++j) {
    const Hypergraph& rhs = grammar.rhs_by_index(j);
    sizes.gen_nodes[j] = rhs.num_nodes() - rhs.ext().size();
    for (const auto& e : rhs.edges()) {
      if (grammar.IsNonterminal(e.label)) {
        uint32_t child = grammar.RuleIndex(e.label);
        assert(child < j);
        sizes.gen_nodes[j] = SatAdd(sizes.gen_nodes[j], sizes.gen_nodes[child]);
        sizes.gen_edges[j] = SatAdd(sizes.gen_edges[j], sizes.gen_edges[child]);
      } else {
        sizes.gen_edges[j] = SatAdd(sizes.gen_edges[j], 1);
      }
    }
  }
  return sizes;
}

ValSize ComputeValSize(const SlhrGrammar& grammar) {
  const GeneratedSizes sizes = ComputeGeneratedSizes(grammar);
  ValSize size;
  size.nodes = grammar.start().num_nodes();
  size.edges = grammar.start_adjacency().num_edges();
  for (const auto& e : grammar.start().edges()) {
    if (grammar.IsNonterminal(e.label)) {
      const uint32_t j = grammar.RuleIndex(e.label);
      size.nodes = SatAdd(size.nodes, sizes.gen_nodes[j]);
      size.edges = SatAdd(size.edges, sizes.gen_edges[j]);
    } else {
      size.edges = SatAdd(size.edges, 1);
    }
  }
  return size;
}

namespace {

Status CheckDeriveLimits(const ValSize& size, const DeriveOptions& options) {
  if (size.nodes > std::min(options.max_nodes, kMaxValNodes)) {
    return Status::OutOfRange("val(G) has " + std::to_string(size.nodes) +
                              " nodes, above the materialization limit");
  }
  if (size.edges > options.max_edges) {
    return Status::OutOfRange("val(G) has " + std::to_string(size.edges) +
                              " edges, above the materialization limit");
  }
  return Status::OK();
}

// One suspended rule application during depth-first expansion.
struct Frame {
  const Hypergraph* rhs;
  size_t map_begin;     // rhs node id -> val(G) node id, in the map stack
  size_t edge_idx = 0;  // next rhs edge to process
};

// Walks val(G) depth-first and calls sink(label, att) for each terminal
// edge, with att in val(G) node ids (valid only during the call).
// Applying a rule creates the rhs's internal nodes first, in rhs node
// order, which is what fixes the derived node IDs. `size` is
// ComputeValSize(grammar), already checked against the limits.
template <typename Sink>
void DeriveImpl(const SlhrGrammar& grammar,
                [[maybe_unused]] const ValSize& size, Sink&& sink) {
  const Hypergraph& start = grammar.start();
  NodeId next_node = start.num_nodes();
  // Frames and their node maps live on two stacks that grow and shrink
  // together, so a rule application allocates nothing.
  std::vector<Frame> stack;
  std::vector<NodeId> maps;
  Attachments mapped;
  auto push_frame = [&](Label label, const Attachments& att) {
    const Hypergraph& rhs = grammar.rhs(label);
    assert(att.size() == rhs.ext().size());
    stack.push_back(Frame{&rhs, maps.size(), 0});
    // Canonical form: external node i has rhs id i.
    maps.insert(maps.end(), att.begin(), att.end());
    for (uint32_t i = static_cast<uint32_t>(att.size()); i < rhs.num_nodes();
         ++i) {
      maps.push_back(next_node++);
    }
  };

  uint64_t emitted = 0;
  // The start adjacency's edges go out label by label in canonical
  // order, each label before the start() edges of higher labels: in a
  // canonical start graph that is the order of the whole start graph.
  const StartAdjacency::LabelGroups csr =
      grammar.start_adjacency().GroupByLabel();
  Label csr_label = 0;
  Attachments pair = {0, 0};
  auto emit_csr_below = [&](Label bound) {
    for (; csr_label + 1 < csr.begin.size() && csr_label < bound;
         ++csr_label) {
      for (uint64_t i = csr.begin[csr_label]; i < csr.begin[csr_label + 1];
           ++i) {
        pair[0] = static_cast<NodeId>(csr.keys[i] >> 32);
        pair[1] = static_cast<NodeId>(csr.keys[i] & 0xFFFFFFFFu);
        sink(csr_label, pair);
        ++emitted;
      }
    }
  };
  for (const HEdge& e : start.edges()) {
    emit_csr_below(e.label);
    if (grammar.IsTerminal(e.label)) {
      sink(e.label, e.att);
      ++emitted;
      continue;
    }
    push_frame(e.label, e.att);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.edge_idx >= f.rhs->num_edges()) {
        maps.resize(f.map_begin);
        stack.pop_back();
        continue;
      }
      const HEdge& he = f.rhs->edge(static_cast<EdgeId>(f.edge_idx++));
      mapped.clear();
      for (NodeId v : he.att) mapped.push_back(maps[f.map_begin + v]);
      if (grammar.IsTerminal(he.label)) {
        sink(he.label, mapped);
        ++emitted;
      } else {
        // Note: push_frame may reallocate `stack`; `f` is dead after this.
        push_frame(he.label, mapped);
      }
    }
  }
  emit_csr_below(kInvalidLabel);
  assert(next_node == size.nodes);
  assert(emitted == size.edges);
  (void)emitted;
}

}  // namespace

Result<Hypergraph> Derive(const SlhrGrammar& grammar,
                          const DeriveOptions& options) {
  const ValSize size = ComputeValSize(grammar);
  GREPAIR_RETURN_IF_ERROR(CheckDeriveLimits(size, options));
  Hypergraph out(static_cast<uint32_t>(size.nodes));
  out.ReserveEdges(size.edges);
  DeriveImpl(grammar, size, [&](Label label, const Attachments& att) {
    out.AddEdge(label, att);
  });
  return out;
}

Status ForEachDerivedEdge(const SlhrGrammar& grammar,
                          const DerivedEdgeSink& sink,
                          const DeriveOptions& options) {
  const ValSize size = ComputeValSize(grammar);
  GREPAIR_RETURN_IF_ERROR(CheckDeriveLimits(size, options));
  DeriveImpl(grammar, size, sink);
  return Status::OK();
}

Result<std::vector<NodeId>> FlattenOrigins(const SlhrGrammar& grammar,
                                           const NodeMapping& mapping) {
  // A valid mapping holds one stored id per val(G) node, so the count
  // needs no limit of its own.
  GREPAIR_RETURN_IF_ERROR(ValidateMapping(grammar, mapping));
  const uint64_t total_nodes = ComputeValSize(grammar).nodes;
  std::vector<NodeId> origins = mapping.start_origs;
  origins.reserve(total_nodes);
  // Depth-first flatten mirroring the derivation order: a record's
  // internals come first, then its children in rhs edge order. Popping
  // a record pushes its next sibling below its first child, so the
  // child's subtree is done before the sibling comes up.
  const Hypergraph& start = grammar.start();
  std::vector<RecordId> stack;
  auto visit = [&](RecordId r) {
    const NodeId* internal = mapping.internal_origs(r);
    origins.insert(origins.end(), internal,
                   internal + mapping.records[r].num_origs);
    if (mapping.records[r].first_child != kNoRecord) {
      stack.push_back(mapping.records[r].first_child);
    }
  };
  for (EdgeId se = 0; se < start.num_edges(); ++se) {
    if (!grammar.IsNonterminal(start.edge(se).label)) continue;
    visit(mapping.edge_records[se]);
    while (!stack.empty()) {
      const RecordId r = stack.back();
      stack.pop_back();
      if (mapping.records[r].next_sibling != kNoRecord) {
        stack.push_back(mapping.records[r].next_sibling);
      }
      visit(r);
    }
  }
  assert(origins.size() == total_nodes);
  return origins;
}

Result<Hypergraph> DeriveOriginal(const SlhrGrammar& grammar,
                                  const std::vector<NodeId>& origins,
                                  const DeriveOptions& options) {
  const ValSize size = ComputeValSize(grammar);
  GREPAIR_RETURN_IF_ERROR(CheckDeriveLimits(size, options));
  if (origins.size() != size.nodes) {
    return Status::InvalidArgument("origin count does not match val(G)");
  }
  // The origins must form a permutation of 0..n-1.
  std::vector<char> seen(origins.size(), 0);
  for (NodeId o : origins) {
    if (o >= origins.size() || seen[o]) {
      return Status::Corruption("node mapping is not a permutation");
    }
    seen[o] = 1;
  }
  // Edges arrive in val(G) ids and are renamed on the way in: val(G)
  // itself is never built.
  Hypergraph renamed(static_cast<uint32_t>(origins.size()));
  renamed.ReserveEdges(size.edges);
  DeriveImpl(grammar, size, [&](Label label, Attachments att) {
    for (NodeId& v : att) v = origins[v];
    renamed.AddEdge(label, std::move(att));
  });
  return renamed;
}

Status ValidateMapping(const SlhrGrammar& grammar,
                       const NodeMapping& mapping) {
  const Hypergraph& start = grammar.start();
  if (mapping.start_origs.size() != start.num_nodes()) {
    return Status::InvalidArgument("start_origs size mismatch");
  }
  if (mapping.edge_records.size() != start.num_edges()) {
    return Status::InvalidArgument("edge_records size mismatch");
  }

  // Iterative structural walk: (record, rule label) pairs. A record
  // reached twice would be flattened twice, and a sibling chain that
  // runs on past the rhs's nonterminal edges is a count mismatch, so
  // the walk ends on any index graph, cyclic ones included.
  const size_t num_records = mapping.records.size();
  std::vector<char> seen(num_records, 0);
  std::vector<std::pair<RecordId, Label>> work;
  for (EdgeId se = 0; se < start.num_edges(); ++se) {
    const HEdge& e = start.edge(se);
    const RecordId r = mapping.edge_records[se];
    if (grammar.IsNonterminal(e.label)) {
      if (r >= num_records) {
        return Status::InvalidArgument("nonterminal edge has no record");
      }
      work.push_back({r, e.label});
    } else if (r != kNoRecord) {
      return Status::InvalidArgument("terminal edge has a record");
    }
  }
  while (!work.empty()) {
    auto [r, label] = work.back();
    work.pop_back();
    if (seen[r]) return Status::InvalidArgument("record reached twice");
    seen[r] = 1;
    const DerivationRecord& rec = mapping.records[r];
    const Hypergraph& rhs = grammar.rhs(label);
    size_t internal = rhs.num_nodes() - rhs.ext().size();
    if (rec.num_origs != internal) {
      return Status::InvalidArgument(
          "record internal count mismatch for rule " +
          std::to_string(grammar.RuleIndex(label)));
    }
    if (uint64_t{rec.first_orig} + rec.num_origs > mapping.origs.size()) {
      return Status::InvalidArgument("record origins outside the pool");
    }
    RecordId child = rec.first_child;
    for (const auto& e : rhs.edges()) {
      if (!grammar.IsNonterminal(e.label)) continue;
      if (child >= num_records) {
        return Status::InvalidArgument("record child count mismatch");
      }
      work.push_back({child, e.label});
      child = mapping.records[child].next_sibling;
    }
    if (child != kNoRecord) {
      return Status::InvalidArgument("record child count mismatch");
    }
  }
  return Status::OK();
}

}  // namespace grepair
