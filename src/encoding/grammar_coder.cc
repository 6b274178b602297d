#include "src/encoding/grammar_coder.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>

#include "src/k2tree/k2tree.h"
#include "src/util/elias.h"

namespace grepair {

namespace {

constexpr uint32_t kMagic = 0x47524731;  // "GRG1"

int IndexBits(size_t dictionary_size) {
  if (dictionary_size <= 1) return 0;
  int bits = 0;
  size_t v = dictionary_size - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

// Writes one production in the paper's format.
void EncodeRule(const SlhrGrammar& grammar, const Hypergraph& rhs,
                BitWriter* w) {
  EliasDeltaEncode(rhs.num_edges() + 1, w);
  EliasDeltaEncode(rhs.num_nodes() + 1, w);
  EliasDeltaEncode(rhs.ext().size() + 1, w);
  uint32_t rank = static_cast<uint32_t>(rhs.ext().size());
  for (const auto& e : rhs.edges()) {
    w->PutBit(grammar.IsNonterminal(e.label));
    EliasDeltaEncode(e.att.size(), w);
    for (NodeId v : e.att) {
      w->PutBit(v < rank);  // external marker (canonical form: ids 0..k-1)
      EliasDeltaEncode(v + 1, w);
    }
    EliasDeltaEncode(e.label + 1, w);
  }
}

Status DecodeRule(uint32_t num_labels, BitReader* r, Hypergraph* rhs,
                  uint32_t* rank_out) {
  uint64_t num_edges = 0, num_nodes = 0, rank = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &num_edges));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &num_nodes));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &rank));
  if (num_edges == 0 || num_nodes == 0 || rank == 0) {
    return Status::Corruption("bad rule header");
  }
  --num_edges;
  --num_nodes;
  --rank;
  if (num_nodes > 0xFFFFFFFFull) {
    return Status::Corruption("rhs node count out of range");
  }
  if (rank == 0 || rank > 64) {
    return Status::Corruption("nonterminal rank out of range");
  }
  if (rank > num_nodes) return Status::Corruption("rank exceeds rhs nodes");
  *rhs = Hypergraph(static_cast<uint32_t>(num_nodes));
  for (uint64_t i = 0; i < num_edges; ++i) {
    bool is_nt = false;
    GREPAIR_RETURN_IF_ERROR(r->ReadBit(&is_nt));
    uint64_t att_count = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &att_count));
    if (att_count == 0 || att_count > 64) {
      return Status::Corruption("bad attachment count");
    }
    Attachments att;
    att.resize(att_count);
    for (uint64_t a = 0; a < att_count; ++a) {
      bool external = false;
      GREPAIR_RETURN_IF_ERROR(r->ReadBit(&external));
      uint64_t id = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &id));
      if (id == 0 || id > num_nodes) {
        return Status::Corruption("bad rhs node id");
      }
      att[a] = static_cast<NodeId>(id - 1);
      if (external != (att[a] < rank)) {
        return Status::Corruption("external marker inconsistent");
      }
    }
    uint64_t label = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &label));
    if (label == 0 || label > num_labels) {
      return Status::Corruption("bad rhs label");
    }
    (void)is_nt;  // redundant with the label range; kept for the format
    rhs->AddEdge(static_cast<Label>(label - 1), std::move(att));
  }
  std::vector<NodeId> ext(rank);
  std::iota(ext.begin(), ext.end(), 0u);
  rhs->SetExternal(std::move(ext));
  *rank_out = static_cast<uint32_t>(rank);
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeGrammar(const SlhrGrammar& grammar,
                                   EncodeStats* stats) {
  const Alphabet& alpha = grammar.alphabet();
  const Hypergraph& start = grammar.start();
  BitWriter w;

  // ---- Header -------------------------------------------------------------
  w.PutBits(kMagic, 32);
  EliasDeltaEncode(grammar.num_terminals() + 1, &w);
  for (Label l = 0; l < grammar.num_terminals(); ++l) {
    EliasDeltaEncode(static_cast<uint64_t>(alpha.rank(l)), &w);
  }
  EliasDeltaEncode(grammar.num_rules() + 1, &w);
  EliasDeltaEncode(start.num_nodes() + 1, &w);
  size_t header_end = w.bit_size();

  // ---- Rules ----------------------------------------------------------------
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    EncodeRule(grammar, grammar.rhs_by_index(j), &w);
  }
  size_t rules_end = w.bit_size();

  // ---- Permutation dictionary for start-graph hyperedges -------------------
  // perm p of edge e: att(e)[i] = sorted(att(e))[p[i]].
  std::map<std::vector<uint8_t>, uint32_t> perm_ids;
  std::vector<std::vector<uint8_t>> perms;
  std::vector<uint32_t> edge_perm(start.num_edges(), 0);
  for (EdgeId i = 0; i < start.num_edges(); ++i) {
    const HEdge& e = start.edge(i);
    if (e.att.size() == 2) continue;
    Attachments sorted_att = e.att;
    std::sort(sorted_att.begin(), sorted_att.end());
    std::vector<uint8_t> perm(e.att.size());
    for (size_t a = 0; a < e.att.size(); ++a) {
      perm[a] = static_cast<uint8_t>(
          std::find(sorted_att.begin(), sorted_att.end(), e.att[a]) -
          sorted_att.begin());
    }
    auto [it, inserted] = perm_ids.emplace(perm, perms.size());
    if (inserted) perms.push_back(perm);
    edge_perm[i] = it->second;
  }
  EliasDeltaEncode(perms.size() + 1, &w);
  for (const auto& perm : perms) {
    EliasDeltaEncode(perm.size(), &w);
    for (uint8_t p : perm) EliasDeltaEncode(p + 1, &w);
  }
  const int perm_bits = IndexBits(perms.size());

  // ---- Start graph: one k^2-tree per label ---------------------------------
  // Edges must be sorted by (label, att); verify in debug builds.
#ifndef NDEBUG
  for (EdgeId i = 1; i < start.num_edges(); ++i) {
    const HEdge& a = start.edge(i - 1);
    const HEdge& b = start.edge(i);
    assert(a.label < b.label || (a.label == b.label && !(b.att < a.att)));
  }
#endif
  uint64_t encoded_dup_edges = 0;  // whole-grammar budget, see header
  (void)encoded_dup_edges;
  // Edge ids grouped by label, ascending within a label: label l's
  // edges are by_label[label_begin[l], label_begin[l + 1]).
  std::vector<uint32_t> label_begin(alpha.size() + 1, 0);
  for (const HEdge& e : start.edges()) {
    assert(e.label < alpha.size());
    ++label_begin[e.label + 1];
  }
  for (Label l = 0; l < alpha.size(); ++l) {
    label_begin[l + 1] += label_begin[l];
  }
  std::vector<EdgeId> by_label(start.num_edges());
  {
    std::vector<uint32_t> fill(label_begin.begin(), label_begin.end() - 1);
    for (EdgeId i = 0; i < start.num_edges(); ++i) {
      by_label[fill[start.edge(i).label]++] = i;
    }
  }
  for (Label l = 0; l < alpha.size(); ++l) {
    const EdgeId* label_edges = by_label.data() + label_begin[l];
    const uint32_t num_label_edges = label_begin[l + 1] - label_begin[l];
    w.PutBit(num_label_edges > 0);
    if (num_label_edges == 0) continue;
    if (alpha.rank(l) == 2) {
      // Adjacency matrix; parallel duplicates patched separately.
      std::vector<std::pair<uint32_t, uint32_t>> cells;
      cells.reserve(num_label_edges);
      for (uint32_t j = 0; j < num_label_edges; ++j) {
        const HEdge& e = start.edge(label_edges[j]);
        cells.push_back({e.att[0], e.att[1]});
      }
      // Already sorted when the start graph is in canonical order.
      std::sort(cells.begin(), cells.end());
      // Multiplicity patches: (rank among the distinct cells, extra
      // count), one per run of equal cells.
      std::vector<std::pair<uint64_t, uint32_t>> dups;
      size_t distinct = 0;
      for (size_t ci = 0; ci < cells.size();) {
        size_t run = ci + 1;
        while (run < cells.size() && cells[run] == cells[ci]) ++run;
        if (run - ci > 1) {
          dups.push_back({distinct, static_cast<uint32_t>(run - ci - 1)});
          encoded_dup_edges += run - ci - 1;
        }
        cells[distinct++] = cells[ci];
        ci = run;
      }
      cells.resize(distinct);
      K2Tree tree = K2Tree::Build(start.num_nodes(), start.num_nodes(), cells);
      tree.Serialize(&w);
      // Format limit mirrored by the decoder's corruption guard
      // (kMaxDupEdges, global across label sections). Graphs past it
      // would serialize into undecodable files; Compress() rejects
      // them with a Status, so here it is an encoder invariant.
      assert(encoded_dup_edges <= kMaxDupEdges);
      EliasDeltaEncode(dups.size() + 1, &w);
      for (const auto& [cell_rank, extra] : dups) {
        EliasDeltaEncode(cell_rank + 1, &w);
        EliasDeltaEncode(extra, &w);
      }
    } else {
      // Incidence matrix: rows = nodes, cols = this label's edges.
      std::vector<std::pair<uint32_t, uint32_t>> cells;
      for (uint32_t col = 0; col < num_label_edges; ++col) {
        for (NodeId v : start.edge(label_edges[col]).att) {
          cells.push_back({v, col});
        }
      }
      K2Tree tree =
          K2Tree::Build(start.num_nodes(), num_label_edges, cells);
      tree.Serialize(&w);
      for (uint32_t j = 0; j < num_label_edges; ++j) {
        w.PutBits(edge_perm[label_edges[j]], perm_bits);
      }
    }
  }

  if (stats != nullptr) {
    stats->total_bits = w.bit_size();
    stats->header_bits = header_end;
    stats->rule_bits = rules_end - header_end;
    stats->start_graph_bits = w.bit_size() - rules_end;
  }
  return w.TakeBytes();
}

Result<SlhrGrammar> DecodeGrammar(const std::vector<uint8_t>& bytes) {
  return DecodeGrammar(SpanOf(bytes));
}

Result<SlhrGrammar> DecodeGrammar(ByteSpan bytes) {
  BitReader r(bytes.data, bytes.size * 8);
  uint64_t magic = 0;
  GREPAIR_RETURN_IF_ERROR(r.ReadBits(32, &magic));
  if (magic != kMagic) return Status::Corruption("bad magic");

  uint64_t num_terminals = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_terminals));
  if (num_terminals == 0) return Status::Corruption("bad terminal count");
  --num_terminals;
  Alphabet terminals;
  for (uint64_t l = 0; l < num_terminals; ++l) {
    uint64_t rank = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &rank));
    if (rank == 0 || rank > 64) return Status::Corruption("bad label rank");
    terminals.Add("t" + std::to_string(l), static_cast<int>(rank));
  }
  uint64_t num_rules = 0, start_nodes = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_rules));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &start_nodes));
  if (num_rules == 0 || start_nodes == 0) {
    return Status::Corruption("bad counts");
  }
  --num_rules;
  --start_nodes;
  // Untrusted counts that size an allocation are bounded by what the
  // remaining input could possibly encode (>= 1 bit per decoded item);
  // a corrupted Elias code can otherwise claim 2^50 rules and take the
  // process down with bad_alloc before any per-item decode fails.
  const uint64_t total_bits = bytes.size * 8;
  if (start_nodes > 0xFFFFFFFFull) {
    return Status::Corruption("start node count out of range");
  }
  if (num_rules > total_bits) {
    return Status::Corruption("rule count exceeds input size");
  }

  SlhrGrammar grammar(std::move(terminals),
                      Hypergraph(static_cast<uint32_t>(start_nodes)));

  // Rules: decode bodies first, then install (ranks come from the rhs).
  // The body vector grows per successfully decoded rule instead of
  // being sized from the untrusted count: a corrupt count within the
  // total_bits bound could still claim ~56 bytes of Hypergraph per
  // input BIT, a ~450x allocation amplification.
  const uint32_t num_labels =
      static_cast<uint32_t>(num_terminals + num_rules);
  std::vector<Hypergraph> rule_bodies;
  // Capped reserve: honest inputs skip the realloc churn on the hot
  // decode path, while a lying count can still only claim a bounded
  // up-front slab.
  rule_bodies.reserve(
      static_cast<size_t>(std::min<uint64_t>(num_rules, 4096)));
  for (uint64_t j = 0; j < num_rules; ++j) {
    uint32_t rank = 0;
    Hypergraph body;
    GREPAIR_RETURN_IF_ERROR(DecodeRule(num_labels, &r, &body, &rank));
    rule_bodies.push_back(std::move(body));
    Label nt = grammar.AddNonterminal(static_cast<int>(rank));
    (void)nt;
  }
  for (uint64_t j = 0; j < num_rules; ++j) {
    grammar.SetRule(grammar.NonterminalLabel(static_cast<uint32_t>(j)),
                    std::move(rule_bodies[j]));
  }

  // Permutation dictionary.
  uint64_t num_perms = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_perms));
  if (num_perms == 0) return Status::Corruption("bad perm count");
  --num_perms;
  if (num_perms > total_bits) {
    return Status::Corruption("perm count exceeds input size");
  }
  // Grown per decoded entry, not sized up front (see rule_bodies),
  // with the same bounded reserve to avoid realloc churn.
  std::vector<std::vector<uint8_t>> perms;
  perms.reserve(static_cast<size_t>(std::min<uint64_t>(num_perms, 4096)));
  for (uint64_t i = 0; i < num_perms; ++i) {
    uint64_t len = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &len));
    if (len == 0 || len > 64) return Status::Corruption("bad perm length");
    std::vector<uint8_t> perm(len);
    for (auto& p : perm) {
      uint64_t v = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &v));
      if (v == 0 || v > len) return Status::Corruption("bad perm entry");
      p = static_cast<uint8_t>(v - 1);
    }
    perms.push_back(std::move(perm));
  }
  const int perm_bits = IndexBits(perms.size());

  // Start graph label sections.
  Hypergraph* start = grammar.mutable_start();
  const Alphabet& alpha = grammar.alphabet();
  uint64_t decoded_dup_edges = 0;  // whole-grammar budget, see header
  for (Label l = 0; l < alpha.size(); ++l) {
    bool present = false;
    GREPAIR_RETURN_IF_ERROR(r.ReadBit(&present));
    if (!present) continue;
    auto tree = K2Tree::DecodeCells(&r);
    if (!tree.ok()) return tree.status();
    const std::vector<uint64_t>& cells = tree.value().keys;
    if (alpha.rank(l) == 2) {
      uint64_t num_dups = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_dups));
      if (num_dups == 0) return Status::Corruption("bad dup count");
      --num_dups;
      std::vector<uint32_t> multiplicity(cells.size(), 1);
      // Distinct cells are input-proportional (each costs >= 1 tree
      // bit), so only the duplicate count needs an absolute cap: dup
      // entries amplify by design (one Elias code can claim many
      // parallel edges), and a crafted 60-byte file aiming at parser
      // OOM must die here instead of in AddEdge. The budget
      // (kMaxDupEdges) is global across label sections — per-section
      // budgets could be evaded by declaring many labels.
      for (uint64_t d = 0; d < num_dups; ++d) {
        uint64_t cell_rank = 0, extra = 0;
        GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &cell_rank));
        GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &extra));
        if (cell_rank == 0 || cell_rank > cells.size()) {
          return Status::Corruption("bad dup cell");
        }
        // Caps materialized duplicates and keeps both this sum and
        // the uint32 multiplicity accumulator from wrapping on
        // corrupt input; checked as `extra > budget` because a near-
        // 2^64 extra would wrap `decoded_dup_edges += extra` back
        // under the cap (defined unsigned arithmetic, invisible to
        // UBSan).
        if (extra > kMaxDupEdges - decoded_dup_edges) {
          return Status::Corruption("edge multiplicity overflow");
        }
        decoded_dup_edges += extra;
        multiplicity[cell_rank - 1] += static_cast<uint32_t>(extra);
      }
      for (size_t ci = 0; ci < cells.size(); ++ci) {
        const NodeId u = static_cast<NodeId>(cells[ci] >> 32);
        const NodeId v = static_cast<NodeId>(cells[ci] & 0xFFFFFFFFu);
        for (uint32_t m = 0; m < multiplicity[ci]; ++m) {
          start->AddEdge(l, {u, v});
        }
      }
    } else {
      // Incidence: rebuild per-column node sets, then apply perms.
      // Every edge column holds >= 1 incidence cell, so the claimed
      // column count is bounded by the (input-bounded) cell count —
      // sizing `cols` straight from the header would amplify each
      // input bit into a 24-byte empty vector.
      uint32_t num_edges = tree.value().num_cols;
      if (num_edges > cells.size()) {
        return Status::Corruption("hyperedge count exceeds incidence cells");
      }
      // Column col's rows, ascending, are rows[col_begin[col],
      // col_begin[col + 1]): the cells arrive row-major.
      std::vector<uint32_t> col_begin(static_cast<size_t>(num_edges) + 1, 0);
      for (uint64_t cell : cells) {
        const uint32_t col = static_cast<uint32_t>(cell & 0xFFFFFFFFu);
        if (col >= num_edges) {
          return Status::Corruption("incidence cell column out of range");
        }
        ++col_begin[col + 1];
      }
      for (uint32_t col = 0; col < num_edges; ++col) {
        col_begin[col + 1] += col_begin[col];
      }
      std::vector<NodeId> rows(cells.size());
      std::vector<uint32_t> fill(col_begin.begin(), col_begin.end() - 1);
      for (uint64_t cell : cells) {
        rows[fill[cell & 0xFFFFFFFFu]++] = static_cast<NodeId>(cell >> 32);
      }
      for (uint32_t col = 0; col < num_edges; ++col) {
        uint64_t perm_idx = 0;
        GREPAIR_RETURN_IF_ERROR(r.ReadBits(perm_bits, &perm_idx));
        if (perms.empty()) {
          return Status::Corruption("hyperedge without permutations");
        }
        if (perm_idx >= perms.size()) {
          return Status::Corruption("bad perm index");
        }
        const auto& perm = perms[perm_idx];
        const NodeId* sorted_att = rows.data() + col_begin[col];
        if (perm.size() != col_begin[col + 1] - col_begin[col]) {
          return Status::Corruption("perm length mismatch");
        }
        Attachments att;
        att.resize(perm.size());
        for (size_t a = 0; a < perm.size(); ++a) {
          att[a] = sorted_att[perm[a]];
        }
        start->AddEdge(l, std::move(att));
      }
    }
  }

  // The edge insertion above goes label by label in ascending label
  // order with ascending attachment within each label: canonical order.
  GREPAIR_RETURN_IF_ERROR(grammar.Validate());
  return grammar;
}

std::vector<uint8_t> EncodeNodeMapping(const SlhrGrammar& grammar,
                                       const std::vector<NodeId>& origins) {
  assert(origins.size() >= grammar.start().num_nodes());
  BitWriter w;
  EliasDeltaEncode(grammar.start().num_nodes() + 1, &w);
  for (NodeId v : origins) EliasDeltaEncode(v + 1, &w);
  return w.TakeBytes();
}

Result<std::vector<NodeId>> DecodeNodeMapping(const SlhrGrammar& grammar,
                                              uint64_t n, ByteSpan bytes) {
  BitReader r(bytes.data, bytes.size * 8);
  uint64_t num_start = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_start));
  if (num_start == 0) return Status::Corruption("bad mapping header");
  if (num_start - 1 != grammar.start().num_nodes()) {
    return Status::Corruption("mapping does not match grammar");
  }
  // The grammar fixes the id count. Every Elias-delta code takes at
  // least one bit, so a count beyond the bits left fails before the
  // allocation it would size (this also rejects a saturated count).
  if (n > r.BitsAvailable() || n > kMaxValNodes) {
    return Status::Corruption("mapping node count exceeds the input");
  }
  std::vector<NodeId> origins(n);
  std::vector<uint8_t> seen(n, 0);
  for (NodeId& v : origins) {
    uint64_t raw = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &raw));
    if (raw == 0 || raw > n) {
      return Status::Corruption("origin id out of range");
    }
    v = static_cast<NodeId>(raw - 1);
    if (seen[v]) return Status::Corruption("node mapping is not a permutation");
    seen[v] = 1;
  }
  return origins;
}

double BitsPerEdge(size_t encoded_bytes, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  return static_cast<double>(encoded_bytes) * 8.0 /
         static_cast<double>(num_edges);
}

}  // namespace grepair
