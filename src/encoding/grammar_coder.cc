#include "src/encoding/grammar_coder.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <optional>

#include "src/k2tree/k2tree.h"
#include "src/util/elias.h"

namespace grepair {

namespace {

constexpr uint32_t kMagic = 0x47524732;  // "GRG2"
// The retired v1 payload (node x edge incidence k^2-trees for rank != 2
// start-graph labels, psi' as plain ids). Only recognized to say so.
constexpr uint32_t kMagicV1 = 0x47524731;  // "GRG1"

// Largest label rank (and permutation length) the format holds.
constexpr size_t kMaxRank = 64;

// Zigzag folding of a two's-complement difference, so small steps in
// either direction get small codes.
uint64_t ZigZag(uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
uint64_t UnZigZag(uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

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

Status DecodeRule(uint32_t num_terminals, uint32_t num_labels, BitReader* r,
                  Hypergraph* rhs, uint32_t* rank_out) {
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
  if (rank == 0 || rank > kMaxRank) {
    return Status::Corruption("nonterminal rank out of range");
  }
  if (rank > num_nodes) return Status::Corruption("rank exceeds rhs nodes");
  *rhs = Hypergraph(static_cast<uint32_t>(num_nodes));
  // An edge takes at least 5 bits (its marker, attachment count, one
  // external flag and id, and label), so the input bounds the reserve.
  rhs->ReserveEdges(std::min<uint64_t>(num_edges, r->BitsAvailable() / 5));
  for (uint64_t i = 0; i < num_edges; ++i) {
    bool is_nt = false;
    GREPAIR_RETURN_IF_ERROR(r->ReadBit(&is_nt));
    uint64_t att_count = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(r, &att_count));
    if (att_count == 0 || att_count > kMaxRank) {
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
    if (is_nt != (label > num_terminals)) {
      return Status::Corruption(
          "rule edge's nonterminal marker disagrees with its label");
    }
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
  // perm p of edge e: att(e)[i] = sorted(att(e))[p[i]]. An edge stores
  // its perm's index among the dictionary's perms of its own length.
  std::map<std::vector<uint8_t>, uint32_t> perm_ids;
  std::vector<std::vector<uint8_t>> perms;
  std::vector<uint32_t> perms_of_length(kMaxRank + 1, 0);
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
    auto [it, inserted] =
        perm_ids.emplace(perm, perms_of_length[perm.size()]);
    if (inserted) {
      ++perms_of_length[perm.size()];
      perms.push_back(perm);
    }
    edge_perm[i] = it->second;
  }
  EliasDeltaEncode(perms.size() + 1, &w);
  for (const auto& perm : perms) {
    EliasDeltaEncode(perm.size(), &w);
    for (uint8_t p : perm) EliasDeltaEncode(p + 1, &w);
  }

  // ---- Start graph: one section per label ---------------------------------
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
  // The terminal rank-2 edges a decoded grammar keeps in its CSR.
  const StartAdjacency::LabelGroups csr =
      grammar.start_adjacency().GroupByLabel();
  for (Label l = 0; l < alpha.size(); ++l) {
    const EdgeId* label_edges = by_label.data() + label_begin[l];
    const uint32_t num_label_edges = label_begin[l + 1] - label_begin[l];
    const uint64_t csr_begin = l + 1 < csr.begin.size() ? csr.begin[l] : 0;
    const uint64_t csr_end = l + 1 < csr.begin.size() ? csr.begin[l + 1] : 0;
    w.PutBit(num_label_edges > 0 || csr_end > csr_begin);
    if (num_label_edges == 0 && csr_end == csr_begin) continue;
    if (alpha.rank(l) == 2) {
      // Adjacency matrix; parallel duplicates patched separately.
      std::vector<std::pair<uint32_t, uint32_t>> cells;
      cells.reserve(num_label_edges + (csr_end - csr_begin));
      for (uint32_t j = 0; j < num_label_edges; ++j) {
        const HEdge& e = start.edge(label_edges[j]);
        cells.push_back({e.att[0], e.att[1]});
      }
      for (uint64_t i = csr_begin; i < csr_end; ++i) {
        cells.push_back({static_cast<uint32_t>(csr.keys[i] >> 32),
                         static_cast<uint32_t>(csr.keys[i] & 0xFFFFFFFFu)});
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
      // Sorted attachment tuples in canonical edge order: the perm
      // index, the first member as a zigzag step from the previous
      // tuple's, then the gaps (>= 1) between consecutive members.
      EliasDeltaEncode(num_label_edges, &w);
      const int perm_bits = IndexBits(perms_of_length[alpha.rank(l)]);
      NodeId prev_first = 0;
      for (uint32_t j = 0; j < num_label_edges; ++j) {
        w.PutBits(edge_perm[label_edges[j]], perm_bits);
        Attachments sorted_att = start.edge(label_edges[j]).att;
        std::sort(sorted_att.begin(), sorted_att.end());
        EliasDeltaEncode(
            ZigZag(uint64_t{sorted_att[0]} - uint64_t{prev_first}) + 1, &w);
        for (size_t a = 1; a < sorted_att.size(); ++a) {
          EliasDeltaEncode(sorted_att[a] - sorted_att[a - 1], &w);
        }
        prev_first = sorted_att[0];
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

Result<SlhrGrammar> DecodeGrammar(ByteSpan bytes, uint64_t max_start_nodes) {
  BitReader r(bytes.data, bytes.size * 8);
  uint64_t magic = 0;
  GREPAIR_RETURN_IF_ERROR(r.ReadBits(32, &magic));
  if (magic == kMagicV1) {
    return Status::InvalidArgument(
        "grepair payload v1 (GRG1) is no longer readable; recompress it");
  }
  if (magic != kMagic) return Status::Corruption("bad magic");

  uint64_t num_terminals = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_terminals));
  if (num_terminals == 0) return Status::Corruption("bad terminal count");
  --num_terminals;
  Alphabet terminals;
  for (uint64_t l = 0; l < num_terminals; ++l) {
    uint64_t rank = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &rank));
    if (rank == 0 || rank > kMaxRank) {
      return Status::Corruption("bad label rank");
    }
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
  // The start adjacency's offsets take 8 bytes per start node, and only
  // the caller knows what bounds the count (see the header).
  if (start_nodes > max_start_nodes) {
    return Status::Corruption("start node count exceeds the input");
  }
  if (num_rules > total_bits) {
    return Status::Corruption("rule count exceeds input size");
  }

  SlhrGrammar grammar(std::move(terminals),
                      Hypergraph(static_cast<uint32_t>(start_nodes)));

  // Rules, each installed as soon as it is decoded (its rank comes
  // from its rhs). The rule list grows per successfully decoded rule
  // instead of being sized from the untrusted count: a corrupt count
  // within the total_bits bound could still claim ~56 bytes of
  // Hypergraph per input BIT, a ~450x allocation amplification.
  const uint32_t num_labels =
      static_cast<uint32_t>(num_terminals + num_rules);
  // `r` reaches out-of-line code only as a copy (here and at the k^2
  // walk below), so it stays in registers through the inline reads.
  BitReader rule_reader = r;
  for (uint64_t j = 0; j < num_rules; ++j) {
    uint32_t rank = 0;
    Hypergraph body;
    GREPAIR_RETURN_IF_ERROR(DecodeRule(static_cast<uint32_t>(num_terminals),
                                       num_labels, &rule_reader, &body,
                                       &rank));
    grammar.SetRule(grammar.AddNonterminal(static_cast<int>(rank)),
                    std::move(body));
  }
  r = rule_reader;

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
  // perms_of_length[k]: the dictionary indices of the length-k perms,
  // in dictionary order; a tuple's perm index points into its rank's.
  std::vector<std::vector<uint32_t>> perms_of_length(kMaxRank + 1);
  for (uint64_t i = 0; i < num_perms; ++i) {
    uint64_t len = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &len));
    if (len == 0 || len > kMaxRank) {
      return Status::Corruption("bad perm length");
    }
    std::vector<uint8_t> perm(len);
    uint64_t used = 0;  // entries seen so far, as a bit set
    for (auto& p : perm) {
      uint64_t v = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &v));
      if (v == 0 || v > len) return Status::Corruption("bad perm entry");
      p = static_cast<uint8_t>(v - 1);
      if ((used >> p) & 1) return Status::Corruption("perm repeats an entry");
      used |= uint64_t{1} << p;
    }
    perms_of_length[len].push_back(static_cast<uint32_t>(perms.size()));
    perms.push_back(std::move(perm));
  }

  // Start graph label sections, in label order, each written as it is
  // decoded: a terminal rank-2 section to the start adjacency's keys
  // and degrees, every other section straight into start(). The tuple
  // sections prove their members in range and distinct, and each edge
  // in canonical order after the one before it. A rank-2 section's
  // tree may not be larger than the start graph, so the walk lists
  // start nodes only; a nonterminal cell is checked for the diagonal
  // as its edge is written, and Build checks the terminal cells for
  // it. The checks together cover what Hypergraph::Validate would
  // check of the start graph.
  const Alphabet& alpha = grammar.alphabet();
  Hypergraph* start = grammar.mutable_start();
  // One walk buffer for every rank-2 section: the terminal sections'
  // keys stay in it, back to back, for the start adjacency; a
  // nonterminal section's keys are dropped once written to start().
  K2Tree::Cells cells;
  std::vector<StartAdjacency::Section> csr_sections;
  // Sized at the first terminal rank-2 section: 8 bytes per start node.
  std::optional<StartAdjacency::Degrees> degrees;
  uint64_t decoded_dup_edges = 0;  // whole-grammar budget, see header
  // Room for a section's `more` edges in start(), which it knows before
  // it appends them. The edge list grows geometrically, but never past
  // what the input after the section and the rest of the dup budget can
  // add, since every later edge costs a bit or a unit of the budget:
  // the largest request stays within the input plus the budget.
  auto reserve_edges = [start, &decoded_dup_edges](uint64_t more,
                                                   uint64_t bits_left) {
    const uint64_t need = start->num_edges() + more;
    const uint64_t capacity = start->edges().capacity();
    if (need <= capacity) return;
    const uint64_t most =
        need + bits_left + (kMaxDupEdges - decoded_dup_edges);
    start->ReserveEdges(static_cast<size_t>(
        std::max(need, std::min(2 * capacity, most))));
  };
  for (Label l = 0; l < alpha.size(); ++l) {
    bool present = false;
    GREPAIR_RETURN_IF_ERROR(r.ReadBit(&present));
    if (!present) continue;
    if (alpha.rank(l) == 2) {
      // The walk lists the cells in level order (Z-order), which the
      // CSR build takes as is; dup patches and start() edges need
      // row-major order.
      const bool terminal = grammar.IsTerminal(l);
      if (terminal && !degrees) {
        degrees.emplace(static_cast<uint32_t>(start_nodes));
      }
      // A tree no larger than the start graph lists start nodes only.
      K2Tree::Degrees walk_degrees;
      walk_degrees.limit = start_nodes;
      if (terminal) {
        walk_degrees.rows = degrees->out.data() + 2;
        walk_degrees.cols = degrees->in.data() + 2;
      }
      const size_t first = cells.keys.size();
      BitReader tree_reader = r;
      GREPAIR_RETURN_IF_ERROR(
          K2Tree::DecodeCells(&tree_reader, &cells, walk_degrees));
      r = tree_reader;
      uint64_t* keys = cells.keys.data() + first;
      const size_t num_cells = cells.keys.size() - first;
      uint64_t num_dups = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_dups));
      if (num_dups == 0) return Status::Corruption("bad dup count");
      --num_dups;
      if (num_dups > 0 || !terminal) std::sort(keys, keys + num_cells);
      std::vector<uint32_t> multiplicity;
      if (num_dups > 0) multiplicity.assign(num_cells, 1);
      uint64_t section_dups = 0;
      // Distinct cells are input-proportional (each costs >= 1 tree
      // bit), so only the duplicate count needs an absolute cap: dup
      // entries amplify by design (one Elias code can claim many
      // parallel edges), and a crafted 60-byte file aiming at parser
      // OOM must die here instead of in the edge list. The budget
      // (kMaxDupEdges) is global across label sections — per-section
      // budgets could be evaded by declaring many labels.
      for (uint64_t d = 0; d < num_dups; ++d) {
        uint64_t cell_rank = 0, extra = 0;
        GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &cell_rank));
        GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &extra));
        if (cell_rank == 0 || cell_rank > num_cells) {
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
        section_dups += extra;
        multiplicity[cell_rank - 1] += static_cast<uint32_t>(extra);
        if (terminal) {
          const uint64_t key = keys[cell_rank - 1];
          degrees->out[(key >> 32) + 2] += static_cast<uint32_t>(extra);
          degrees->in[(key & 0xFFFFFFFFu) + 2] += static_cast<uint32_t>(extra);
        }
      }
      if (terminal) {
        csr_sections.push_back(
            {l, first, first + num_cells, std::move(multiplicity)});
        continue;
      }
      reserve_edges(num_cells + section_dups, r.BitsAvailable());
      for (size_t ci = 0; ci < num_cells; ++ci) {
        const uint64_t u = keys[ci] >> 32;
        const uint64_t v = keys[ci] & 0xFFFFFFFFu;
        if (u == v) {
          return Status::Corruption("start edge attaches the same node twice");
        }
        const uint32_t copies = multiplicity.empty() ? 1 : multiplicity[ci];
        for (uint32_t m = 0; m < copies; ++m) {
          start->AddSimpleEdge(static_cast<NodeId>(u), static_cast<NodeId>(v),
                               l);
        }
      }
      cells.keys.resize(first);
      continue;
    }
    // Sorted attachment tuples (see EncodeGrammar). Every tuple takes
    // at least one bit, so a count beyond the bits left fails here.
    const size_t rank = static_cast<size_t>(alpha.rank(l));
    uint64_t num_edges = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_edges));
    if (num_edges > r.BitsAvailable()) {
      return Status::Corruption("hyperedge count exceeds the input");
    }
    const std::vector<uint32_t>& rank_perms = perms_of_length[rank];
    if (rank_perms.empty()) {
      return Status::Corruption("hyperedge without permutations");
    }
    const int perm_bits = IndexBits(rank_perms.size());
    reserve_edges(num_edges, r.BitsAvailable());
    NodeId prev_first = 0;
    NodeId sorted_att[kMaxRank];
    NodeId att[kMaxRank];
    NodeId prev[kMaxRank];
    for (uint64_t i = 0; i < num_edges; ++i) {
      uint64_t perm_idx = 0;
      GREPAIR_RETURN_IF_ERROR(r.ReadBits(perm_bits, &perm_idx));
      if (perm_idx >= rank_perms.size()) {
        return Status::Corruption("bad perm index");
      }
      const std::vector<uint8_t>& perm = perms[rank_perms[perm_idx]];
      uint64_t code = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &code));
      // Wrapping add: with |V_S| < 2^32 the sum lands in range only
      // when the signed step really does.
      const uint64_t first = prev_first + UnZigZag(code - 1);
      if (first >= start_nodes) {
        return Status::Corruption("hyperedge member out of range");
      }
      sorted_att[0] = static_cast<NodeId>(first);
      for (size_t a = 1; a < rank; ++a) {
        uint64_t gap = 0;
        GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &gap));
        if (gap == 0 || gap >= start_nodes - sorted_att[a - 1]) {
          return Status::Corruption("hyperedge member out of range");
        }
        sorted_att[a] = static_cast<NodeId>(sorted_att[a - 1] + gap);
      }
      for (size_t a = 0; a < rank; ++a) att[a] = sorted_att[perm[a]];
      if (i > 0 &&
          std::lexicographical_compare(att, att + rank, prev, prev + rank)) {
        return Status::Corruption("hyperedges out of canonical order");
      }
      start->AddEdge(l, Attachments(att, rank));
      std::copy(att, att + rank, prev);
      prev_first = sorted_att[0];
    }
  }

  // The edge list grew by sections; trimmed to its edges, it holds
  // what an exact reserve would. A decoded graph keeps it, and on
  // read-cold-remote the spare capacity raised the peak RSS by a tenth.
  start->ShrinkEdges();
  auto csr = StartAdjacency::Build(static_cast<uint32_t>(start_nodes),
                                   cells.keys.data(), csr_sections,
                                   degrees ? std::move(*degrees)
                                           : StartAdjacency::Degrees(0));
  if (!csr.ok()) return csr.status();
  grammar.SetStartAdjacency(std::move(csr).ValueOrDie());

  // The start graph passed its checks above; the rules get theirs here.
  // A grammar that breaks them is a corrupt payload, whatever the check.
  const Status rules = grammar.ValidateRules();
  if (!rules.ok()) return Status::Corruption(rules.message());
  return grammar;
}

std::vector<uint8_t> EncodeNodeMapping(const SlhrGrammar& grammar,
                                       const std::vector<NodeId>& origins) {
  assert(origins.size() >= grammar.start().num_nodes());
  BitWriter w;
  EliasDeltaEncode(grammar.start().num_nodes() + 1, &w);
  uint64_t expected = 0;  // the previous origin + 1
  for (NodeId v : origins) {
    EliasDeltaEncode(ZigZag(uint64_t{v} - expected) + 1, &w);
    expected = uint64_t{v} + 1;
  }
  return w.TakeBytes();
}

Result<DecodedNodeMapping> DecodeNodeMapping(const SlhrGrammar& grammar,
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
  // Both directions in one pass. An original id's val(G) id is written
  // once; finding one there already is a repeat, so a success is a
  // permutation. kInvalidNode is no val(G) id (n <= kMaxValNodes).
  DecodedNodeMapping mapping;
  mapping.to_original.resize(n);
  mapping.to_val.assign(n, kInvalidNode);
  uint64_t expected = 0;  // the previous origin + 1
  for (uint64_t v = 0; v < n; ++v) {
    uint64_t code = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &code));
    // Wrapping add: with n <= kMaxValNodes the sum lands in [0, n)
    // only when the signed step really does.
    const uint64_t id = expected + UnZigZag(code - 1);
    if (id >= n) return Status::Corruption("origin id out of range");
    if (mapping.to_val[id] != kInvalidNode) {
      return Status::Corruption("node mapping is not a permutation");
    }
    mapping.to_val[id] = static_cast<NodeId>(v);
    mapping.to_original[v] = static_cast<NodeId>(id);
    expected = id + 1;
  }
  return mapping;
}

double BitsPerEdge(size_t encoded_bytes, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  return static_cast<double>(encoded_bytes) * 8.0 /
         static_cast<double>(num_edges);
}

}  // namespace grepair
