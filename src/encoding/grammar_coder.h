// Binary grammar format (Section III-C2), payload version 2 (magic
// "GRG2"; a v1 "GRG1" grammar fails closed with a "recompress" message).
//
// The output has four sections:
//   1. header: alphabet ranks (terminals and nonterminals) and |V_S|,
//   2. rules: each production as the paper's bit format — edge count,
//      then per edge a terminal/nonterminal marker bit, the attachment
//      count, per attachment an external-flag bit and a delta-coded
//      node id, and finally the delta-coded label,
//   3. a permutation dictionary for hyperedge attachments (the paper
//      stores one permutation per hyperedge with fixed-width indices
//      into the set of distinct permutations; the dictionary itself is
//      delta-coded here, a detail the paper leaves open). Each entry
//      must be a permutation; an edge's index counts only the entries
//      of its own rank, so it is IndexBits(#perms of that rank) wide,
//   4. start graph: per label a presence bit, then
//      - rank 2: a k^2-tree of the label's adjacency matrix, then a
//        multiplicity patch list that preserves parallel nonterminal
//        edges with identical attachments, which a 0/1 matrix cannot
//        represent (also left open by the paper);
//      - any other rank: the edge count, then per edge in canonical
//        order its permutation index and its sorted attachment tuple
//        s_0 < s_1 < ...: zigzag(s_0 - previous tuple's s_0) + 1 (the
//        first tuple's previous s_0 is 0), then each gap s_j - s_{j-1}.
//        att[i] = s[perm[i]]. v1 coded these labels as node x edge
//        incidence k^2-trees; on the dblp and RDF corpora the tuples
//        take 34-41% fewer bytes, perm indices included.
//
// The start graph's edges are stored in canonical (label, attachment)
// order, which Compress outputs: rank-2 sections are in that order by
// construction, and the decoder rejects tuple sections that break it.
// Decoding reproduces the grammar exactly (labels, rules, start graph
// and therefore val(G)), with its terminal rank-2 start edges in the
// start adjacency instead of start() (grammar.h); EncodeGrammar reads
// both parts, so re-encoding a decoded grammar gives the same bytes.

#ifndef GREPAIR_ENCODING_GRAMMAR_CODER_H_
#define GREPAIR_ENCODING_GRAMMAR_CODER_H_

#include <cstdint>
#include <vector>

#include "src/grammar/derivation.h"
#include "src/grammar/grammar.h"
#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Per-section bit accounting (the paper observes the start
/// graph dominates with > 90% of the output on most datasets).
struct EncodeStats {
  size_t total_bits = 0;
  size_t header_bits = 0;
  size_t rule_bits = 0;
  size_t start_graph_bits = 0;
};

/// \brief Format capacity limit: total duplicate parallel rank-2
/// edges per encoded grammar (summed over all label sections, so a
/// crafted file cannot evade it by spreading duplicates across many
/// sections). DecodeGrammar rejects files beyond it as corrupt (the
/// multiplicity field is how crafted input requests parser OOM),
/// Compress() returns InvalidArgument for graphs that would exceed
/// it, and EncodeGrammar asserts it as an invariant.
inline constexpr uint64_t kMaxDupEdges = 1ull << 24;

/// \brief Serializes the grammar to the paper's bit format.
///
/// The grammar must be valid (SlhrGrammar::Validate) and its start
/// graph must be in canonical edge order; see kMaxDupEdges for the
/// parallel-edge capacity limit.
std::vector<uint8_t> EncodeGrammar(const SlhrGrammar& grammar,
                                   EncodeStats* stats = nullptr);

/// \brief Parses a grammar from EncodeGrammar's output. Label names are
/// synthetic (they are not serialized). Treats `bytes` as untrusted:
/// counts that size allocations are bounded by the input size and the
/// capacity limits above, so corrupt or crafted input yields a clean
/// Status instead of unbounded allocation. The one exception is the
/// start node count |V_S|: isolated start nodes cost the grammar no
/// bits, yet the start adjacency takes 8 bytes per start node. So
/// |V_S| above `max_start_nodes` is Corruption before anything is
/// sized by it. CompressedGraph::Deserialize passes its payload's
/// bits (psi' spends at least one per node); the default, the 32-bit
/// id range, is for bytes the caller encoded itself.
///
/// The terminal rank-2 start edges go into the grammar's start
/// adjacency, a two-way CSR built from each label's k^2-tree keys in
/// the walk's level order (start_adjacency.h); start() holds the other
/// start edges, in canonical order. Dup patches count a label's cells
/// in row-major order, so a label with patches is sorted first, and
/// they expand to parallel CSR entries.
///
/// Each section is written as it is decoded, and each check runs
/// once, where its value is decoded. A rule edge's nonterminal marker
/// must agree with its label. A rank-2 section's tree may be no larger
/// than the start graph, so its cells lie below |V_S|; a nonterminal
/// section's cells are appended to start() in row-major order, each
/// checked for a self-loop, and a terminal section's keys and degrees
/// stay in the walk's buffers until the CSR is built once, which checks
/// them for self-loops. The tuple sections prove their members in
/// range and distinct, and each edge in canonical order after the one
/// before it, as they read them; each dup patch's cell rank and the
/// kMaxDupEdges budget are checked as the patch is read. start()'s
/// edge list grows per section, never past what the rest of the input
/// and of the budget could add. SlhrGrammar::ValidateRules then checks
/// the rules. A success therefore passes the full
/// SlhrGrammar::Validate. Every failure is Corruption, or OutOfRange
/// when the input ends early; only a retired GRG1 payload is
/// InvalidArgument.
Result<SlhrGrammar> DecodeGrammar(const std::vector<uint8_t>& bytes);

/// \brief Zero-copy overload: decodes straight out of a borrowed view
/// (an mmap'd file, a shard payload inside a mapped container). The
/// bytes are only read during the call; the returned grammar owns all
/// of its state.
Result<SlhrGrammar> DecodeGrammar(ByteSpan bytes,
                                  uint64_t max_start_nodes = UINT32_MAX);

/// \brief Convenience: bits-per-edge of an encoded grammar for a graph
/// with `num_edges` edges (the paper's compression metric).
double BitsPerEdge(size_t encoded_bytes, uint64_t num_edges);

/// \brief Serializes the psi' node mapping, given as the flat origin
/// array (origins[val(G) id] = original id, see derivation.h).
///
/// The paper stores this mapping out of band ("we do not include the
/// space required to retain the original node IDs"); this encoder makes
/// that concrete. Format: EliasDelta(|V_S| + 1), then for every origin
/// o[i] in val(G) id order EliasDelta(zigzag(o[i] - o[i-1] - 1) + 1),
/// with o[-1] = -1: a node numbered right after its predecessor costs
/// one bit. val(G) numbers the start graph's nodes first and then the
/// nodes each rule application creates, in derivation order, so the
/// grammar implies which rule application each entry belongs to and
/// decoding needs the grammar it was encoded against.
std::vector<uint8_t> EncodeNodeMapping(const SlhrGrammar& grammar,
                                       const std::vector<NodeId>& origins);

/// \brief psi' both ways, each a permutation of val(G)'s ids.
struct DecodedNodeMapping {
  std::vector<NodeId> to_original;  ///< val(G) id -> original id
  std::vector<NodeId> to_val;       ///< original id -> val(G) id
};

/// \brief Inverse of EncodeNodeMapping and the mapping's one validation
/// point. `n` is ComputeValSize(grammar).nodes, the id count the
/// grammar fixes; callers already have it at hand. Treats `bytes`
/// as untrusted: the count must fit the input before anything is
/// allocated, the stored |V_S| must match the grammar's, and every id
/// a gap steps to must be in range and unique, so a success is a
/// permutation of val(G)'s ids. One pass fills both directions, and
/// the inverse is the uniqueness check: an original id whose val(G)
/// id is already set repeats.
Result<DecodedNodeMapping> DecodeNodeMapping(const SlhrGrammar& grammar,
                                             uint64_t n, ByteSpan bytes);

}  // namespace grepair

#endif  // GREPAIR_ENCODING_GRAMMAR_CODER_H_
