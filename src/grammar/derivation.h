// Deterministic derivation val(G) and the original-node-ID mapping.
//
// Section II fixes node IDs of the derived graph: start-graph nodes keep
// their IDs 0..m-1; the nonterminal edges are ordered, and applying the
// rules in this order assigns the next available IDs to the nodes each
// application creates, in right-hand-side node order. We make the
// recursion order explicit: expansion is depth-first, i.e. applying a
// rule first materializes the rhs's internal nodes (in rhs node-id
// order), then derives the rhs's nonterminal edges in rhs edge order,
// recursively. With canonical right-hand sides this makes val(G) a
// single well-defined hypergraph, which the encoder/decoder round-trips
// and the query layer (node_map.h) indexes without materializing it.
//
// The paper's remark that the compressor "can produce a mapping from
// the new node IDs to the original ones" has two forms here. While a
// grammar is being built, psi' is a NodeMapping of DerivationRecords:
// a record mirrors one rule application and stores, for each internal
// rhs node, the original graph node it stands for, plus one child
// record per nonterminal rhs edge. gRePair builds these during
// replacement and pruning splices them when rules are inlined (see
// pruning.cc). Past Compress, psi' is only the flat origin array
// (origins[val(G) id] = original id): the grammar implies the record
// structure, so FlattenOrigins is the one bridge from records to the
// array, and the encoder, decoder and query layer never build records.
//
// Storage. All records of one NodeMapping live in one arena and link
// by index: a record names a slice of the mapping's shared origin pool
// and the first of its children, and each child names its next
// sibling. Adding a record appends to two vectors, so building psi'
// costs no allocation per rule application, and re-parenting a record
// (pruning dissolves rules) rewrites a few indices instead of moving
// nested vectors. Records that pruning dissolves, and origin slices it
// rewrites, stay in the arena unreferenced until the mapping dies.

#ifndef GREPAIR_GRAMMAR_DERIVATION_H_
#define GREPAIR_GRAMMAR_DERIVATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Index of a DerivationRecord in its NodeMapping's arena.
using RecordId = uint32_t;

/// \brief "No record": the record slot of a terminal edge, and the end
/// of a sibling chain.
inline constexpr RecordId kNoRecord = ~0u;

/// \brief Record of one rule application, mirroring the derivation tree.
struct DerivationRecord {
  /// Original-graph IDs for the rhs's internal nodes, in rhs node-id
  /// order (which equals their creation order):
  /// NodeMapping::origs[first_orig, first_orig + num_origs).
  uint32_t first_orig = 0;
  uint32_t num_origs = 0;
  /// First of the children, one per nonterminal edge of the rhs, in rhs
  /// edge order; the rest follow through next_sibling.
  RecordId first_child = kNoRecord;
  /// Next child of this record's parent; kNoRecord for a last child and
  /// for a start edge's record.
  RecordId next_sibling = kNoRecord;
};

/// \brief Node mapping psi': original IDs for start-graph nodes plus a
/// record tree per start-graph edge, all in one arena (see the top of
/// this file).
struct NodeMapping {
  std::vector<NodeId> start_origs;     // per start-graph node
  std::vector<RecordId> edge_records;  // per start edge; kNoRecord if terminal
  std::vector<DerivationRecord> records;  // the arena
  std::vector<NodeId> origs;              // every record's internal ids

  bool empty() const { return start_origs.empty() && edge_records.empty(); }

  /// \brief Appends a record with internal origins `internal` and the
  /// children `children`, in rhs edge order. A child must not be held
  /// by another record: its next_sibling is overwritten.
  RecordId AddRecord(const std::vector<NodeId>& internal,
                     const std::vector<RecordId>& children);

  /// \brief Record r's internal origins: [begin, begin + num_origs).
  const NodeId* internal_origs(RecordId r) const {
    return origs.data() + records[r].first_orig;
  }
};

/// \brief Per-rule generated sizes: how many internal nodes / terminal
/// edges val(e) contains for an edge e labeled by each rule.
struct GeneratedSizes {
  /// gen_nodes[j]: internal nodes generated by expanding rule j fully.
  std::vector<uint64_t> gen_nodes;
  /// gen_edges[j]: terminal edges generated by expanding rule j fully.
  std::vector<uint64_t> gen_edges;
};

/// \brief Computes generated sizes bottom-up in O(|G|). A grammar can
/// be exponentially smaller than val(G), so the counts saturate at
/// UINT64_MAX instead of wrapping; Derive's limits then reject them.
GeneratedSizes ComputeGeneratedSizes(const SlhrGrammar& grammar);

/// \brief Size of val(G): its nodes and its terminal edges.
struct ValSize {
  uint64_t nodes = 0;
  uint64_t edges = 0;
};

/// \brief Most nodes a val(G) may have: its ids are NodeIds below
/// kInvalidNode. Derive and the decoders reject larger (or saturated)
/// counts.
inline constexpr uint64_t kMaxValNodes = kInvalidNode;

/// \brief Both counts of val(G) from one ComputeGeneratedSizes pass,
/// without materializing it; saturating like ComputeGeneratedSizes.
ValSize ComputeValSize(const SlhrGrammar& grammar);

/// \brief Options for Derive.
struct DeriveOptions {
  /// Refuse to materialize graphs larger than these bounds (grammars can
  /// be exponentially smaller than their language member).
  uint64_t max_nodes = 100'000'000;
  uint64_t max_edges = 500'000'000;
};

/// \brief Materializes val(G).
Result<Hypergraph> Derive(const SlhrGrammar& grammar,
                          const DeriveOptions& options = {});

/// \brief Receives one terminal edge of val(G): its label and its
/// attachment in val(G) node ids (valid only during the call).
using DerivedEdgeSink =
    std::function<void(Label label, const Attachments& att)>;

/// \brief Streams val(G)'s terminal edges to `sink` in Derive's edge
/// order without materializing the graph; same size limits as Derive.
Status ForEachDerivedEdge(const SlhrGrammar& grammar,
                          const DerivedEdgeSink& sink,
                          const DeriveOptions& options = {});

/// \brief Flattens `mapping` (validated against `grammar` first) to the
/// per-node origin vector of val(G) (origins[derived id] = original id)
/// without materializing any edges: O(|val(G)|_V) time and memory. The
/// one bridge from build-time records to the flat form of psi'.
Result<std::vector<NodeId>> FlattenOrigins(const SlhrGrammar& grammar,
                                           const NodeMapping& mapping);

/// \brief Returns val(G) with every node v renamed to origins[v],
/// reproducing the input graph exactly (same IDs, edges up to order).
/// `origins` must be a permutation of val(G)'s node ids (checked).
/// Edges are renamed as they are derived; val(G) itself is never built.
Result<Hypergraph> DeriveOriginal(const SlhrGrammar& grammar,
                                  const std::vector<NodeId>& origins,
                                  const DeriveOptions& options = {});

/// \brief Checks that `mapping` structurally matches `grammar` (record
/// arity equals internal-node and nonterminal-edge counts, recursively),
/// that every index stays inside the arena, and that no record is
/// reached twice.
Status ValidateMapping(const SlhrGrammar& grammar, const NodeMapping& mapping);

/// \brief Sorts the start graph's edges by (label, attachment),
/// permuting `mapping`'s edge records in lock-step when given. This is
/// the edge order the binary encoder stores (its k^2-trees are
/// order-free, so decode reproduces exactly this order); Compress
/// finishes with it so that encode/decode round-trips val(G) bit for
/// bit. Note val(G)'s node numbering depends on the start graph's
/// nonterminal edge order, so canonicalizing may renumber derived
/// nodes (the mapping stays consistent).
void CanonicalizeStartEdgeOrder(SlhrGrammar* grammar, NodeMapping* mapping);

}  // namespace grepair

#endif  // GREPAIR_GRAMMAR_DERIVATION_H_
