// gRePair: grammar-based graph compression (Section III).
//
// Starting from the input graph as the grammar's start graph, gRePair
// repeatedly picks the digram with the most non-overlapping occurrences,
// introduces a fresh nonterminal A with rule A -> digram, and replaces
// every stored occurrence by an A-labeled hyperedge attached to the
// occurrence's external nodes. Occurrence sets are approximated greedily
// by visiting nodes in a configurable order (node_order.h) and pairing
// incident edges per label combination, O(deg) candidates per node.
// After the main loop an optional virtual-edge pass connects the
// remaining components and reruns the loop (improving compression of
// disjoint unions, Section III-A), and pruning removes rules that do
// not pay for themselves (Section III-A3).

#ifndef GREPAIR_GREPAIR_COMPRESSOR_H_
#define GREPAIR_GREPAIR_COMPRESSOR_H_

#include <cstdint>

#include "src/grammar/derivation.h"
#include "src/grammar/grammar.h"
#include "src/grammar/pruning.h"
#include "src/graph/node_order.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Tuning knobs of gRePair (Section III-B).
struct CompressOptions {
  /// Maximum digram rank = maximum nonterminal rank (Section III-B2).
  /// Digrams with more external nodes are not counted. The paper finds
  /// 4 a good compromise (Table IV).
  int max_rank = 4;

  /// Node order for occurrence counting (Section III-B1).
  NodeOrderKind node_order = NodeOrderKind::kFp;

  /// Seed for NodeOrderKind::kRandom.
  uint64_t order_seed = 42;

  /// Connect disconnected components with virtual edges and rerun the
  /// replacement loop before pruning (Section III-A).
  bool connect_components = true;

  /// Run the pruning phase (Section III-A3).
  bool prune = true;
  PruneOptions prune_options;

  /// Track the original-ID mapping psi'; enables exact reconstruction
  /// via DeriveOriginal at some memory cost.
  bool track_node_mapping = false;
};

/// \brief Counters reported by one compression run.
struct CompressStats {
  uint32_t digrams_replaced = 0;       ///< rules created before pruning
  uint64_t occurrences_replaced = 0;
  uint64_t occurrences_indexed = 0;    ///< occurrences ever registered
  uint32_t virtual_edges_added = 0;
  uint32_t rules_after_prune = 0;
  uint64_t input_size = 0;             ///< |g|
  uint64_t output_size = 0;            ///< |G| + |S| after pruning
  PruneStats prune_stats;
};

/// \brief Output of Compress.
struct CompressResult {
  SlhrGrammar grammar;
  /// psi' as the flat origin array: origins[v] is the input node that
  /// val(grammar) node v stands for, a permutation of the input's node
  /// ids. Populated when CompressOptions::track_node_mapping is set
  /// (empty otherwise); with the grammar it reproduces the input exactly
  /// (DeriveOriginal) and it is what EncodeNodeMapping stores. The
  /// derivation records it is flattened from stay inside Compress.
  std::vector<NodeId> origins;
  CompressStats stats;
};

/// \brief Compresses `graph` (over `alphabet`) into an SL-HR grammar.
///
/// The input must pass Hypergraph::Validate and have no external nodes.
/// The result grammar's terminal alphabet equals `alphabet` (the
/// reserved virtual-edge label used internally is stripped before
/// assembly), and its start graph is in canonical (label, attachment)
/// edge order, ready for EncodeGrammar.
Result<CompressResult> Compress(const Hypergraph& graph,
                                const Alphabet& alphabet,
                                const CompressOptions& options = {});

}  // namespace grepair

#endif  // GREPAIR_GREPAIR_COMPRESSOR_H_
