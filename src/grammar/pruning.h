// Grammar pruning (Section III-A3).
//
// Removes rules that do not contribute to compression:
//   phase 1: every nonterminal with ref(A) = 1 is inlined (a rule used
//            once never pays for itself),
//   phase 2: nonterminals are visited bottom-up in <=NT order and every
//            rule with contribution con(A) <= 0 is inlined, where
//            con(A) = ref(A)*(|rhs(A)| - |handle(A)|) - |rhs(A)|.
// Contributions are recomputed at each visit because inlining changes
// both |rhs| and ref of the remaining rules.
//
// Inlining a rule A replaces every A-labeled edge (in the start graph
// and in other right-hand sides) by a copy of rhs(A) whose external
// nodes merge with the edge's attachment. When a NodeMapping is being
// tracked, the derivation records are rewritten along with it so that
// DeriveOriginal still reproduces the input graph exactly after pruning.
//
// Cost model. The decisions read only ref counts and the rules' own
// |rhs|, never the start graph, so inlines happen in two parts:
//  - Rule side, at each inline: every rule that references A rewrites
//    its edge list with rhs(A) spliced in, O(|host|) per host. rhs(A)
//    at that moment is kept as the snapshot of that inline step.
//  - Start graph and records, once at the end: one document-order
//    expansion of the start graph over the snapshots, and one
//    post-order walk of each derivation-record tree. Both are linear
//    in the start graph and records before plus after pruning.
// PruneStats::spliced_edges counts the edges written by both parts.
// (A nested chain of rules each inlined into the next still costs
// O(|host|) per link on the rule side; gRePair's rules are digrams, so
// hosts stay small.)
//
// Node numbering. The result is the same as inlining each rule into
// every host in turn, in inline-step order: in each host, the nodes
// created by one step are appended after those of earlier steps, one
// block of rhs(A)'s internal nodes per replaced edge, in the host's
// edge order at that step; replaced edges are spliced in place. In the
// start graph this numbers new nodes by step and, within a step, by
// start-edge order; start_origs and the records follow the same order.

#ifndef GREPAIR_GRAMMAR_PRUNING_H_
#define GREPAIR_GRAMMAR_PRUNING_H_

#include <cstdint>

#include "src/grammar/derivation.h"
#include "src/grammar/grammar.h"

namespace grepair {

struct PruneOptions {
  bool remove_single_refs = true;   ///< phase 1 (ref(A) == 1)
  bool remove_nonpositive = true;   ///< phase 2 (con(A) <= 0)
  /// Repeat both phases until no rule is removed (extension; the paper
  /// does a single bottom-up pass).
  bool iterate_to_fixpoint = false;
};

struct PruneStats {
  uint32_t removed_single_ref = 0;
  uint32_t removed_contribution = 0;
  uint64_t size_before = 0;  ///< |G| + |S| before pruning
  uint64_t size_after = 0;   ///< |G| + |S| after pruning
  /// Edges written into edge lists by inlining: each rule-side splice
  /// rewrites its host's list, the start graph is written once.
  uint64_t spliced_edges = 0;
};

/// \brief Prunes `grammar` in place. `mapping` may be null; when given it
/// is kept consistent (records rewritten along with every inline).
PruneStats PruneGrammar(SlhrGrammar* grammar, NodeMapping* mapping,
                        const PruneOptions& options = {});

/// \brief Inlines rule `nt` at every reference and deletes it, keeping
/// `mapping` consistent. Used by tests to inline one chosen rule.
void InlineRuleEverywhere(SlhrGrammar* grammar, Label nt,
                          NodeMapping* mapping);

}  // namespace grepair

#endif  // GREPAIR_GRAMMAR_PRUNING_H_
