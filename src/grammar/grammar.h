// Straight-line hyperedge replacement (SL-HR) grammars (Definition 1).
//
// G = (N, P, S): a ranked nonterminal alphabet N disjoint from the
// terminal alphabet, exactly one rule A -> rhs(A) per nonterminal, an
// acyclic reference relation <=NT, and a start graph S over terminals
// and nonterminals. Such a grammar derives exactly one graph val(G)
// (up to isomorphism; our deterministic derivation order makes it
// unique, see derivation.h).
//
// Label convention: the combined alphabet holds terminals first, so
// labels [0, num_terminals) are terminal and label num_terminals + j
// belongs to rule j. Rules are kept in a bottom-up topological order of
// <=NT: rule j's right-hand side references only terminals and rules
// with index < j. gRePair produces rules in this order naturally (a
// digram's edges exist before the digram is replaced) and pruning
// preserves it; Validate() checks it.
//
// Right-hand sides are kept in *canonical form*: the k external nodes
// are exactly nodes 0..k-1, in external order. This is the form the
// paper's serializer needs ("the order induced by the IDs of the
// external nodes is the same as the order of the external nodes") and
// it pins down the derivation order of internal nodes.
//
// A decoded grammar holds its start graph in two parts: the terminal
// rank-2 edges in an immutable CSR (start_adjacency.h) and every other
// edge in start(). A grammar under construction, as the compressor and
// pruning build it, has an empty CSR and its whole start graph in
// start(). Every function here and in derivation.h, the encoder and
// src/query reads both parts.

#ifndef GREPAIR_GRAMMAR_GRAMMAR_H_
#define GREPAIR_GRAMMAR_GRAMMAR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/grammar/start_adjacency.h"
#include "src/graph/hypergraph.h"
#include "src/util/status.h"

namespace grepair {

/// \brief A straight-line hyperedge replacement grammar.
class SlhrGrammar {
 public:
  SlhrGrammar() = default;

  /// \brief Creates a grammar whose terminals are `terminals` and whose
  /// start graph is `start`.
  SlhrGrammar(Alphabet terminals, Hypergraph start);

  /// \brief Adds a fresh nonterminal of the given rank with an empty
  /// rule; returns its label. The rule must be set before use.
  Label AddNonterminal(int rank, std::string name = "");

  /// \brief Sets the right-hand side of nonterminal `nt`.
  void SetRule(Label nt, Hypergraph rhs);

  bool IsNonterminal(Label l) const { return l >= num_terminals_; }
  bool IsTerminal(Label l) const { return l < num_terminals_; }

  /// \brief Index of the rule for nonterminal label `nt`.
  uint32_t RuleIndex(Label nt) const { return nt - num_terminals_; }

  /// \brief Nonterminal label of rule `rule_index`.
  Label NonterminalLabel(uint32_t rule_index) const {
    return num_terminals_ + rule_index;
  }

  uint32_t num_terminals() const { return num_terminals_; }
  uint32_t num_rules() const { return static_cast<uint32_t>(rules_.size()); }

  const Alphabet& alphabet() const { return alphabet_; }
  /// \brief The start graph's edges other than those in
  /// start_adjacency(); all of them while that is empty.
  const Hypergraph& start() const { return start_; }
  Hypergraph* mutable_start() { return &start_; }

  /// \brief The terminal rank-2 start edges DecodeGrammar keeps out of
  /// start(), over start()'s nodes; empty in a grammar under
  /// construction.
  const StartAdjacency& start_adjacency() const { return start_adjacency_; }

  /// \brief Installs `adjacency`; start() must then hold no terminal
  /// rank-2 edge, so that each label's start edges sit in one part.
  void SetStartAdjacency(StartAdjacency adjacency) {
    start_adjacency_ = std::move(adjacency);
  }

  /// \brief Start-graph edges in both parts.
  uint64_t num_start_edges() const {
    return start_.num_edges() + start_adjacency_.num_edges();
  }

  const Hypergraph& rhs(Label nt) const { return rules_[RuleIndex(nt)]; }
  const Hypergraph& rhs_by_index(uint32_t i) const { return rules_[i]; }
  Hypergraph* mutable_rhs(Label nt) { return &rules_[RuleIndex(nt)]; }
  Hypergraph* mutable_rhs_by_index(uint32_t i) { return &rules_[i]; }

  int rank(Label l) const { return alphabet_.rank(l); }

  /// \brief |G| restricted to rules: sum of |rhs(A)| (the paper's |G|).
  uint64_t RuleSize() const;

  /// \brief |G| + |S|: total representation size including the start
  /// graph (what the compression-ratio figures use).
  uint64_t TotalSize() const {
    return RuleSize() + start_.TotalSize() + start_adjacency_.num_edges();
  }

  /// \brief ref(A) for every nonterminal, indexed by rule index: the
  /// number of A-labeled edges in S and all right-hand sides.
  std::vector<uint64_t> AllReferenceCounts() const;

  /// \brief height(G): length of the longest <=NT chain from the start
  /// graph (0 for a grammar whose start graph is terminal).
  uint32_t Height() const;

  /// \brief Validates definition invariants: alphabet ranks, hypergraph
  /// restrictions, bottom-up rule order, rank(A) == rank(rhs(A)), and
  /// canonical right-hand sides (external nodes are 0..k-1 in order).
  /// It is the start graph's checks followed by ValidateRules().
  Status Validate() const;

  /// \brief The rule half of Validate(): every right-hand side, and
  /// nothing of the start graph. For DecodeGrammar, which checks each
  /// start edge as it writes it and so need not scan them again.
  Status ValidateRules() const;

  /// \brief Size of handle(A) for a rank-k nonterminal: k nodes plus one
  /// edge of size (k <= 2 ? 1 : k). This is what one occurrence of a
  /// nonterminal edge costs in a graph (Section III-A3).
  static uint64_t HandleSize(int rank) {
    return static_cast<uint64_t>(rank) + (rank <= 2 ? 1 : rank);
  }

  /// \brief Contribution con(A) = ref*(|rhs|-|handle|) - |rhs|
  /// (Section III-A3), given a precomputed ref count.
  int64_t Contribution(Label nt, uint64_t ref) const;

  /// \brief Removes the rules marked in `dead` (indexed by rule index;
  /// they must be unreferenced) and renumbers the surviving nonterminal
  /// labels densely, rewriting the start graph and all right-hand sides.
  void CompactRules(const std::vector<char>& dead);

 private:
  Alphabet alphabet_;          // terminals then nonterminals
  uint32_t num_terminals_ = 0;
  std::vector<Hypergraph> rules_;  // rules_[j] is rhs of label num_terminals_+j
  Hypergraph start_;
  StartAdjacency start_adjacency_;
};

/// \brief Summary statistics for reporting.
struct GrammarStats {
  uint32_t num_rules = 0;
  uint32_t height = 0;
  uint64_t rule_size = 0;
  uint64_t start_size = 0;
  uint64_t total_size = 0;
  uint32_t max_nonterminal_rank = 0;
  uint32_t start_nodes = 0;
  uint32_t start_edges = 0;
};

GrammarStats ComputeGrammarStats(const SlhrGrammar& grammar);

}  // namespace grepair

#endif  // GREPAIR_GRAMMAR_GRAMMAR_H_
