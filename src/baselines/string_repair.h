// Classic string RePair (Larsson & Moffat) over integer sequences, and
// the adjacency-list RePair graph baseline of Claude & Navarro ("Fast
// and Compact Web Graph Representations", TWEB 2010) that the paper
// mentions (and whose results it omits as dominated).
//
// RePair repeatedly replaces the most frequent adjacent symbol pair by
// a fresh symbol. This implementation uses the standard linked-list
// representation with a pair-count table and lazily validated
// occurrence lists: each replacement is O(1) amortized, total
// O(n + rules) expected.

#ifndef GREPAIR_BASELINES_STRING_REPAIR_H_
#define GREPAIR_BASELINES_STRING_REPAIR_H_

#include <cstdint>
#include <vector>

#include "src/graph/hypergraph.h"

namespace grepair {

/// \brief RePair output: rules over symbols (terminal symbols are
/// [0, alphabet_size), rule i defines symbol alphabet_size + i).
struct StringRePairResult {
  uint32_t alphabet_size = 0;
  std::vector<std::pair<uint32_t, uint32_t>> rules;
  std::vector<uint32_t> sequence;
};

/// \brief Runs RePair until no pair occurs twice.
StringRePairResult StringRePair(const std::vector<uint32_t>& input,
                                uint32_t alphabet_size);

/// \brief Expands the grammar back to the original sequence.
std::vector<uint32_t> StringRePairExpand(const StringRePairResult& result);

/// \brief Claude-Navarro style graph compression: concatenated sorted
/// adjacency lists with per-list unique separators (symbol n + u ends
/// node u's list), compressed with RePair.
struct AdjRePairCompressed {
  uint32_t num_nodes = 0;
  StringRePairResult repair;
};

/// \brief Compresses the unlabeled out-adjacency structure of `g`.
AdjRePairCompressed AdjListRePairCompress(const Hypergraph& g);

/// \brief Expands the RePair grammar and re-splits the separator-coded
/// sequence back into adjacency lists (unlabeled graph, sorted lists).
Result<Hypergraph> AdjListRePairDecompress(
    const AdjRePairCompressed& compressed);

/// \brief Delta-coded byte serialization, whose length is the size
/// the bench tables report.
std::vector<uint8_t> AdjRePairSerialize(const AdjRePairCompressed& c);

/// \brief One-shot: serialized size in bytes of the adjacency-list
/// RePair baseline (thin wrapper over AdjListRePairCompress).
size_t AdjListRePairSizeBytes(const Hypergraph& g);

}  // namespace grepair

#endif  // GREPAIR_BASELINES_STRING_REPAIR_H_
