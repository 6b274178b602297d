// Plain k^2-tree graph compressor (Brisaboa, Ladra & Navarro) — the
// paper's primary baseline.
//
// One k^2-tree per edge label over the full adjacency matrix (the RDF
// extension of Alvarez-Garcia et al. that the paper compares against
// does exactly this), serialized with the same self-delimiting tree
// format as the grammar coder. Supports exact decompression and
// in/out-neighbor queries without decompression.

#ifndef GREPAIR_BASELINES_K2_COMPRESSOR_H_
#define GREPAIR_BASELINES_K2_COMPRESSOR_H_

#include <cstdint>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/k2tree/k2tree.h"
#include "src/util/status.h"

namespace grepair {

/// \brief In-memory k^2-tree representation of a simple labeled graph.
class K2GraphRepresentation {
 public:
  /// \brief Builds the per-label trees; `g` must contain only rank-2
  /// edges.
  static K2GraphRepresentation Build(const Hypergraph& g,
                                     const Alphabet& alphabet, int k = 2);

  /// \brief Serialized byte size (what the bench tables measure).
  std::vector<uint8_t> Serialize() const;

  static Result<K2GraphRepresentation> Deserialize(
      const std::vector<uint8_t>& bytes);

  /// \brief Reconstructs the graph (edges in label-major, row-major
  /// order).
  Hypergraph ToGraph() const;

  /// \brief Out-neighbors of `v` under `label`; empty for labels or
  /// nodes outside the represented ranges.
  std::vector<uint32_t> OutNeighbors(uint32_t v, Label label) const {
    if (label >= trees_.size() || v >= num_nodes_) return {};
    return trees_[label].RowNeighbors(v);
  }

  bool HasEdge(uint32_t u, uint32_t v, Label label) const {
    if (label >= trees_.size() || u >= num_nodes_ || v >= num_nodes_) {
      return false;
    }
    return trees_[label].Contains(u, v);
  }

  uint32_t num_nodes() const { return num_nodes_; }
  size_t num_labels() const { return trees_.size(); }

 private:
  uint32_t num_nodes_ = 0;
  std::vector<K2Tree> trees_;  // one per label (may be empty trees)
};

/// \brief One-shot: serialized size in bytes of the k^2-tree baseline.
size_t K2CompressedSize(const Hypergraph& g, const Alphabet& alphabet,
                        int k = 2);

}  // namespace grepair

#endif  // GREPAIR_BASELINES_K2_COMPRESSOR_H_
