// HN — dense-substructure virtual nodes + k^2-tree (Hernandez &
// Navarro, "Compressed representations for web and social graphs",
// KAIS 2014; discovery per Buehrer & Chellapilla, WSDM 2008).
//
// Repeatedly (T iterations): order nodes by a min-hash shingle of their
// out-neighborhoods, group nodes with equal shingles, and greedily
// extract bicliques (S x C with every s in S pointing to every c in C)
// whose replacement saves at least `min_saving` edges. Each extracted
// biclique is replaced by a fresh *virtual node* w with edges s -> w
// and w -> c, turning |S|*|C| edges into |S| + |C|. The final graph
// (original + virtual nodes) is stored as a k^2-tree.
//
// The defaults T=10, P=2 (minimum rows per pattern), ES=10 (minimum
// edge saving) are the parameters the paper reports as best for HN.
// Decompression expands virtual nodes transitively.

#ifndef GREPAIR_BASELINES_HN_H_
#define GREPAIR_BASELINES_HN_H_

#include <cstdint>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/status.h"

namespace grepair {

struct HnOptions {
  int iterations = 10;       ///< T
  uint32_t min_rows = 2;     ///< P: minimum |S| of an extracted pattern
  int64_t min_saving = 10;   ///< ES: minimum edge saving per pattern
  int k = 2;                 ///< k^2-tree arity for the residual
  uint64_t seed = 1;         ///< shingle hash seed
};

struct HnCompressed {
  uint32_t original_nodes = 0;
  uint32_t total_nodes = 0;      ///< original + virtual
  uint32_t patterns = 0;         ///< bicliques extracted
  uint64_t residual_edges = 0;   ///< edges in the stored graph
  std::vector<uint8_t> bytes;    ///< serialized k^2 representation

  size_t SizeBytes() const { return bytes.size() + 12; }
};

/// \brief Compresses the unlabeled out-adjacency structure of `g`.
HnCompressed HnCompress(const Hypergraph& g, const HnOptions& options = {});

/// \brief Expands virtual nodes back to the original edge set.
Result<Hypergraph> HnDecompress(const HnCompressed& compressed);

}  // namespace grepair

#endif  // GREPAIR_BASELINES_HN_H_
