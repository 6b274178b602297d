// LM — list merging web graph compression (Grabowski & Bieniecki,
// "Tight and simple web graph compression for forward and reverse
// neighbor queries", DAM 2014).
//
// Nodes are processed in blocks of `chunk_size` (the paper and ours use
// 64): the block's adjacency lists are merged into one ordered list of
// distinct neighbors, stored as delta-coded gaps, followed by one
// chunk_size-bit membership column per merged neighbor saying which of
// the block's lists contain it. The byte stream is then passed through
// Deflate, which is where most of the compression comes from (shared
// neighbors across consecutive nodes collapse into highly repetitive
// flag columns).
//
// LM supports out-neighbor queries by decoding one block; it does not
// handle edge labels (the paper compares it only on unlabeled graphs).

#ifndef GREPAIR_BASELINES_LM_H_
#define GREPAIR_BASELINES_LM_H_

#include <cstdint>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Compressed LM representation.
struct LmCompressed {
  uint32_t num_nodes = 0;
  uint32_t chunk_size = 64;
  uint64_t num_edges = 0;
  size_t raw_stream_size = 0;      ///< pre-Deflate size (for Inflate)
  std::vector<uint8_t> deflated;   ///< Deflate(stream)

  /// \brief Total representation size in bytes (header + payload).
  size_t SizeBytes() const { return deflated.size() + 16; }
};

/// \brief Compresses the out-adjacency structure of `g` (labels are
/// ignored; `g`'s rank-2 edges define the lists).
LmCompressed LmCompress(const Hypergraph& g, uint32_t chunk_size = 64);

/// \brief Reconstructs all adjacency lists (unlabeled graph; edges in
/// node-major sorted order).
Result<Hypergraph> LmDecompress(const LmCompressed& compressed);

}  // namespace grepair

#endif  // GREPAIR_BASELINES_LM_H_
