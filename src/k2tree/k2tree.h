// k^2-trees (Brisaboa, Ladra & Navarro): compact adjacency/bit-matrix
// representation with in/out-neighbor queries.
//
// The matrix is padded to a power of k and recursively split into k^2
// quadrants; an all-zero quadrant is a 0-bit, a non-empty quadrant is a
// 1-bit whose children continue one level down, and the deepest level
// stores individual cells. Bits are laid out level by level: internal
// levels in T, the last level in L; the root's children are bits
// [0, k^2), and the children of the node whose set bit is the j-th 1
// of T (counting from 1) are bits [j * k^2, (j + 1) * k^2) of T.L.
//
// Build writes that layout from the cells' quadrant paths from the
// root: one sort of the paths, then one scan per level.
//
// Two ways to navigate that layout:
//  * point queries (Contains, RowNeighbors) descend one
//    path and find each child block with Rank1 over T;
//  * enumeration (AllCells, DecodeCells) walks the levels in order.
//    The blocks of level i+1 belong to the set bits of level i in
//    order, so the walk keeps a cursor over the parents instead of
//    calling Rank1, and DecodeCells never builds the rank directories.
//    For k = 2, the only arity the grammar coder writes, a parent's
//    block is one aligned nibble: the walk writes all four candidate
//    cells and advances its output by each bit, then checks the
//    level's written origins against the matrix in a second pass, so
//    no branch depends on the data. Other k step a cursor over the set
//    bits and check each one's origin as they go.
//    The walk yields cells in Z-order; a radix sort on the row alone
//    makes that row-major, since one row's cells already ascend by
//    column.
//
// The layout is validated once, at deserialize time, by both entry
// points: level 0 is one k^2-bit block, level i+1 holds k^2 * ones(level
// i) bits, T ends exactly where the level at depth log_k(size) starts,
// that level is L, the header's cell count equals ones(L), and no set
// bit covers only padding beyond (num_rows, num_cols). Any other input
// is Corruption, so no count from the header sizes an allocation
// before the bits back it. Deserialize checks with Rank1, visiting
// only the nodes that straddle the padding boundary; DecodeCells
// checks inside its enumeration walk.
//
// Used two ways in this repo:
//  * the paper's gRePair serializer encodes the (incompressible) start
//    graph as one k^2-tree per rank-2 label (Section III-C2; other
//    ranks are coded as sorted tuples, see grammar_coder.h),
//  * the plain "k2-tree" baseline compressor (Section IV) stores the
//    whole input graph this way.
// Rectangular matrices are supported via padding.

#ifndef GREPAIR_K2TREE_K2TREE_H_
#define GREPAIR_K2TREE_K2TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/k2tree/bitvector.h"
#include "src/util/bit_stream.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Immutable k^2-tree over an num_rows x num_cols 0/1 matrix.
class K2Tree {
 public:
  K2Tree() = default;

  /// \brief Builds from the set cells (row, col); duplicates are merged.
  /// `k` >= 2; the paper uses k = 2 ("as this provides the best
  /// compression").
  static K2Tree Build(uint32_t num_rows, uint32_t num_cols,
                      std::vector<std::pair<uint32_t, uint32_t>> cells,
                      int k = 2);

  /// \brief Membership query.
  bool Contains(uint32_t row, uint32_t col) const;

  /// \brief Columns set in `row` (out-neighbors for adjacency matrices).
  std::vector<uint32_t> RowNeighbors(uint32_t row) const;

  /// \brief All set cells in row-major order.
  std::vector<std::pair<uint32_t, uint32_t>> AllCells() const;

  /// \brief A serialized tree's dimensions and set cells, each cell
  /// packed as `row << 32 | col`, ascending (row-major order).
  struct Cells {
    uint32_t num_rows = 0;
    uint32_t num_cols = 0;
    std::vector<uint64_t> keys;
  };

  /// \brief Reads an encoding produced by Serialize and lists its cells
  /// without building the rank directories: the entry point for callers
  /// that only enumerate. Same validation as Deserialize.
  static Result<Cells> DecodeCells(BitReader* reader);

  uint64_t num_cells() const { return num_cells_; }
  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_cols() const { return num_cols_; }
  int k() const { return k_; }

  /// \brief Structure bits |T| + |L| (the standard k^2-tree size metric).
  size_t StorageBits() const { return t_.size() + l_.size(); }

  /// \brief The internal levels (T) and the last level (L).
  const RankBitVector& t_bits() const { return t_; }
  const RankBitVector& l_bits() const { return l_; }

  /// \brief Appends a self-delimiting encoding (header + T + L bits).
  void Serialize(BitWriter* writer) const;

  /// \brief Reads an encoding produced by Serialize.
  static Result<K2Tree> Deserialize(BitReader* reader);

 private:
  // Header and bitmaps of a Serialize()d tree, unchecked and without
  // rank directories.
  static Result<K2Tree> ReadUnranked(BitReader* reader);
  // The level starting at `level_begin` of T with `level_bits` bits
  // fits T, and the last level (`leaf`) is exactly L, at T's end.
  Status CheckLevelBounds(bool leaf, uint64_t level_begin,
                          uint64_t level_bits) const;
  // Checks the layout described at the top of this file with Rank1
  // (requires Finalize), visiting only the nodes that straddle the
  // padding boundary.
  Status CheckLayout() const;
  // Appends the set cells as packed keys in level order (unsorted),
  // checking the same layout rules as CheckLayout on the way, rank-free.
  Status AppendKeys(std::vector<uint64_t>* keys) const;

  int k_ = 2;
  uint32_t num_rows_ = 0;
  uint32_t num_cols_ = 0;
  uint64_t size_ = 1;  ///< padded square dimension (power of k)
  uint64_t num_cells_ = 0;
  RankBitVector t_;
  RankBitVector l_;
};

}  // namespace grepair

#endif  // GREPAIR_K2TREE_K2TREE_H_
