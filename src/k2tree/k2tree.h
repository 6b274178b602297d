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
//  * enumeration (DecodeCells, and AllCells through it) walks the
//    levels in order. The blocks of level i+1 belong to the set bits
//    of level i in order, and level i+1 starts where level i ends, so
//    the walk reads T and then L front to back, in place from the
//    serialized bits through the BitReader's window: it copies no
//    bitmap, builds no rank directory and keeps no cursor but the
//    reader's. Each level writes the packed origin of every child
//    whose bit is set. For k = 2, the only arity the grammar coder
//    writes, a parent's block is one nibble, read eight parents per
//    32-bit read: the walk writes all four candidate children and
//    advances its output by each bit, so no branch depends on the
//    data. Other k read each block in chunks of up to 32 bits.
//    A set bit lies in the padding exactly when its child's origin
//    does, and since every parent lies inside, that can only happen on
//    a level where a bound cuts the last band of parents after its
//    first child (bound mod (k * sub) in (0, (k - 1) * sub], sub the
//    child width): about half the levels. Only those levels get the
//    padding check, one branch-free pass over the level's origins
//    that vectorizes. The level buffers are sized from the level's set
//    bits, counted in place before the level is walked; they are
//    reserved once per walk, for as many nodes as the tree claims
//    cells (no level of a valid tree has more), and never
//    zero-filled. They are freed with the walk: a shard's terminal
//    tree is walked first, and keeping its buffers through the
//    sections after it raised the read corpus's summed peak heap per
//    DecodeShardPayload from 4.3 to 6.0 MB.
//    The walk can also count each row's and column's cells at the
//    leaf level (Degrees), which is what the grammar decoder's start
//    CSR is sized by.
//    The walk yields cells in Z-order (by their quadrant path from
//    the root), and DecodeCells appends them that way: within one row
//    they ascend by column and within one column by row, which is all
//    the grammar decoder's CSR build needs. Callers that need
//    row-major order sort the keys themselves, as AllCells does.
//
// The layout is validated once, at deserialize time, by both entry
// points: level 0 is one k^2-bit block, level i+1 holds k^2 * ones(level
// i) bits, T ends exactly where the level at depth log_k(size) starts,
// that level is L, the header's cell count equals ones(L), and no set
// bit covers only padding beyond (num_rows, num_cols). Any other input
// is Corruption. The header is checked against the input too: T and L
// must lie in it before a bit is read, so no count from the header
// sizes an allocation before the bits back it, and a header claiming
// more is Corruption. Deserialize checks with Rank1, visiting only the
// nodes that straddle the padding boundary; DecodeCells checks inside
// its enumeration walk.
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
#include "src/util/uninitialized.h"

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

  /// \brief All set cells in row-major order (DecodeCells over the
  /// tree's own serialization, then a sort).
  std::vector<std::pair<uint32_t, uint32_t>> AllCells() const;

  /// \brief Packed cells, grown without zero-filling: DecodeCells
  /// resizes past what it will write, then trims to what it wrote.
  using KeyVector = UninitializedVector<uint64_t>;

  /// \brief Serialized trees' set cells, each packed as `row << 32 |
  /// col`, as DecodeCells appends them: in level order (Z-order, see the
  /// top of this file), so not sorted, but ascending within each row
  /// and within each column. One Cells can take many trees.
  struct Cells {
    /// Dimensions of the tree decoded last.
    uint32_t num_rows = 0;
    uint32_t num_cols = 0;
    /// Every decoded tree's cells, back to back: DecodeCells appends
    /// and never clears.
    KeyVector keys;
  };

  /// \brief What DecodeCells holds a tree to, and where it counts the
  /// cells it lists. A tree with more than `limit` rows or columns is
  /// Corruption before its bits are walked. With `rows` and `cols`
  /// set, the leaf level's cells are counted as they are listed:
  /// rows[r] and cols[c] go up by one per cell (r, c), so both arrays
  /// hold at least `limit` entries.
  struct Degrees {
    uint64_t limit = UINT64_MAX;
    uint32_t* rows = nullptr;
    uint32_t* cols = nullptr;
  };

  /// \brief Reads an encoding produced by Serialize and appends its
  /// cells to `cells->keys` without building the rank directories: the
  /// entry point for callers that only enumerate. Same validation and
  /// statuses as Deserialize, and on success the reader ends where
  /// Deserialize's does. On failure `cells` holds an unspecified
  /// suffix past the keys it had.
  static Status DecodeCells(BitReader* reader, Cells* cells,
                            const Degrees& degrees);
  static Status DecodeCells(BitReader* reader, Cells* cells) {
    return DecodeCells(reader, cells, Degrees());
  }

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
  // The header of a Serialize()d tree: k, the dimensions, the cell
  // count and the sizes of T and L, range-checked, with T and L in the
  // input that follows; sets size_.
  static Status ReadHeader(BitReader* reader, K2Tree* tree, uint64_t* t_bits,
                           uint64_t* l_bits);
  // The level starting at `level_begin` of T with `level_bits` bits
  // fits T (`t_bits` long), and the last level (`leaf`) is exactly L
  // (`l_bits` long), at T's end.
  static Status CheckLevelBounds(bool leaf, uint64_t level_begin,
                                 uint64_t level_bits, uint64_t t_bits,
                                 uint64_t l_bits);
  // Checks the layout described at the top of this file with Rank1
  // (requires Finalize), visiting only the nodes that straddle the
  // padding boundary.
  Status CheckLayout() const;

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
