#include "src/k2tree/k2tree.h"

#include <algorithm>
#include <cassert>

#include "src/util/elias.h"

namespace grepair {

namespace {

using Cell = std::pair<uint32_t, uint32_t>;

// Bits of T or L under construction, LSB-first in words.
struct LevelBits {
  std::vector<uint64_t> words;
  uint64_t size = 0;
};

// Writes the levels of the tree over `cells` (a size x size matrix with
// `depth` levels) into t and l; returns the number of distinct cells.
// Each cell becomes its quadrant path from the root as a key, one
// `digit_bits` wide digit per level (row quadrant * k + column
// quadrant), so sorted keys list the cells in Z-order: the order in
// which the level-ordered layout meets them on every level. The nodes
// of level d are the runs of keys that share their first d digits, in
// order, and each level is one scan that sets, per node, the bits of
// its children. `Key` must hold depth * digit_bits bits.
template <typename Key>
uint64_t EmitLevels(const std::vector<Cell>& cells, uint64_t size, int k,
                    int depth, int digit_bits, LevelBits* t, LevelBits* l) {
  std::vector<Key> keys;
  keys.reserve(cells.size());
  for (const Cell& c : cells) {
    Key key = 0;
    for (uint64_t sub = size / k; sub > 0; sub /= k) {
      const uint64_t digit = (c.first / sub % k) * k + c.second / sub % k;
      key = (key << digit_bits) | digit;
    }
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const Key digit_mask = (Key{1} << digit_bits) - 1;
  const uint64_t kk = static_cast<uint64_t>(k) * k;
  for (int d = 0; d < depth; ++d) {
    LevelBits* bits = d + 1 == depth ? l : t;
    const int digit_shift = (depth - 1 - d) * digit_bits;
    const int parent_shift = digit_shift + digit_bits;
    uint64_t block = 0;  // bit offset of the current node's children
    for (size_t i = 0; i < keys.size(); ++i) {
      // Level 0 has one node, the root; below, a node starts wherever
      // the parent prefix changes.
      if (i == 0 || (d > 0 && (keys[i] >> parent_shift) !=
                                  (keys[i - 1] >> parent_shift))) {
        block = bits->size;
        bits->size += kk;
        bits->words.resize((bits->size + 63) / 64, 0);
      }
      const uint64_t bit =
          block + static_cast<uint64_t>((keys[i] >> digit_shift) & digit_mask);
      bits->words[bit / 64] |= 1ull << (bit % 64);
    }
  }
  return keys.size();
}

}  // namespace

K2Tree K2Tree::Build(uint32_t num_rows, uint32_t num_cols,
                     std::vector<Cell> cells, int k) {
  assert(k >= 2);
  K2Tree tree;
  tree.k_ = k;
  tree.num_rows_ = num_rows;
  tree.num_cols_ = num_cols;

  uint64_t need = std::max<uint64_t>({num_rows, num_cols, 1});
  uint64_t size = k;
  int depth = 1;
  while (size < need) {
    size *= static_cast<uint64_t>(k);
    ++depth;
  }
  tree.size_ = size;

  int digit_bits = 1;
  while ((1 << digit_bits) < k * k) ++digit_bits;
  LevelBits t, l;
  // Only k that are not powers of two, over dimensions near 2^32, need
  // paths longer than 64 bits.
  tree.num_cells_ =
      depth * digit_bits <= 64
          ? EmitLevels<uint64_t>(cells, size, k, depth, digit_bits, &t, &l)
          : EmitLevels<unsigned __int128>(cells, size, k, depth, digit_bits,
                                          &t, &l);
  tree.t_ = RankBitVector::FromWords(std::move(t.words), t.size);
  tree.l_ = RankBitVector::FromWords(std::move(l.words), l.size);
  return tree;
}

bool K2Tree::Contains(uint32_t row, uint32_t col) const {
  if (num_cells_ == 0 || row >= num_rows_ || col >= num_cols_) return false;
  uint64_t size = size_;
  uint64_t block = 0;
  uint64_t r = row, c = col;
  const uint64_t kk = static_cast<uint64_t>(k_) * k_;
  for (;;) {
    uint64_t sub = size / k_;
    uint64_t q = (r / sub) * k_ + (c / sub);
    uint64_t p = block + q;
    if (p >= t_.size()) {
      uint64_t lp = p - t_.size();
      return lp < l_.size() && l_.Get(lp);
    }
    if (!t_.Get(p)) return false;
    block = t_.Rank1(p + 1) * kk;
    r %= sub;
    c %= sub;
    size = sub;
  }
}

namespace {

// DFS along one row: visits the set cells of row `fixed` and collects
// their columns.
struct RowQuery {
  const RankBitVector* t;
  const RankBitVector* l;
  int k;
  uint32_t limit;  // exclusive bound on the collected column
  std::vector<uint32_t>* out;

  void Recurse(uint64_t block, uint64_t size, uint64_t fixed,
               uint64_t base) const {
    uint64_t sub = size / k;
    uint64_t fq = fixed / sub;
    const uint64_t kk = static_cast<uint64_t>(k) * k;
    for (int i = 0; i < k; ++i) {
      uint64_t q = fq * k + i;
      uint64_t p = block + q;
      uint64_t coord_base = base + static_cast<uint64_t>(i) * sub;
      if (p >= t->size()) {
        uint64_t lp = p - t->size();
        if (lp < l->size() && l->Get(lp) && coord_base < limit) {
          out->push_back(static_cast<uint32_t>(coord_base));
        }
        continue;
      }
      if (!t->Get(p)) continue;
      Recurse(t->Rank1(p + 1) * kk, sub, fixed % sub, coord_base);
    }
  }
};

}  // namespace

std::vector<uint32_t> K2Tree::RowNeighbors(uint32_t row) const {
  std::vector<uint32_t> out;
  if (num_cells_ == 0 || row >= num_rows_) return out;
  RowQuery q{&t_, &l_, k_, num_cols_, &out};
  q.Recurse(0, size_, row, 0);
  return out;
}

namespace {

// Calls visit(p) for each set bit p of `words` in [begin, end), in
// ascending order.
template <typename Visit>
void ForEachSetBit(const std::vector<uint64_t>& words, uint64_t begin,
                   uint64_t end, Visit&& visit) {
  if (begin >= end) return;
  uint64_t w = begin / 64;
  const uint64_t last = (end - 1) / 64;
  const uint64_t tail = ~0ull >> (63 - (end - 1) % 64);
  uint64_t word = words[w] & (~0ull << (begin % 64));
  for (;;) {
    if (w == last) word &= tail;
    for (; word != 0; word &= word - 1) {
      visit(w * 64 + static_cast<uint64_t>(__builtin_ctzll(word)));
    }
    if (w == last) return;
    word = words[++w];
  }
}

// Reads `n` (1..32) bits that the walk checked are in the input.
uint64_t TakeBits(BitReader* reader, int n) {
  uint64_t v = 0;
  const Status read = reader->ReadBits(n, &v);
  assert(read.ok());
  (void)read;
  return v;
}

// One level of the k = 2 walk: parent j's children are the next nibble
// of the stream, child q (the nibble's bit 3 - q) at row offset
// (q >> 1) * sub and column offset (q & 1) * sub. Every candidate
// origin is written, each at the count of set bits before it, so no
// branch depends on the data and only the one add past the block
// carries from parent to parent; `out` needs room for the level's set
// bits plus three. Returns the number of keys written.
size_t EmitLevelK2(BitReader* reader, const uint64_t* parents,
                   size_t num_parents, uint64_t sub, uint64_t* out) {
  const uint64_t down = sub << 32;
  uint64_t* const first = out;
  auto emit = [&](uint64_t nibble, uint64_t key) {
    const uint64_t b0 = nibble >> 3;
    const uint64_t at2 = b0 + ((nibble >> 2) & 1);
    const uint64_t at3 = at2 + ((nibble >> 1) & 1);
    out[0] = key;
    out[b0] = key + sub;
    out[at2] = key + down;
    out[at3] = key + down + sub;
    out += at3 + (nibble & 1);
  };
  // Eight parents per 32-bit read, the first in the top nibble.
  size_t j = 0;
  for (; j + 8 <= num_parents; j += 8) {
    uint64_t bits = TakeBits(reader, 32) << 32;
    for (size_t i = 0; i < 8; ++i, bits <<= 4) emit(bits >> 60, parents[j + i]);
  }
  if (j < num_parents) {
    const int rest = static_cast<int>(num_parents - j);
    uint64_t bits = TakeBits(reader, 4 * rest) << (64 - 4 * rest);
    for (; j < num_parents; ++j, bits <<= 4) emit(bits >> 60, parents[j]);
  }
  return static_cast<size_t>(out - first);
}

// One level of the walk for k > 2: each parent's k^2-bit block in
// reads of up to 32 bits, one key per set bit. `out` needs room for
// the level's set bits. Returns the number of keys written.
size_t EmitLevel(BitReader* reader, uint64_t k, const uint64_t* parents,
                 size_t num_parents, uint64_t sub, uint64_t* out) {
  const uint64_t kk = k * k;
  uint64_t* const first = out;
  for (size_t j = 0; j < num_parents; ++j) {
    const uint64_t parent_row = parents[j] >> 32;
    const uint64_t parent_col = parents[j] & 0xFFFFFFFFu;
    for (uint64_t q0 = 0; q0 < kk; q0 += 32) {
      const int width = static_cast<int>(std::min<uint64_t>(32, kk - q0));
      // The block's bits MSB-aligned: bit 63 is child q0.
      uint64_t bits = TakeBits(reader, width) << (64 - width);
      while (bits != 0) {
        const int lead = __builtin_clzll(bits);
        bits &= ~(uint64_t{1} << (63 - lead));
        const uint64_t q = q0 + static_cast<uint64_t>(lead);
        const uint64_t row = parent_row + (q / k) * sub;
        const uint64_t col = parent_col + (q % k) * sub;
        *out++ = row << 32 | col;
      }
    }
  }
  return static_cast<size_t>(out - first);
}

// Whether a level whose children are `sub` wide can put a child into
// the padding along a dimension of `bound` cells. Every parent lies
// inside (the level above checked it), and a parent's origin is a
// multiple of its width k * sub, so only the parent in the last band
// can have a child past the bound, and only when the bound cuts that
// band after its first child: 0 < bound mod (k * sub) <= (k - 1) * sub.
// A bound of 0 leaves even the root outside.
bool LevelCanLeave(uint64_t bound, uint64_t k, uint64_t sub) {
  const uint64_t cut = bound % (k * sub);
  return bound == 0 || (cut != 0 && cut <= (k - 1) * sub);
}

// Whether every packed row << 32 | col origin in keys[0, n) lies inside
// the num_rows x num_cols matrix. A coordinate plus 2^32 minus its
// bound carries into bit 32 exactly when it reaches the bound, so the
// loop has no compare and vectorizes. On the read corpus's 16 terminal
// trees it added a fifth to the walk when it ran on every level, and a
// per-parent check inside the emit step added a third; the walk runs it
// only on the levels that LevelCanLeave, about half of them.
bool AllInside(const uint64_t* keys, size_t n, uint64_t num_rows,
               uint64_t num_cols) {
  const uint64_t row_bias = (uint64_t{1} << 32) - num_rows;
  const uint64_t col_bias = (uint64_t{1} << 32) - num_cols;
  uint64_t carries = 0;
  for (size_t i = 0; i < n; ++i) {
    carries |= ((keys[i] >> 32) + row_bias) |
               ((keys[i] & 0xFFFFFFFFu) + col_bias);
  }
  return (carries >> 32) == 0;
}

}  // namespace

Status K2Tree::CheckLevelBounds(bool leaf, uint64_t level_begin,
                                uint64_t level_bits, uint64_t t_bits,
                                uint64_t l_bits) {
  if (!leaf && level_bits > t_bits - level_begin) {
    return Status::Corruption("k2-tree level runs past the end of T");
  }
  if (leaf && level_begin != t_bits) {
    return Status::Corruption("k2-tree T is longer than its levels");
  }
  if (leaf && level_bits != l_bits) {
    return Status::Corruption("k2-tree L size disagrees with its parents");
  }
  return Status::OK();
}

std::vector<std::pair<uint32_t, uint32_t>> K2Tree::AllCells() const {
  BitWriter w;
  Serialize(&w);
  BitReader r(w.bytes());
  Cells cells;
  const Status walked = DecodeCells(&r, &cells);
  // Build and Deserialize only produce trees that CheckLayout accepts.
  assert(walked.ok());
  (void)walked;
  std::sort(cells.keys.begin(), cells.keys.end());
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(cells.keys.size());
  for (uint64_t key : cells.keys) {
    out.push_back({static_cast<uint32_t>(key >> 32),
                   static_cast<uint32_t>(key & 0xFFFFFFFFu)});
  }
  return out;
}

Status K2Tree::CheckLayout() const {
  if (t_.size() == 0 && l_.size() == 0) {
    return num_cells_ == 0
               ? Status::OK()
               : Status::Corruption("k2-tree cell count disagrees with L");
  }
  const uint64_t k = static_cast<uint64_t>(k_);
  const uint64_t kk = k * k;
  // Nodes whose square straddles the (num_rows, num_cols) boundary, by
  // index on their level, in level order. Only their children can lie
  // in the padding, so they are the only nodes visited.
  struct Node {
    uint64_t index, row, col;
  };
  std::vector<Node> straddling;
  std::vector<Node> next;
  straddling.reserve(32);
  next.reserve(32);
  if (num_rows_ < size_ || num_cols_ < size_) straddling.push_back({0, 0, 0});
  uint64_t level_begin = 0;  // in T; the last level is all of L
  uint64_t level_bits = kk;
  uint64_t ones_before = 0;  // set bits of T before level_begin
  for (uint64_t sub = size_ / k;; sub /= k) {
    const bool leaf = sub == 1;
    GREPAIR_RETURN_IF_ERROR(CheckLevelBounds(leaf, level_begin, level_bits,
                                             t_.size(), l_.size()));
    const RankBitVector& bits = leaf ? l_ : t_;
    const uint64_t begin = leaf ? 0 : level_begin;
    if (leaf) ones_before = 0;
    bool padding = false;
    next.clear();
    for (const Node& node : straddling) {
      const uint64_t block = begin + node.index * kk;
      ForEachSetBit(bits.words(), block, block + kk, [&](uint64_t p) {
        const uint64_t q = p - block;
        const uint64_t row = node.row + (q / k) * sub;
        const uint64_t col = node.col + (q % k) * sub;
        if (row >= num_rows_ || col >= num_cols_) {
          padding = true;
        } else if (row + sub > num_rows_ || col + sub > num_cols_) {
          next.push_back({bits.Rank1(p) - ones_before, row, col});
        }
      });
    }
    if (padding) {
      return Status::Corruption("k2-tree sets a bit in its padding");
    }
    const uint64_t ones = bits.Rank1(begin + level_bits) - ones_before;
    if (leaf) {
      return ones == num_cells_
                 ? Status::OK()
                 : Status::Corruption("k2-tree cell count disagrees with L");
    }
    level_begin += level_bits;
    level_bits = ones * kk;
    ones_before += ones;
    straddling.swap(next);
  }
}

Status K2Tree::DecodeCells(BitReader* reader, Cells* cells,
                           const Degrees& degrees) {
  K2Tree tree;
  uint64_t t_bits = 0, l_bits = 0;
  GREPAIR_RETURN_IF_ERROR(ReadHeader(reader, &tree, &t_bits, &l_bits));
  cells->num_rows = tree.num_rows_;
  cells->num_cols = tree.num_cols_;
  if (tree.num_rows_ > degrees.limit || tree.num_cols_ > degrees.limit) {
    return Status::Corruption(
        "k2-tree has more rows or columns than its graph has nodes");
  }
  if (t_bits == 0 && l_bits == 0) {
    return tree.num_cells_ == 0
               ? Status::OK()
               : Status::Corruption("k2-tree cell count disagrees with L");
  }
  const uint64_t k = static_cast<uint64_t>(tree.k_);
  const uint64_t kk = k * k;
  // Packed row << 32 | col origin of every node on the current level,
  // in level order: the root, then one entry per set bit above. No
  // level of a valid tree holds more nodes than it has cells, so one
  // allocation each, bounded by L's bits, covers every level; they are
  // freed with the walk, so a grammar's large terminal tree does not
  // keep them through the sections after it.
  KeyVector levels[2];
  KeyVector* parents = &levels[0];
  KeyVector* children = &levels[1];
  const size_t widest =
      static_cast<size_t>(std::min(tree.num_cells_, l_bits)) + 3;
  parents->reserve(widest);
  children->reserve(widest);
  parents->assign(1, 0);
  const size_t first_key = cells->keys.size();
  uint64_t level_begin = 0;  // in T; the last level is all of L
  for (uint64_t sub = tree.size_ / k;; sub /= k) {
    const bool leaf = sub == 1;
    const uint64_t level_bits = parents->size() * kk;
    GREPAIR_RETURN_IF_ERROR(
        CheckLevelBounds(leaf, level_begin, level_bits, t_bits, l_bits));
    // Room for the level's set bits, counted in place first, and the
    // three candidates the k = 2 emit may write past its last key; not
    // zero-filled. Sized by what is set rather than by the level's
    // width, the buffers are four times smaller on a sparse tree.
    KeyVector* out = leaf ? &cells->keys : children;
    const size_t first = leaf ? first_key : 0;
    if (!leaf) out->clear();  // so that growing copies nothing
    out->resize(first + reader->CountOnes(level_bits) + 3);
    uint64_t* level = out->data() + first;
    const size_t written =
        k == 2 ? EmitLevelK2(reader, parents->data(), parents->size(), sub,
                             level)
               : EmitLevel(reader, k, parents->data(), parents->size(), sub,
                           level);
    out->resize(first + written);
    // A set bit lies in the padding exactly when its origin does.
    if ((LevelCanLeave(tree.num_rows_, k, sub) ||
         LevelCanLeave(tree.num_cols_, k, sub)) &&
        !AllInside(level, written, tree.num_rows_, tree.num_cols_)) {
      return Status::Corruption("k2-tree sets a bit in its padding");
    }
    if (leaf) {
      if (written != tree.num_cells_) {
        return Status::Corruption("k2-tree cell count disagrees with L");
      }
      if (degrees.rows != nullptr) {
        for (size_t i = first; i < first + written; ++i) {
          const uint64_t key = cells->keys[i];
          ++degrees.rows[key >> 32];
          ++degrees.cols[key & 0xFFFFFFFFu];
        }
      }
      return Status::OK();
    }
    level_begin += level_bits;
    std::swap(parents, children);
  }
}

void K2Tree::Serialize(BitWriter* writer) const {
  EliasDeltaEncode(static_cast<uint64_t>(k_), writer);
  EliasDeltaEncode(num_rows_ + 1, writer);
  EliasDeltaEncode(num_cols_ + 1, writer);
  EliasDeltaEncode(num_cells_ + 1, writer);
  EliasDeltaEncode(t_.size() + 1, writer);
  EliasDeltaEncode(l_.size() + 1, writer);
  for (size_t i = 0; i < t_.size(); ++i) writer->PutBit(t_.Get(i));
  for (size_t i = 0; i < l_.size(); ++i) writer->PutBit(l_.Get(i));
}

Result<K2Tree> K2Tree::Deserialize(BitReader* reader) {
  K2Tree tree;
  uint64_t t_bits = 0, l_bits = 0;
  GREPAIR_RETURN_IF_ERROR(ReadHeader(reader, &tree, &t_bits, &l_bits));
  // Bitmaps load in 56-bit chunks, one windowed ReadBits and one
  // PushWord each. In scalar mode ReadBits goes bit by bit, so the
  // differential tests (and the decode gate's scalar baseline) exercise
  // the whole bit-at-a-time path, not just the Elias codes.
  auto read_bitmap = [&](RankBitVector* bv, uint64_t nbits) -> Status {
    // ReadHeader checked that the input holds the bits.
    bv->Reserve(nbits);
    for (uint64_t i = 0; i < nbits; i += 56) {
      const int chunk = static_cast<int>(std::min<uint64_t>(56, nbits - i));
      uint64_t w = 0;
      GREPAIR_RETURN_IF_ERROR(reader->ReadBits(chunk, &w));
      // ReadBits returns the bits right-aligned; PushWord wants the
      // first-read bit at position 63.
      bv->PushWord(w << (64 - chunk), static_cast<size_t>(chunk));
    }
    return Status::OK();
  };
  GREPAIR_RETURN_IF_ERROR(read_bitmap(&tree.t_, t_bits));
  GREPAIR_RETURN_IF_ERROR(read_bitmap(&tree.l_, l_bits));
  tree.t_.Finalize();
  tree.l_.Finalize();
  GREPAIR_RETURN_IF_ERROR(tree.CheckLayout());
  return tree;
}

Status K2Tree::ReadHeader(BitReader* reader, K2Tree* tree, uint64_t* t_bits,
                          uint64_t* l_bits) {
  uint64_t k = 0, rows = 0, cols = 0, cells = 0, t_code = 0, l_code = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &k));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &rows));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &cols));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &cells));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &t_code));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &l_code));
  if (k < 2 || k > 16 || rows == 0 || cols == 0 || cells == 0 ||
      t_code == 0 || l_code == 0) {
    return Status::Corruption("bad k2-tree header");
  }
  if (rows - 1 > 0xFFFFFFFFull || cols - 1 > 0xFFFFFFFFull) {
    return Status::Corruption("k2-tree dimensions out of range");
  }
  tree->k_ = static_cast<int>(k);
  tree->num_rows_ = static_cast<uint32_t>(rows - 1);
  tree->num_cols_ = static_cast<uint32_t>(cols - 1);
  tree->num_cells_ = cells - 1;
  const uint64_t need =
      std::max<uint64_t>({tree->num_rows_, tree->num_cols_, 1});
  uint64_t size = k;
  while (size < need) size *= k;
  tree->size_ = size;
  *t_bits = t_code - 1;
  *l_bits = l_code - 1;
  // T and L size what reads them (DecodeCells' level buffers,
  // Deserialize's bitmaps), so the input must hold them first.
  if (*t_bits > reader->BitsAvailable() ||
      *l_bits > reader->BitsAvailable() - *t_bits) {
    return Status::Corruption("k2-tree levels run past the end of the input");
  }
  return Status::OK();
}

}  // namespace grepair
