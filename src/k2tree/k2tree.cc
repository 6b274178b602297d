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

// Number of set bits of `words` in [begin, end).
uint64_t CountSetBits(const std::vector<uint64_t>& words, uint64_t begin,
                      uint64_t end) {
  if (begin >= end) return 0;
  uint64_t w = begin / 64;
  const uint64_t last = (end - 1) / 64;
  uint64_t word = words[w] & (~0ull << (begin % 64));
  uint64_t count = 0;
  for (; w < last; word = words[++w]) count += __builtin_popcountll(word);
  return count + __builtin_popcountll(word & (~0ull >> (63 - (end - 1) % 64)));
}

// One level of the k = 2 walk. Parent j's children are the aligned
// nibble at bit begin + 4j, child q at row offset (q >> 1) * sub and
// column offset (q & 1) * sub. Every candidate origin is written and
// the output advances by the child's bit, so no branch depends on the
// data; `out` needs room for the level's set bits plus one.
void EmitLevelK2(const uint64_t* words, uint64_t begin,
                 const std::vector<uint64_t>& parents, uint64_t sub,
                 uint64_t* out) {
  const uint64_t down = sub << 32;
  for (size_t j = 0; j < parents.size(); ++j) {
    const uint64_t p = begin + 4 * j;
    const uint64_t nibble = (words[p / 64] >> (p % 64)) & 0xF;
    const uint64_t key = parents[j];
    *out = key;
    out += nibble & 1;
    *out = key + sub;
    out += (nibble >> 1) & 1;
    *out = key + down;
    out += (nibble >> 2) & 1;
    *out = key + down + sub;
    out += nibble >> 3;
  }
}

// Whether every packed row << 32 | col origin in keys[0, n) lies inside
// the num_rows x num_cols matrix; branch-free.
bool AllInside(const uint64_t* keys, size_t n, uint64_t num_rows,
               uint64_t num_cols) {
  uint64_t outside = 0;
  for (size_t i = 0; i < n; ++i) {
    outside |= static_cast<uint64_t>(keys[i] >> 32 >= num_rows) |
               static_cast<uint64_t>((keys[i] & 0xFFFFFFFFu) >= num_cols);
  }
  return outside == 0;
}

// Sorts level-order keys into row-major order. Level order lists the
// cells in Z-order (by their quadrant path from the root), and within
// one row that order is ascending by column, so a stable sort on the
// row alone finishes the job: an LSD radix sort over the row's bytes,
// one O(n) pass per byte of the largest row.
void SortLevelOrderKeys(uint32_t num_rows, std::vector<uint64_t>* keys) {
  if (keys->size() < 64) {
    std::sort(keys->begin(), keys->end());
    return;
  }
  std::vector<uint64_t> sorted(keys->size());
  for (uint64_t shift = 32; shift < 64 && ((num_rows - 1ull) >> (shift - 32));
       shift += 8) {
    size_t next[257] = {};
    for (uint64_t key : *keys) ++next[((key >> shift) & 0xFF) + 1];
    for (size_t b = 1; b < 257; ++b) next[b] += next[b - 1];
    for (uint64_t key : *keys) sorted[next[(key >> shift) & 0xFF]++] = key;
    keys->swap(sorted);
  }
}

}  // namespace

Status K2Tree::CheckLevelBounds(bool leaf, uint64_t level_begin,
                                uint64_t level_bits) const {
  if (!leaf && level_bits > t_.size() - level_begin) {
    return Status::Corruption("k2-tree level runs past the end of T");
  }
  if (leaf && level_begin != t_.size()) {
    return Status::Corruption("k2-tree T is longer than its levels");
  }
  if (leaf && level_bits != l_.size()) {
    return Status::Corruption("k2-tree L size disagrees with its parents");
  }
  return Status::OK();
}

Status K2Tree::AppendKeys(std::vector<uint64_t>* keys) const {
  if (t_.size() == 0 && l_.size() == 0) {
    return num_cells_ == 0
               ? Status::OK()
               : Status::Corruption("k2-tree cell count disagrees with L");
  }
  const uint64_t k = static_cast<uint64_t>(k_);
  const uint64_t kk = k * k;
  // Packed row << 32 | col origin of every node on the current level,
  // in level order: the root, then one entry per set bit above. In a
  // valid tree the level above L, with |L| / k^2 nodes, is the widest;
  // unlike the header's cell count, that bound is backed by input read.
  // The k = 2 walk writes one slot past a level's keys, hence the + 2
  // and + 1 below.
  std::vector<uint64_t> parents;
  std::vector<uint64_t> children;
  parents.reserve(l_.size() / kk + 2);
  children.reserve(l_.size() / kk + 2);
  parents.push_back(0);
  const size_t first_key = keys->size();
  keys->reserve(first_key + std::min<uint64_t>(num_cells_, l_.size()) + 1);
  uint64_t level_begin = 0;  // in T; the last level is all of L
  for (uint64_t sub = size_ / k;; sub /= k) {
    const bool leaf = sub == 1;
    const uint64_t level_bits = parents.size() * kk;
    GREPAIR_RETURN_IF_ERROR(CheckLevelBounds(leaf, level_begin, level_bits));
    const uint64_t begin = leaf ? 0 : level_begin;
    const std::vector<uint64_t>& words = (leaf ? l_ : t_).words();
    std::vector<uint64_t>* out = leaf ? keys : &children;
    children.clear();
    bool in_bounds = true;
    if (k == 2) {
      // A set bit lies in the padding exactly when the origin written
      // for it does, so a second branch-free pass over the level's
      // origins checks what the cursor walk below checks per bit. A
      // parent whose own origin is outside has every child outside.
      const uint64_t ones = CountSetBits(words, begin, begin + level_bits);
      const size_t first = out->size();
      out->resize(first + ones + 1);
      EmitLevelK2(words.data(), begin, parents, sub, out->data() + first);
      out->pop_back();
      in_bounds = AllInside(out->data() + first, ones, num_rows_, num_cols_);
    } else {
      uint64_t row_off[256];
      uint64_t col_off[256];
      for (uint64_t q = 0; q < kk; ++q) {
        row_off[q] = (q / k) * sub;
        col_off[q] = (q % k) * sub;
      }
      // Block j of this level holds the children of parents[j]; set
      // bits arrive in ascending order, so the owning block only moves
      // forward and no rank is needed to find it.
      const uint64_t* parent = parents.data();
      uint64_t block_end = begin + kk;
      ForEachSetBit(words, begin, begin + level_bits, [&](uint64_t p) {
        while (p >= block_end) {
          ++parent;
          block_end += kk;
        }
        const uint64_t q = p + kk - block_end;
        const uint64_t row = (*parent >> 32) + row_off[q];
        const uint64_t col = (*parent & 0xFFFFFFFFu) + col_off[q];
        in_bounds &= row < num_rows_ && col < num_cols_;
        out->push_back(row << 32 | col);
      });
    }
    if (!in_bounds) {
      return Status::Corruption("k2-tree sets a bit in its padding");
    }
    if (leaf) {
      if (keys->size() - first_key != num_cells_) {
        return Status::Corruption("k2-tree cell count disagrees with L");
      }
      return Status::OK();
    }
    level_begin += level_bits;
    parents.swap(children);
  }
}

std::vector<std::pair<uint32_t, uint32_t>> K2Tree::AllCells() const {
  std::vector<uint64_t> keys;
  const Status walked = AppendKeys(&keys);
  // Build and Deserialize only produce trees that CheckLayout accepts.
  assert(walked.ok());
  (void)walked;
  SortLevelOrderKeys(num_rows_, &keys);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(keys.size());
  for (uint64_t key : keys) {
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
    GREPAIR_RETURN_IF_ERROR(CheckLevelBounds(leaf, level_begin, level_bits));
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

Result<K2Tree::Cells> K2Tree::DecodeCells(BitReader* reader) {
  auto read = ReadUnranked(reader);
  if (!read.ok()) return read.status();
  const K2Tree& tree = read.value();
  Cells cells;
  cells.num_rows = tree.num_rows_;
  cells.num_cols = tree.num_cols_;
  GREPAIR_RETURN_IF_ERROR(tree.AppendKeys(&cells.keys));
  SortLevelOrderKeys(tree.num_rows_, &cells.keys);
  return cells;
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
  auto read = ReadUnranked(reader);
  if (!read.ok()) return read.status();
  K2Tree tree = std::move(read).ValueOrDie();
  tree.t_.Finalize();
  tree.l_.Finalize();
  GREPAIR_RETURN_IF_ERROR(tree.CheckLayout());
  return tree;
}

Result<K2Tree> K2Tree::ReadUnranked(BitReader* reader) {
  uint64_t k = 0, rows = 0, cols = 0, cells = 0, t_bits = 0, l_bits = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &k));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &rows));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &cols));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &cells));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &t_bits));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(reader, &l_bits));
  if (k < 2 || k > 16 || rows == 0 || cols == 0 || cells == 0 ||
      t_bits == 0 || l_bits == 0) {
    return Status::Corruption("bad k2-tree header");
  }
  if (rows - 1 > 0xFFFFFFFFull || cols - 1 > 0xFFFFFFFFull) {
    return Status::Corruption("k2-tree dimensions out of range");
  }
  K2Tree tree;
  tree.k_ = static_cast<int>(k);
  tree.num_rows_ = static_cast<uint32_t>(rows - 1);
  tree.num_cols_ = static_cast<uint32_t>(cols - 1);
  tree.num_cells_ = cells - 1;
  uint64_t need =
      std::max<uint64_t>({tree.num_rows_, tree.num_cols_, 1});
  uint64_t size = k;
  while (size < need) size *= k;
  tree.size_ = size;
  // Bitmaps load in 64-bit chunks: one bounds-checked ReadBits + one
  // PushWord per word instead of a ReadBit/PushBack pair per bit. The
  // per-bit loop is retained behind the scalar-oracle switch so the
  // differential tests (and the decode gate's scalar baseline) exercise
  // the whole bit-at-a-time path, not just the Elias codes.
  auto read_bitmap = [&](RankBitVector* bv, uint64_t nbits) -> Status {
    if (EliasDecodeScalarForTest()) {
      bool bit = false;
      for (uint64_t i = 0; i < nbits; ++i) {
        GREPAIR_RETURN_IF_ERROR(reader->ReadBit(&bit));
        bv->PushBack(bit);
      }
      return Status::OK();
    }
    // Sized from the header only as far as the input can back it.
    bv->Reserve(std::min<uint64_t>(nbits, reader->BitsAvailable()));
    uint64_t i = 0;
    uint64_t w = 0;
    for (; i + 64 <= nbits; i += 64) {
      GREPAIR_RETURN_IF_ERROR(reader->ReadBits(64, &w));
      bv->PushWord(w, 64);
    }
    const int rem = static_cast<int>(nbits - i);
    if (rem > 0) {
      GREPAIR_RETURN_IF_ERROR(reader->ReadBits(rem, &w));
      // ReadBits returns the bits right-aligned; PushWord wants the
      // first-read bit at position 63.
      bv->PushWord(w << (64 - rem), static_cast<size_t>(rem));
    }
    return Status::OK();
  };
  GREPAIR_RETURN_IF_ERROR(read_bitmap(&tree.t_, t_bits - 1));
  GREPAIR_RETURN_IF_ERROR(read_bitmap(&tree.l_, l_bits - 1));
  return tree;
}

}  // namespace grepair
