// k^2-tree tests: membership/neighbor queries against brute force over
// random matrices (parameterized over k, shape and density), both
// enumeration entry points (AllCells and DecodeCells), edge cases,
// serialization round trips, malformed layouts that must fail closed,
// and a mutation battery over the shared fuzz invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzz_checks.h"
#include "src/k2tree/bitvector.h"
#include "src/k2tree/k2tree.h"
#include "src/util/elias.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

TEST(RankBitVectorTest, RankMatchesBruteForce) {
  Rng rng(3);
  RankBitVector bv;
  std::vector<bool> bits;
  for (int i = 0; i < 5000; ++i) {
    bool b = rng.Bernoulli(0.3);
    bits.push_back(b);
    bv.PushBack(b);
  }
  bv.Finalize();
  size_t ones = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(bv.Rank1(i), ones) << "at " << i;
    if (bits[i]) ++ones;
    ASSERT_EQ(bv.Get(i), bits[i]);
  }
  EXPECT_EQ(bv.Rank1(bits.size()), ones);
  EXPECT_EQ(bv.num_ones(), ones);
}

TEST(RankBitVectorTest, FromWordsRoundTrip) {
  RankBitVector bv;
  for (int i = 0; i < 130; ++i) bv.PushBack(i % 3 == 0);
  bv.Finalize();
  RankBitVector copy = RankBitVector::FromWords(bv.words(), bv.size());
  EXPECT_EQ(copy.size(), bv.size());
  for (size_t i = 0; i < bv.size(); ++i) EXPECT_EQ(copy.Get(i), bv.Get(i));
  EXPECT_EQ(copy.Rank1(100), bv.Rank1(100));
}

TEST(RankBitVectorTest, PushWordMatchesPushBack) {
  // Every alignment and length, including the partial words that the
  // deserializer's last chunk produces.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    RankBitVector by_word, by_bit;
    const int lead = static_cast<int>(rng.UniformBounded(130));
    for (int i = 0; i < lead; ++i) {
      const bool b = rng.Bernoulli(0.5);
      by_word.PushBack(b);
      by_bit.PushBack(b);
    }
    for (int chunk = 0; chunk < 3; ++chunk) {
      const size_t nbits = rng.UniformBounded(65);
      const uint64_t word = rng.Next();
      // Only the top nbits are meaningful; the rest must be ignored.
      by_word.PushWord(word, nbits);
      for (size_t j = 0; j < nbits; ++j) {
        by_bit.PushBack((word >> (63 - j)) & 1);
      }
    }
    ASSERT_EQ(by_word.size(), by_bit.size());
    ASSERT_EQ(by_word.words(), by_bit.words()) << "trial " << trial;
  }
}

// Packs a cell the way K2Tree::Cells keys do.
uint64_t Key(const std::pair<uint32_t, uint32_t>& cell) {
  return static_cast<uint64_t>(cell.first) << 32 | cell.second;
}

// DecodeCells' order for a tree with arity k over `rows` x `cols`: the
// distinct cells sorted by their quadrant path from the root (Z-order),
// packed as keys. Small trees only: the path is a base-k^2 number.
std::vector<uint64_t> LevelOrderKeys(
    std::vector<std::pair<uint32_t, uint32_t>> cells, uint32_t rows,
    uint32_t cols, int k) {
  uint64_t size = k;
  while (size < std::max<uint64_t>({rows, cols, 1})) size *= k;
  auto path = [&](const std::pair<uint32_t, uint32_t>& c) {
    uint64_t key = 0;
    for (uint64_t sub = size / k; sub > 0; sub /= k) {
      key = key * k * k + (c.first / sub % k) * k + c.second / sub % k;
    }
    return key;
  };
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  std::stable_sort(cells.begin(), cells.end(),
                   [&](const auto& a, const auto& b) {
                     return path(a) < path(b);
                   });
  std::vector<uint64_t> keys;
  for (const auto& c : cells) keys.push_back(Key(c));
  return keys;
}

struct K2Param {
  int k;
  uint32_t rows, cols;
  double density;
};

class K2TreeRandom : public ::testing::TestWithParam<K2Param> {};

TEST_P(K2TreeRandom, MatchesBruteForce) {
  const K2Param p = GetParam();
  Rng rng(static_cast<uint64_t>(p.k) * 1000 + p.rows + p.cols);
  std::set<std::pair<uint32_t, uint32_t>> truth;
  uint64_t target = static_cast<uint64_t>(p.rows * p.cols * p.density);
  while (truth.size() < target) {
    truth.insert({static_cast<uint32_t>(rng.UniformBounded(p.rows)),
                  static_cast<uint32_t>(rng.UniformBounded(p.cols))});
  }
  std::vector<std::pair<uint32_t, uint32_t>> cells(truth.begin(),
                                                   truth.end());
  K2Tree tree = K2Tree::Build(p.rows, p.cols, cells, p.k);
  EXPECT_EQ(tree.num_cells(), truth.size());

  // Membership on a sample plus all true cells.
  for (const auto& c : cells) {
    ASSERT_TRUE(tree.Contains(c.first, c.second));
  }
  for (int i = 0; i < 500; ++i) {
    uint32_t r = static_cast<uint32_t>(rng.UniformBounded(p.rows));
    uint32_t c = static_cast<uint32_t>(rng.UniformBounded(p.cols));
    ASSERT_EQ(tree.Contains(r, c), truth.count({r, c}) > 0)
        << r << "," << c;
  }

  // Row reporting.
  for (uint32_t r = 0; r < std::min<uint32_t>(p.rows, 40); ++r) {
    std::vector<uint32_t> expected;
    for (const auto& c : cells) {
      if (c.first == r) expected.push_back(c.second);
    }
    auto got = tree.RowNeighbors(r);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expected) << "row " << r;
  }

  // Full reconstruction.
  EXPECT_EQ(tree.AllCells(), cells);

  // Serialization round trip.
  BitWriter w;
  tree.Serialize(&w);
  auto bytes = w.TakeBytes();
  BitReader r(bytes);
  auto back = K2Tree::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().AllCells(), cells);
  EXPECT_EQ(back.value().num_rows(), p.rows);
  EXPECT_EQ(back.value().num_cols(), p.cols);
  EXPECT_EQ(back.value().StorageBits(), tree.StorageBits());

  // The enumerate-only entry point reads the same bytes to the same
  // cells, packed, in level order.
  BitReader cells_reader(bytes);
  K2Tree::Cells decoded;
  const Status walked = K2Tree::DecodeCells(&cells_reader, &decoded);
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  EXPECT_EQ(decoded.num_rows, p.rows);
  EXPECT_EQ(decoded.num_cols, p.cols);
  EXPECT_EQ(std::vector<uint64_t>(decoded.keys.begin(), decoded.keys.end()),
            LevelOrderKeys(cells, p.rows, p.cols, p.k));
  EXPECT_EQ(cells_reader.position(), r.position());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, K2TreeRandom,
    ::testing::Values(K2Param{2, 64, 64, 0.05}, K2Param{2, 100, 100, 0.02},
                      K2Param{2, 1000, 1000, 0.002},
                      K2Param{2, 37, 91, 0.05},  // rectangular
                      K2Param{3, 81, 81, 0.03}, K2Param{4, 256, 256, 0.01},
                      K2Param{2, 5, 5, 0.5},     // tiny and dense
                      K2Param{2, 1, 8, 0.5},     // single row
                      K2Param{3, 82, 82, 0.03},  // one past a power of k
                      K2Param{4, 257, 100, 0.01},
                      // Incidence shapes: nodes x hyperedges.
                      K2Param{2, 200, 37, 0.05}, K2Param{3, 100, 7, 0.3},
                      K2Param{4, 300, 45, 0.05}, K2Param{3, 10, 500, 0.1},
                      K2Param{4, 1, 20, 0.5}),
    [](const auto& suite_info) {
      return "k" + std::to_string(suite_info.param.k) + "_" +
             std::to_string(suite_info.param.rows) + "x" +
             std::to_string(suite_info.param.cols) + "_d" +
             std::to_string(static_cast<int>(suite_info.param.density * 1000));
    });

TEST(K2TreeTest, EmptyMatrix) {
  K2Tree tree = K2Tree::Build(10, 10, {});
  EXPECT_EQ(tree.num_cells(), 0u);
  EXPECT_FALSE(tree.Contains(3, 3));
  EXPECT_TRUE(tree.RowNeighbors(3).empty());
  EXPECT_TRUE(tree.AllCells().empty());
  BitWriter w;
  tree.Serialize(&w);
  auto bytes = w.TakeBytes();
  BitReader r(bytes);
  auto back = K2Tree::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_cells(), 0u);
}

TEST(K2TreeTest, SingleCell) {
  K2Tree tree = K2Tree::Build(1000, 1000, {{999, 0}});
  EXPECT_TRUE(tree.Contains(999, 0));
  EXPECT_FALSE(tree.Contains(0, 999));
  EXPECT_EQ(tree.RowNeighbors(999), std::vector<uint32_t>{0});
}

TEST(K2TreeTest, DuplicateCellsMerged) {
  K2Tree tree = K2Tree::Build(8, 8, {{1, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(tree.num_cells(), 1u);
}

TEST(K2TreeTest, FullMatrixDense) {
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  for (uint32_t r = 0; r < 8; ++r) {
    for (uint32_t c = 0; c < 8; ++c) cells.push_back({r, c});
  }
  K2Tree tree = K2Tree::Build(8, 8, cells);
  EXPECT_EQ(tree.num_cells(), 64u);
  EXPECT_EQ(tree.AllCells().size(), 64u);
  for (uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(tree.RowNeighbors(r).size(), 8u);
  }
}

TEST(K2TreeTest, SparseStarIsSmall) {
  // A star row: structure bits should be near-linear in cells, far
  // below the 4M-bit dense matrix.
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  for (uint32_t c = 0; c < 100; ++c) cells.push_back({0, c * 17 % 2048});
  K2Tree tree = K2Tree::Build(2048, 2048, cells);
  EXPECT_LT(tree.StorageBits(), 6000u);
}

// A k = 2 tree serialized from raw parts, laid out as Serialize does
// (header, then T, then L) but without Build's guarantees.
std::vector<uint8_t> RawTree(uint64_t rows, uint64_t cols, uint64_t cells,
                             const std::string& t, const std::string& l) {
  BitWriter w;
  EliasDeltaEncode(2, &w);
  EliasDeltaEncode(rows + 1, &w);
  EliasDeltaEncode(cols + 1, &w);
  EliasDeltaEncode(cells + 1, &w);
  EliasDeltaEncode(t.size() + 1, &w);
  EliasDeltaEncode(l.size() + 1, &w);
  for (char bit : t + l) w.PutBit(bit == '1');
  return w.TakeBytes();
}

// Both entry points must reject `bytes` with Corruption.
void ExpectCorrupt(const std::vector<uint8_t>& bytes,
                   const std::string& what) {
  BitReader ranked(bytes);
  auto tree = K2Tree::Deserialize(&ranked);
  ASSERT_FALSE(tree.ok()) << what;
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption) << what;
  BitReader unranked(bytes);
  K2Tree::Cells cells;
  const Status walked = K2Tree::DecodeCells(&unranked, &cells);
  ASSERT_FALSE(walked.ok()) << what;
  EXPECT_EQ(walked.ToString(), tree.status().ToString()) << what;
}

// The 8 x 8 tree holding (0,1) and (5,6): level 0 = 1001, level 1 =
// 1000 0100 (T), leaves 0100 0010 (L).
const char kT8[] = "1001" "10000100";
const char kL8[] = "01000010";

TEST(K2TreeLayoutTest, RawTreeMatchesBuild) {
  BitWriter w;
  K2Tree::Build(8, 8, {{0, 1}, {5, 6}}).Serialize(&w);
  EXPECT_EQ(RawTree(8, 8, 2, kT8, kL8), w.TakeBytes());
}

// Each malformed layout below deserialized with OK status before the
// layout check existed; the comment records what that returned.
TEST(K2TreeLayoutTest, UnreachedSetBitFails) {
  // L carries a third block that no set bit of T owns, holding a leaf
  // no parent reaches. Before: OK, num_cells 3, cells (0,1) (5,6).
  ExpectCorrupt(RawTree(8, 8, 3, kT8, std::string(kL8) + "0001"),
                "unreached set bit");
}

TEST(K2TreeLayoutTest, TLongerThanItsLevelsFails) {
  // One extra all-zero block at the end of T. Before: OK, cells (4,7)
  // (the extra block shifted every child lookup into the wrong leaves).
  ExpectCorrupt(RawTree(8, 8, 2, std::string(kT8) + "0000", kL8),
                "T one block longer");
}

TEST(K2TreeLayoutTest, LOneBlockShortFails) {
  // The second leaf block is missing. Before: OK, num_cells 1, cells
  // (0,1): the cell (5,6) vanished silently.
  ExpectCorrupt(RawTree(8, 8, 1, kT8, "0100"), "L one block short");
}

TEST(K2TreeLayoutTest, DepthMismatchFails) {
  // The 8 x 8 bits under a 16 x 16 header (depth 4, not 3). Before:
  // OK, cells (0,2) (10,12).
  ExpectCorrupt(RawTree(16, 16, 2, kT8, kL8), "depth mismatch");
}

TEST(K2TreeLayoutTest, ChildlessSetBitFails) {
  // A second set bit in level 1 without a leaf block of its own.
  // Before: OK, cells (0,1) (1,2).
  ExpectCorrupt(RawTree(8, 8, 2, "1001" "11000100", kL8), "childless bit");
}

TEST(K2TreeLayoutTest, PaddingCellFails) {
  // A 3 x 3 matrix padded to 4 x 4 with a leaf at (3,3). Before: OK,
  // num_cells 2, cells (0,1) (the padding cell silently dropped).
  ExpectCorrupt(RawTree(3, 3, 2, "1001", "01000001"), "padding cell");
}

TEST(K2TreeLayoutTest, ForgedCellCountFailsWithoutAllocating) {
  // A 12-byte 4 x 4 tree with two real cells whose header claims 2^40
  // cells. Before: Deserialize returned OK and AllCells aborted the
  // process with std::bad_alloc sizing its output from the header.
  const auto forged = RawTree(4, 4, 1ull << 40, "1001", "01000010");
  EXPECT_EQ(forged.size(), 12u);
  ExpectCorrupt(forged, "forged cell count");
  const auto honest = RawTree(4, 4, 2, "1001", "01000010");
  BitReader r(honest);
  auto tree = K2Tree::Deserialize(&r);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree.value().AllCells(),
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 1}, {3, 2}}));
}

TEST(K2TreeLayoutTest, DimensionsAboveUint32FailClosed) {
  // The 4 x 4 tree above under a header claiming 2^32 + 4 rows and
  // columns. Before: OK, a 4 x 4 tree (both counts wrapped to 4).
  const uint64_t wrapped = (1ull << 32) + 4;
  ExpectCorrupt(RawTree(wrapped, wrapped, 2, "1001", "01000010"),
                "wrapped dimensions");
}

TEST(K2TreeLayoutTest, ZeroDimensionHeaderFailsClosed) {
  // A tree holding only its origin cell, under headers giving 0
  // columns, 0 rows, or both. Every set bit is child 0 of its parent,
  // at the parent's own origin, and the root's origin (0,0) is already
  // outside the matrix, so the root's first bit lies in the padding. A
  // walk that took a parent's origin to be in bounds and checked only
  // the child offsets would accept the tree.
  const struct {
    uint64_t rows, cols;
    const char* t;
    const char* l;
  } headers[] = {{8, 0, "1000" "1000", "1000"},
                 {0, 8, "1000" "1000", "1000"},
                 {0, 0, "", "1000"}};
  for (const auto& h : headers) {
    const std::string what =
        std::to_string(h.rows) + " x " + std::to_string(h.cols);
    const auto bytes = RawTree(h.rows, h.cols, 1, h.t, h.l);
    ExpectCorrupt(bytes, what);
    BitReader r(bytes);
    K2Tree::Cells cells;
    const Status walked = K2Tree::DecodeCells(&r, &cells);
    ASSERT_FALSE(walked.ok()) << what;
    EXPECT_EQ(walked.message(), "k2-tree sets a bit in its padding") << what;
  }
}

// The k = 2 walk at shard scale: on 2,048 x 2,048 trees shaped like a
// read-corpus shard's start labels, one dense (7,400 cells) and twenty
// sparse (about 35 cells each), DecodeCells lists exactly the distinct
// input cells in level order, and AllCells lists them sorted.
TEST(K2TreeLayoutTest, ShardScaleDecodeCellsMatchesAllCells) {
  constexpr uint32_t kSize = 2048;
  Rng rng(0x5A4D);
  std::vector<uint32_t> counts = {7400};
  for (int i = 0; i < 20; ++i) {
    counts.push_back(25 + static_cast<uint32_t>(rng.UniformBounded(21)));
  }
  for (uint32_t count : counts) {
    std::vector<std::pair<uint32_t, uint32_t>> cells;
    for (uint32_t i = 0; i < count; ++i) {
      cells.push_back({static_cast<uint32_t>(rng.UniformBounded(kSize)),
                       static_cast<uint32_t>(rng.UniformBounded(kSize))});
    }
    BitWriter w;
    const K2Tree tree = K2Tree::Build(kSize, kSize, cells);
    tree.Serialize(&w);
    const std::vector<uint64_t> truth = LevelOrderKeys(cells, kSize, kSize, 2);
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    const auto bytes = w.TakeBytes();
    BitReader r(bytes);
    K2Tree::Cells decoded;
    const Status walked = K2Tree::DecodeCells(&r, &decoded);
    ASSERT_TRUE(walked.ok()) << walked.ToString();
    EXPECT_EQ(std::vector<uint64_t>(decoded.keys.begin(), decoded.keys.end()),
              truth)
        << count << " cells";
    EXPECT_EQ(tree.AllCells(), cells) << count << " cells";
  }
}

// Mutation battery over the fuzz target's invariants (CheckK2TreeParse):
// bit flips, truncations and byte noise on Build outputs for k = 2, 3, 4
// over square and incidence shapes.
TEST(K2TreeLayoutTest, MutatedTreesUpholdFuzzInvariants) {
  std::vector<std::vector<uint8_t>> seeds;
  Rng rng(0x2D7EE);
  for (int k : {2, 3, 4}) {
    for (auto [rows, cols] : {std::pair<uint32_t, uint32_t>{40, 40},
                              {33, 9}, {7, 60}}) {
      std::vector<std::pair<uint32_t, uint32_t>> cells;
      for (int i = 0; i < 30; ++i) {
        cells.push_back({static_cast<uint32_t>(rng.UniformBounded(rows)),
                         static_cast<uint32_t>(rng.UniformBounded(cols))});
      }
      BitWriter w;
      K2Tree::Build(rows, cols, cells, k).Serialize(&w);
      seeds.push_back(w.TakeBytes());
    }
  }
  auto check = [](const std::vector<uint8_t>& bytes) {
    const char* violated = fuzz::CheckK2TreeParse(bytes.data(), bytes.size());
    EXPECT_EQ(violated, nullptr) << violated;
  };
  for (const auto& seed : seeds) {
    check(seed);
    for (size_t bit = 0; bit < seed.size() * 8; ++bit) {
      auto flipped = seed;
      flipped[bit / 8] ^= static_cast<uint8_t>(0x80 >> (bit % 8));
      check(flipped);
    }
    for (size_t keep = 0; keep < seed.size(); ++keep) {
      check(std::vector<uint8_t>(seed.begin(), seed.begin() + keep));
    }
    for (int trial = 0; trial < 50; ++trial) {
      auto noisy = seed;
      for (int j = 0; j < 3; ++j) {
        noisy[rng.UniformBounded(noisy.size())] =
            static_cast<uint8_t>(rng.Next());
      }
      check(noisy);
    }
  }
}

// Reference builder for the differential test: the recursive
// construction Build used before it sorted quadrant paths. Buckets the
// cells of each submatrix into its k^2 quadrants and appends one bit
// per quadrant to the bits of its depth, recursing into the non-empty
// quadrants in order.
void ReferenceBuildRec(const std::vector<std::pair<uint32_t, uint32_t>>& cells,
                       uint64_t size, int k, size_t depth,
                       std::vector<std::vector<bool>>* level_bits) {
  const uint64_t sub = size / static_cast<uint64_t>(k);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> quads(
      static_cast<size_t>(k) * k);
  for (const auto& c : cells) {
    quads[(c.first / sub) * k + c.second / sub].push_back(
        {static_cast<uint32_t>(c.first % sub),
         static_cast<uint32_t>(c.second % sub)});
  }
  if (depth >= level_bits->size()) level_bits->resize(depth + 1);
  for (const auto& q : quads) (*level_bits)[depth].push_back(!q.empty());
  if (sub == 1) return;
  for (const auto& q : quads) {
    if (!q.empty()) ReferenceBuildRec(q, sub, k, depth + 1, level_bits);
  }
}

struct ReferenceTree {
  std::vector<bool> t, l;
  uint64_t num_cells = 0;
};

ReferenceTree ReferenceBuild(
    uint32_t rows, uint32_t cols,
    std::vector<std::pair<uint32_t, uint32_t>> cells, int k) {
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  ReferenceTree ref;
  ref.num_cells = cells.size();
  if (cells.empty()) return ref;
  uint64_t size = k;
  while (size < std::max<uint64_t>({rows, cols, 1})) size *= k;
  std::vector<std::vector<bool>> level_bits;
  ReferenceBuildRec(cells, size, k, 0, &level_bits);
  for (size_t d = 0; d + 1 < level_bits.size(); ++d) {
    ref.t.insert(ref.t.end(), level_bits[d].begin(), level_bits[d].end());
  }
  ref.l = level_bits.back();
  return ref;
}

std::vector<bool> Bits(const RankBitVector& bv) {
  std::vector<bool> bits(bv.size());
  for (size_t i = 0; i < bv.size(); ++i) bits[i] = bv.Get(i);
  return bits;
}

// Builds `cells` both ways; T, L and the serialized bytes must agree
// bit for bit (the header goes through the same encoder as Serialize).
void ExpectBuildMatchesReference(
    uint32_t rows, uint32_t cols,
    const std::vector<std::pair<uint32_t, uint32_t>>& cells, int k) {
  SCOPED_TRACE("k=" + std::to_string(k) + " " + std::to_string(rows) + "x" +
               std::to_string(cols) + " cells=" +
               std::to_string(cells.size()));
  const ReferenceTree ref = ReferenceBuild(rows, cols, cells, k);
  const K2Tree tree = K2Tree::Build(rows, cols, cells, k);
  EXPECT_EQ(tree.num_cells(), ref.num_cells);
  EXPECT_EQ(Bits(tree.t_bits()), ref.t);
  EXPECT_EQ(Bits(tree.l_bits()), ref.l);
  BitWriter got;
  tree.Serialize(&got);
  BitWriter want;
  EliasDeltaEncode(static_cast<uint64_t>(k), &want);
  EliasDeltaEncode(rows + 1ull, &want);
  EliasDeltaEncode(cols + 1ull, &want);
  EliasDeltaEncode(ref.num_cells + 1, &want);
  EliasDeltaEncode(ref.t.size() + 1, &want);
  EliasDeltaEncode(ref.l.size() + 1, &want);
  for (bool b : ref.t) want.PutBit(b);
  for (bool b : ref.l) want.PutBit(b);
  EXPECT_EQ(got.bit_size(), want.bit_size());
  EXPECT_EQ(got.TakeBytes(), want.TakeBytes());
}

TEST(K2TreeBuildTest, MatchesRecursiveReferenceOnRandomCells) {
  Rng rng(2048);
  for (int trial = 0; trial < 300; ++trial) {
    const int k = 2 + trial % 3;
    // Mostly small, often non-square shapes, some one past a power of k.
    uint32_t rows = 1 + static_cast<uint32_t>(rng.UniformBounded(300));
    uint32_t cols = trial % 4 == 0
                        ? rows
                        : 1 + static_cast<uint32_t>(rng.UniformBounded(300));
    if (trial % 7 == 0) rows = static_cast<uint32_t>(k * k * k + 1);
    const uint64_t area = static_cast<uint64_t>(rows) * cols;
    const uint64_t n = rng.UniformBounded(std::min<uint64_t>(area, 400) + 1);
    std::vector<std::pair<uint32_t, uint32_t>> cells;
    for (uint64_t i = 0; i < n; ++i) {
      cells.push_back({static_cast<uint32_t>(rng.UniformBounded(rows)),
                       static_cast<uint32_t>(rng.UniformBounded(cols))});
    }
    // Duplicates must merge; Build takes the cells in any order.
    if (!cells.empty() && trial % 3 == 0) cells.push_back(cells.front());
    ExpectBuildMatchesReference(rows, cols, cells, k);
    if (HasFailure()) return;
  }
}

TEST(K2TreeBuildTest, MatchesRecursiveReferenceOnEdgeCases) {
  for (int k : {2, 3, 4}) {
    ExpectBuildMatchesReference(10, 10, {}, k);       // empty
    ExpectBuildMatchesReference(1, 1, {{0, 0}}, k);   // one cell, one level
    ExpectBuildMatchesReference(1000, 7, {{999, 6}}, k);
    ExpectBuildMatchesReference(7, 1000, {{0, 999}}, k);
    // The last row and column before the padding, on every shape from
    // a power of k to one past it.
    for (uint32_t n : {static_cast<uint32_t>(k * k),
                       static_cast<uint32_t>(k * k + 1),
                       static_cast<uint32_t>(k * k * k - 1)}) {
      std::vector<std::pair<uint32_t, uint32_t>> border;
      for (uint32_t i = 0; i < n; ++i) {
        border.push_back({n - 1, i});
        border.push_back({i, n - 1});
      }
      ExpectBuildMatchesReference(n, n, border, k);
      ExpectBuildMatchesReference(n, n + 1, border, k);
    }
    // A full matrix: every node has all k^2 children.
    std::vector<std::pair<uint32_t, uint32_t>> full;
    for (uint32_t r = 0; r < 9; ++r) {
      for (uint32_t c = 0; c < 9; ++c) full.push_back({c, r});
    }
    ExpectBuildMatchesReference(9, 9, full, k);
  }
}

TEST(K2TreeBuildTest, MatchesRecursiveReferenceOnHugeDimensions) {
  // Near-2^32 dimensions: for k = 3 the quadrant paths outgrow 64 bits.
  const uint32_t big = 0xFFFFFFF0u;
  for (int k : {2, 3, 4, 5, 16}) {
    ExpectBuildMatchesReference(
        big, big, {{0, 0}, {big - 1, big - 1}, {123456789, 3}, {7, big - 2}},
        k);
    ExpectBuildMatchesReference(big, 3, {{big - 1, 2}, {1, 1}}, k);
  }
}

TEST(K2TreeTest, DeserializeGarbageFails) {
  std::vector<uint8_t> garbage = {0x00, 0x00, 0x00};
  BitReader r(garbage);
  auto res = K2Tree::Deserialize(&r);
  EXPECT_FALSE(res.ok());
}

}  // namespace
}  // namespace grepair
