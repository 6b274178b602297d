// Unit tests for bit streams, byte spans/cursors, Elias codes, RNG
// determinism, union-find and the atomic file writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/util/bit_stream.h"
#include "src/util/byte_io.h"
#include "src/util/elias.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"
#include "src/util/rng.h"
#include "src/util/union_find.h"

namespace grepair {
namespace {

TEST(ByteSourceTest, ReadsAreZeroCopyAndBounded) {
  std::vector<uint8_t> data;
  PutU32LE(0xDEADBEEFu, &data);
  PutU64LE(42, &data);
  data.insert(data.end(), {9, 8, 7});
  ByteSource src(SpanOf(data), "test-buffer");
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(src.ReadU32LE(&u32).ok());
  ASSERT_TRUE(src.ReadU64LE(&u64).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 42u);
  ByteSpan tail;
  ASSERT_TRUE(src.ReadSpan(3, &tail).ok());
  EXPECT_EQ(tail.data, data.data() + 12);  // a borrowed view, no copy
  EXPECT_TRUE(src.ExpectExhausted("test-buffer").ok());
}

TEST(ByteSourceTest, TruncationErrorsNameContextOffsetAndSizes) {
  std::vector<uint8_t> data = {1, 2, 3};
  ByteSource src(SpanOf(data), "shard.bin");
  uint64_t v = 0;
  auto status = src.ReadU64LE(&v);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The error names the source, the failing offset, and
  // expected-vs-actual byte counts.
  EXPECT_NE(status.message().find("shard.bin"), std::string::npos);
  EXPECT_NE(status.message().find("offset 0"), std::string::npos);
  EXPECT_NE(status.message().find("need 8"), std::string::npos);
  EXPECT_NE(status.message().find("have 3"), std::string::npos);

  ASSERT_TRUE(src.Skip(2).ok());
  auto trailing = src.ExpectExhausted("frame");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.message().find("1 trailing byte"), std::string::npos);
}

TEST(ByteSinkTest, MirrorsTheFreeHelpers) {
  ByteSink sink;
  sink.PutU8(7);
  sink.PutU32LE(0x01020304u);
  sink.PutU64LE(0x0102030405060708ull);
  std::vector<uint8_t> expected = {7};
  PutU32LE(0x01020304u, &expected);
  PutU64LE(0x0102030405060708ull, &expected);
  EXPECT_EQ(sink.bytes(), expected);
  ByteSink other;
  other.Append(SpanOf(expected));
  EXPECT_EQ(other.TakeBytes(), expected);
}

TEST(HashBytesTest, DetectsEverySingleByteChange) {
  std::vector<uint8_t> data(57);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37);
  }
  uint64_t base = HashBytes(data.data(), data.size());
  EXPECT_EQ(base, HashBytes(data.data(), data.size()));  // deterministic
  for (size_t i = 0; i < data.size(); ++i) {
    auto tweaked = data;
    tweaked[i] ^= 0x10;
    EXPECT_NE(HashBytes(tweaked.data(), tweaked.size()), base)
        << "byte " << i;
  }
  // Length is part of the hash (zero-padded tails must not collide).
  std::vector<uint8_t> padded = data;
  padded.push_back(0);
  EXPECT_NE(HashBytes(padded.data(), padded.size()), base);
}

TEST(BitStreamTest, SingleBitsRoundTrip) {
  BitWriter w;
  std::vector<bool> bits = {1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1};
  for (bool b : bits) w.PutBit(b);
  EXPECT_EQ(w.bit_size(), bits.size());
  BitReader r(w.bytes());
  for (bool expected : bits) {
    bool b = false;
    ASSERT_TRUE(r.ReadBit(&b).ok());
    EXPECT_EQ(b, expected);
  }
  bool overflow = false;
  // Byte padding remains readable, but the 17th bit is out of range.
  for (size_t i = bits.size(); i < 16; ++i) {
    ASSERT_TRUE(r.ReadBit(&overflow).ok());
    EXPECT_FALSE(overflow);  // padding is zero
  }
  EXPECT_FALSE(r.ReadBit(&overflow).ok());
}

TEST(BitStreamTest, MultiBitValues) {
  BitWriter w;
  w.PutBits(0b1011, 4);
  w.PutBits(0xFFFFFFFFull, 32);
  w.PutBits(0, 7);
  w.PutBits(1, 1);
  BitReader r(w.bytes());
  uint64_t v = 0;
  ASSERT_TRUE(r.ReadBits(4, &v).ok());
  EXPECT_EQ(v, 0b1011u);
  ASSERT_TRUE(r.ReadBits(32, &v).ok());
  EXPECT_EQ(v, 0xFFFFFFFFull);
  ASSERT_TRUE(r.ReadBits(8, &v).ok());
  EXPECT_EQ(v, 1u);
}

TEST(BitStreamTest, AlignToByte) {
  BitWriter w;
  w.PutBit(true);
  w.AlignToByte();
  EXPECT_EQ(w.bit_size(), 8u);
  w.PutBits(0xAB, 8);
  BitReader r(w.bytes());
  bool b;
  ASSERT_TRUE(r.ReadBit(&b).ok());
  r.AlignToByte();
  uint64_t v;
  ASSERT_TRUE(r.ReadBits(8, &v).ok());
  EXPECT_EQ(v, 0xABu);
}

TEST(EliasTest, KnownGammaCodes) {
  // gamma(1) = "1", gamma(2) = "010", gamma(5) = "00101".
  BitWriter w;
  EliasGammaEncode(1, &w);
  EXPECT_EQ(w.bit_size(), 1u);
  EliasGammaEncode(2, &w);
  EliasGammaEncode(5, &w);
  EXPECT_EQ(w.bit_size(), 1u + 3u + 5u);
  BitReader r(w.bytes());
  uint64_t v;
  ASSERT_TRUE(EliasGammaDecode(&r, &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(EliasGammaDecode(&r, &v).ok());
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(EliasGammaDecode(&r, &v).ok());
  EXPECT_EQ(v, 5u);
}

TEST(EliasTest, DeltaLengthsMatchEncoder) {
  BitWriter w;
  size_t before = 0;
  for (uint64_t n : {1ull, 2ull, 3ull, 17ull, 128ull, 12345ull}) {
    EliasDeltaEncode(n, &w);
    EXPECT_EQ(static_cast<int>(w.bit_size() - before), EliasDeltaLength(n))
        << "n=" << n;
    before = w.bit_size();
  }
}

class EliasRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EliasRoundTrip, GammaAndDelta) {
  uint64_t n = GetParam();
  BitWriter w;
  EliasGammaEncode(n, &w);
  EliasDeltaEncode(n, &w);
  BitReader r(w.bytes());
  uint64_t g = 0, d = 0;
  ASSERT_TRUE(EliasGammaDecode(&r, &g).ok());
  ASSERT_TRUE(EliasDeltaDecode(&r, &d).ok());
  EXPECT_EQ(g, n);
  EXPECT_EQ(d, n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EliasRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 63, 64,
                                           100, 1023, 1024, 65535, 1u << 20,
                                           (1ull << 32) - 1, 1ull << 40,
                                           ~0ull >> 1));

TEST(EliasTest, RandomizedRoundTrip) {
  Rng rng(7);
  BitWriter w;
  std::vector<uint64_t> values;
  for (int i = 0; i < 2000; ++i) {
    uint64_t n = (rng.Next() >> (rng.Next() % 60)) + 1;
    values.push_back(n);
    EliasDeltaEncode(n, &w);
  }
  BitReader r(w.bytes());
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(EliasDeltaDecode(&r, &v).ok());
    ASSERT_EQ(v, expected);
  }
}

TEST(EliasTest, DecodeCorruptStreamFails) {
  // 70 zero bits: no gamma terminator.
  BitWriter w;
  for (int i = 0; i < 70; ++i) w.PutBit(false);
  BitReader r(w.bytes());
  uint64_t v;
  EXPECT_FALSE(EliasGammaDecode(&r, &v).ok());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformBoundedInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformBounded(17), 17u);
  }
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(9);
  int low = 0;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(1000, 1.1) < 10) ++low;
  }
  // Zipf mass concentrates on small ranks; uniform would give ~1%.
  EXPECT_GT(low, kTrials / 10);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(6);
  EXPECT_EQ(uf.CountSets(), 6u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Same(0, 1));
  EXPECT_FALSE(uf.Same(0, 2));
  EXPECT_TRUE(uf.Union(0, 2));
  EXPECT_TRUE(uf.Same(1, 3));
  EXPECT_EQ(uf.CountSets(), 3u);
  EXPECT_EQ(uf.SetSize(3), 4u);
}

// An atomic write creates its temporary exclusively: symlinks planted at
// the names a per-process counter would give a process's first
// temporaries (".tmp0", ".tmp1", ...) are neither followed nor replaced,
// so the file they point to keeps its bytes. The victim is written with
// a plain stream so this process's first atomic write is the one below.
TEST(WriteFileBytesAtomicTest, PlantedTemporarySymlinksAreNotFollowed) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "grepair_atomic_planted";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path victim = dir / "victim.bin";
  const std::string victim_text = "bytes someone else owns";
  std::ofstream(victim, std::ios::binary) << victim_text;
  const std::string target = (dir / "out.bin").string();
  std::set<std::string> names = {"victim.bin", "out.bin"};
  for (int i = 0; i < 8; ++i) {
    std::string link = "out.bin.tmp" + std::to_string(i);
    fs::create_symlink(victim, dir / link);
    names.insert(link);
  }

  std::vector<uint8_t> bytes(4096, 0xEE);
  Status status = WriteFileBytesAtomic(target, SpanOf(bytes));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(fs::is_regular_file(fs::symlink_status(target)));
  EXPECT_EQ(ReadFileBytes(target).ValueOrDie(), bytes);
  auto victim_now = ReadFileBytes(victim.string()).ValueOrDie();
  EXPECT_TRUE(std::string(victim_now.begin(), victim_now.end()) ==
              victim_text)
      << "the victim now holds " << victim_now.size() << " byte(s)";
  std::set<std::string> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    found.insert(entry.path().filename().string());
    if (entry.path() != victim && entry.path().string() != target) {
      EXPECT_EQ(fs::read_symlink(entry.path()), victim) << entry.path();
    }
  }
  EXPECT_EQ(found, names);  // no temporary left behind
  fs::remove_all(dir);
}

// The exclusive create itself: a drawn name already taken by a symlink
// or a regular file fails the open with EEXIST and is redrawn, and
// neither it nor the file a symlink points to is touched.
TEST(WriteFileBytesAtomicTest, ExclusiveCreateRedrawsPastTakenNames) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "grepair_exclusive_create";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string victim_text = "bytes someone else owns";
  std::ofstream(dir / "victim.bin", std::ios::binary) << victim_text;
  std::ofstream(dir / "taken.bin", std::ios::binary) << victim_text;
  fs::create_symlink(dir / "victim.bin", dir / "link.bin");
  auto text_of = [](const fs::path& p) {
    auto bytes = ReadFileBytes(p.string());
    if (!bytes.ok()) return bytes.status().ToString();
    return std::string(bytes.value().begin(), bytes.value().end());
  };

  const std::vector<fs::path> draws = {dir / "link.bin", dir / "taken.bin",
                                       dir / "fresh.bin"};
  size_t drawn = 0;
  std::string chosen;
  std::FILE* f = CreateExclusiveFile(
      [&] { return draws[std::min(drawn++, draws.size() - 1)].string(); },
      &chosen);
  ASSERT_NE(f, nullptr) << std::strerror(errno);
  std::fputs("new", f);
  std::fclose(f);
  EXPECT_EQ(drawn, 3u);
  EXPECT_EQ(chosen, (dir / "fresh.bin").string());
  EXPECT_EQ(text_of(dir / "fresh.bin"), "new");
  EXPECT_EQ(text_of(dir / "victim.bin"), victim_text);
  EXPECT_EQ(text_of(dir / "taken.bin"), victim_text);
  EXPECT_TRUE(fs::is_symlink(dir / "link.bin"));

  // Every draw taken: no file, EEXIST, and the draws stop at 100.
  drawn = 0;
  errno = 0;
  f = CreateExclusiveFile(
      [&] {
        ++drawn;
        return (dir / "link.bin").string();
      },
      &chosen);
  EXPECT_EQ(f, nullptr);
  EXPECT_EQ(errno, EEXIST);
  EXPECT_EQ(drawn, 100u);
  EXPECT_EQ(text_of(dir / "victim.bin"), victim_text);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace grepair
