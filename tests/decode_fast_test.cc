// Differential battery for the word-at-a-time decode engine.
//
// Contract under test: the fast clz-based Elias decoders and the
// word-based BitReader::ReadBits are BIT-IDENTICAL to the retained
// scalar oracles on every input — same values, same status codes and
// messages, same cursor position after both success and failure. The
// sweeps drive randomized streams, every truncation length, and every
// single-bit flip across the Peek64 refill boundary, so a divergence
// anywhere in the 64-bit window logic fails loudly here before it can
// corrupt a container decode.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_checks.h"
#include "src/k2tree/k2tree.h"
#include "src/util/bit_stream.h"
#include "src/util/elias.h"

namespace grepair {
namespace {

// One decoder step: everything the caller can observe.
struct Step {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t value = 0;
  size_t position = 0;

  bool operator==(const Step& o) const {
    return ok == o.ok && code == o.code && message == o.message &&
           value == o.value && position == o.position;
  }
};

using DecodeFn = Status (*)(BitReader*, uint64_t*);

// Runs `fn` over the whole stream, recording every observable step
// until the first error (inclusive).
std::vector<Step> Trace(DecodeFn fn, const std::vector<uint8_t>& bytes,
                        size_t bit_count) {
  BitReader reader(bytes.data(), bit_count);
  std::vector<Step> steps;
  // bit_count + 1 iterations bound the loop even if a decoder failed
  // to advance; the trace comparison would then expose it.
  for (size_t i = 0; i <= bit_count; ++i) {
    Step s;
    uint64_t v = 0;
    Status status = fn(&reader, &v);
    s.ok = status.ok();
    s.code = status.code();
    s.message = status.message();
    s.value = s.ok ? v : 0;
    s.position = reader.position();
    steps.push_back(s);
    if (!s.ok) break;
  }
  return steps;
}

void ExpectIdenticalTraces(DecodeFn fast, DecodeFn scalar,
                           const std::vector<uint8_t>& bytes,
                           size_t bit_count, const char* label) {
  auto f = Trace(fast, bytes, bit_count);
  auto s = Trace(scalar, bytes, bit_count);
  ASSERT_EQ(f.size(), s.size()) << label << ": step counts diverge";
  for (size_t i = 0; i < f.size(); ++i) {
    ASSERT_TRUE(f[i] == s[i])
        << label << ": step " << i << " diverges (fast: ok=" << f[i].ok
        << " code=" << static_cast<int>(f[i].code) << " value=" << f[i].value
        << " pos=" << f[i].position << "; scalar: ok=" << s[i].ok
        << " code=" << static_cast<int>(s[i].code) << " value=" << s[i].value
        << " pos=" << s[i].position << ")";
  }
}

// Both codes, full sweep: truncate to every bit length and flip every
// bit — each mutant must decode identically under fast and scalar.
void SweepStream(const std::vector<uint8_t>& bytes, size_t bit_count,
                 const char* label) {
  ExpectIdenticalTraces(&EliasGammaDecode, &EliasGammaDecodeScalar, bytes,
                        bit_count, label);
  ExpectIdenticalTraces(&EliasDeltaDecode, &EliasDeltaDecodeScalar, bytes,
                        bit_count, label);
  for (size_t cut = 0; cut <= bit_count; ++cut) {
    ExpectIdenticalTraces(&EliasGammaDecode, &EliasGammaDecodeScalar, bytes,
                          cut, label);
    ExpectIdenticalTraces(&EliasDeltaDecode, &EliasDeltaDecodeScalar, bytes,
                          cut, label);
  }
  for (size_t bit = 0; bit < bit_count; ++bit) {
    auto flipped = bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (7 - bit % 8));
    ExpectIdenticalTraces(&EliasGammaDecode, &EliasGammaDecodeScalar,
                          flipped, bit_count, label);
    ExpectIdenticalTraces(&EliasDeltaDecode, &EliasDeltaDecodeScalar,
                          flipped, bit_count, label);
  }
}

std::vector<uint64_t> InterestingValues() {
  std::vector<uint64_t> vals = {1, 2, 3, 4, 7, 8, 15, 63, 64, 65, 255, 4096};
  for (int shift : {20, 31, 32, 40, 52, 62, 63}) {
    uint64_t p = 1ull << shift;
    vals.push_back(p - 1);
    vals.push_back(p);
    vals.push_back(p + 1);
  }
  vals.push_back(~0ull - 1);
  vals.push_back(~0ull);
  return vals;
}

TEST(DecodeFastTest, DeltaMatchesScalarOnInterestingValues) {
  // Each value alone, delta-coded: exercises the single-window fast
  // path, the general path (mantissas past ~52 bits) and the len==64
  // top-bit case.
  for (uint64_t v : InterestingValues()) {
    BitWriter w;
    EliasDeltaEncode(v, &w);
    SweepStream(w.bytes(), w.bit_size(),
                ("delta " + std::to_string(v)).c_str());
  }
}

TEST(DecodeFastTest, GammaMatchesScalarOnInterestingValues) {
  // Gamma codes reach 127 bits (values near 2^64), which never fit
  // one window: the straddling two-step path must stay identical too.
  for (uint64_t v : InterestingValues()) {
    BitWriter w;
    EliasGammaEncode(v, &w);
    SweepStream(w.bytes(), w.bit_size(),
                ("gamma " + std::to_string(v)).c_str());
  }
}

TEST(DecodeFastTest, RefillBoundarySweep) {
  // Slide a large code across every alignment of the 64-bit lookahead
  // window: pad with k one-bit gamma codes (value 1), then the code
  // under test straddles bit offset k.
  const uint64_t probes[] = {1, 0x5555, (1ull << 52) + 17,
                             (1ull << 63) + 123456789, ~0ull};
  for (uint64_t v : probes) {
    for (int pad = 0; pad < 130; ++pad) {
      BitWriter w;
      for (int i = 0; i < pad; ++i) EliasGammaEncode(1, &w);
      EliasDeltaEncode(v, &w);
      ExpectIdenticalTraces(&EliasDeltaDecode, &EliasDeltaDecodeScalar,
                            w.bytes(), w.bit_size(), "boundary delta");
      ExpectIdenticalTraces(&EliasGammaDecode, &EliasGammaDecodeScalar,
                            w.bytes(), w.bit_size(), "boundary gamma");
    }
  }
}

TEST(DecodeFastTest, RandomizedStreamsMatchScalar) {
  std::mt19937_64 rng(20160414);  // ICDE'16 vintage
  for (int iter = 0; iter < 60; ++iter) {
    BitWriter w;
    int codes = 1 + static_cast<int>(rng() % 40);
    for (int c = 0; c < codes; ++c) {
      // Magnitude spread: uniform in bit width, not in value.
      int width = 1 + static_cast<int>(rng() % 64);
      uint64_t v = (rng() & ((width == 64 ? 0 : (1ull << width)) - 1)) | 1u;
      EliasDeltaEncode(v, &w);
    }
    SweepStream(w.bytes(), w.bit_size(), "random stream");
  }
}

TEST(DecodeFastTest, RandomGarbageBytesMatchScalar) {
  // Pure noise: almost every decode errors somewhere; the two paths
  // must error the same way at the same cursor.
  std::mt19937_64 rng(0xbadc0de);
  for (int iter = 0; iter < 120; ++iter) {
    std::vector<uint8_t> bytes(1 + rng() % 24);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng());
    ExpectIdenticalTraces(&EliasGammaDecode, &EliasGammaDecodeScalar, bytes,
                          bytes.size() * 8, "garbage gamma");
    ExpectIdenticalTraces(&EliasDeltaDecode, &EliasDeltaDecodeScalar, bytes,
                          bytes.size() * 8, "garbage delta");
  }
}

TEST(DecodeFastTest, AllZeroAndAllOneStreams) {
  // All-zeros: gamma must report corruption once 64 zeros are ahead,
  // exhaustion on shorter tails — exactly like the oracle.
  for (size_t nbytes : {1u, 7u, 8u, 9u, 16u, 20u}) {
    std::vector<uint8_t> zeros(nbytes, 0x00);
    SweepStream(zeros, nbytes * 8, "all zeros");
    std::vector<uint8_t> ones(nbytes, 0xFF);
    SweepStream(ones, nbytes * 8, "all ones");
  }
}

TEST(DecodeFastTest, ReadBitsMatchesScalarOracle) {
  std::mt19937_64 rng(7);
  std::vector<uint8_t> bytes(41);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  for (int trial = 0; trial < 200; ++trial) {
    BitReader fast(bytes.data(), bytes.size() * 8);
    BitReader scalar(bytes.data(), bytes.size() * 8);
    while (true) {
      int n = static_cast<int>(rng() % 65);
      uint64_t fv = 1, sv = 2;
      Status fs = fast.ReadBits(n, &fv);
      Status ss = scalar.ReadBitsScalar(n, &sv);
      ASSERT_EQ(fs.ok(), ss.ok());
      ASSERT_EQ(fast.position(), scalar.position());
      if (!fs.ok()) {
        ASSERT_EQ(fs.message(), ss.message());
        break;
      }
      ASSERT_EQ(fv, sv) << "n=" << n << " pos=" << fast.position();
    }
  }
}

TEST(DecodeFastTest, Peek64MasksBitsPastTheWindowEnd) {
  // A sub-window reader over a larger buffer: bits beyond bit_count
  // exist in memory but must read as zero (DecodeNodeMap hands out
  // such windows).
  std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  for (size_t window = 1; window <= 80; ++window) {
    BitReader r(bytes.data(), window);
    uint64_t w = r.Peek64();
    if (window >= 64) {
      EXPECT_EQ(w, ~0ull) << "window " << window;
    } else {
      EXPECT_EQ(w, ~0ull << (64 - window)) << "window " << window;
    }
    // Mid-stream: consume some bits, the mask must track the cursor.
    BitReader r2(bytes.data(), window);
    size_t skip = window / 2;
    r2.Consume(skip);
    uint64_t w2 = r2.Peek64();
    size_t avail = window - skip;
    EXPECT_EQ(w2, avail >= 64 ? ~0ull : (avail == 0 ? 0 : ~0ull << (64 - avail)))
        << "window " << window;
  }
}

TEST(DecodeFastTest, BitsAvailableSurvivesAlignPastEnd) {
  // AlignToByte on a ragged tail can push the cursor past bit_count;
  // BitsAvailable/Peek64 must clamp instead of underflowing.
  std::vector<uint8_t> bytes = {0xA5};
  BitReader r(bytes.data(), 3);
  r.Consume(3);
  r.AlignToByte();  // cursor now at bit 8 > bit_count 3
  EXPECT_EQ(r.BitsAvailable(), 0u);
  EXPECT_EQ(r.Peek64(), 0u);
  uint64_t v = 0;
  EXPECT_FALSE(r.ReadBits(1, &v).ok());
}

// A stream of every read kind: delta codes of every width up to 64
// bits, gamma codes up to 127 bits (longer than any window), raw bit
// fields and single bits, so a random op sequence over it reads codes
// that fit the window, straddle it and overrun it.
std::vector<uint8_t> MixedStream(std::mt19937_64* rng, size_t* bit_count) {
  BitWriter w;
  const int items = 1 + static_cast<int>((*rng)() % 60);
  for (int i = 0; i < items; ++i) {
    const int width = 1 + static_cast<int>((*rng)() % 64);
    const uint64_t v = ((*rng)() >> (64 - width)) | 1u;
    switch ((*rng)() % 4) {
      case 0: EliasDeltaEncode(v, &w); break;
      case 1: EliasGammaEncode(v, &w); break;
      case 2: w.PutBits(v, width); break;
      default: w.PutBit(v & 2); break;
    }
  }
  *bit_count = w.bit_size();
  return w.TakeBytes();
}

void ExpectMixedReadsMatch(const std::vector<uint8_t>& bytes,
                           size_t bit_count, const std::vector<uint8_t>& ops,
                           const std::string& label) {
  const char* violated =
      fuzz::CheckMixedReads(bytes.data(), bit_count, ops.data(), ops.size());
  EXPECT_EQ(violated, nullptr) << label << ": " << violated;
}

TEST(DecodeFastTest, MixedReadsMatchTheOraclesOnOneReader) {
  // The window carries over from one read to the next, so each read
  // kind is checked after every other kind, at every cut of the stream
  // (a truncated code must fail where the oracle fails), and over a
  // sub-window of a buffer whose bits past the end are all ones.
  std::mt19937_64 rng(50);
  for (int iter = 0; iter < 150; ++iter) {
    size_t bit_count = 0;
    std::vector<uint8_t> bytes = MixedStream(&rng, &bit_count);
    std::vector<uint8_t> ops(64 + rng() % 200);
    for (auto& op : ops) op = static_cast<uint8_t>(rng());
    const std::string label = "stream " + std::to_string(iter);
    ExpectMixedReadsMatch(bytes, bit_count, ops, label);
    for (size_t cut = 0; cut < bit_count; cut += 1 + bit_count / 40) {
      ExpectMixedReadsMatch(bytes, cut, ops, label + " cut " +
                                                 std::to_string(cut));
    }
    std::vector<uint8_t> padded = bytes;
    padded.resize(padded.size() + 9, 0xFF);
    if (bit_count % 8 != 0) {
      padded[bit_count / 8] |= static_cast<uint8_t>(0xFFu >> (bit_count % 8));
    }
    ExpectMixedReadsMatch(padded, bit_count, ops, label + " padded");
  }
}

TEST(DecodeFastTest, MixedReadsMatchTheOraclesOnNoise) {
  std::mt19937_64 rng(0x5eed);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> bytes(1 + rng() % 40);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng() & rng());
    std::vector<uint8_t> ops(1 + rng() % 100);
    for (auto& op : ops) op = static_cast<uint8_t>(rng());
    const size_t bit_count = bytes.size() * 8 - rng() % 8;
    ExpectMixedReadsMatch(bytes, bit_count, ops,
                          "noise " + std::to_string(iter));
  }
}

TEST(DecodeFastTest, ScalarSwitchKeepsEveryReadOffTheWindow) {
  // Under the switch a reader never fills its window, so ReadBit,
  // ReadBits and both Elias decoders go bit by bit; the k^2 walk and
  // Deserialize's bitmap loads read through the same reader and must
  // decode the same tree as the windowed path.
  std::mt19937_64 rng(3);
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  for (int i = 0; i < 300; ++i) {
    cells.push_back({static_cast<uint32_t>(rng() % 200),
                     static_cast<uint32_t>(rng() % 150)});
  }
  BitWriter w;
  EliasDeltaEncode(77, &w);
  w.PutBit(true);
  K2Tree::Build(200, 150, cells).Serialize(&w);
  const std::vector<uint8_t> bytes = w.TakeBytes();

  using CellList = std::vector<std::pair<uint32_t, uint32_t>>;
  auto decode = [&](K2Tree::Cells* walked, CellList* all, size_t* end) {
    BitReader r(bytes);
    uint64_t v = 0;
    bool bit = false;
    ASSERT_TRUE(EliasDeltaDecode(&r, &v).ok());
    ASSERT_EQ(v, 77u);
    ASSERT_TRUE(r.ReadBit(&bit).ok());
    ASSERT_TRUE(bit);
    BitReader tree_reader = r;
    ASSERT_TRUE(K2Tree::DecodeCells(&tree_reader, walked).ok());
    auto tree = K2Tree::Deserialize(&r);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_EQ(r.position(), tree_reader.position());
    if (r.scalar()) {
      EXPECT_EQ(r.window_bits(), 0u);
      EXPECT_EQ(tree_reader.window_bits(), 0u);
    }
    *all = tree.value().AllCells();
    *end = r.position();
  };
  K2Tree::Cells windowed, scalar;
  CellList windowed_all, scalar_all;
  size_t windowed_end = 0, scalar_end = 0;
  decode(&windowed, &windowed_all, &windowed_end);
  {
    struct ScalarMode {
      ScalarMode() { SetEliasDecodeScalarForTest(true); }
      ~ScalarMode() { SetEliasDecodeScalarForTest(false); }
    } scalar_mode;
    BitReader probe(bytes);
    EXPECT_TRUE(probe.scalar());
    decode(&scalar, &scalar_all, &scalar_end);
  }
  EXPECT_EQ(std::vector<uint64_t>(scalar.keys.begin(), scalar.keys.end()),
            std::vector<uint64_t>(windowed.keys.begin(), windowed.keys.end()));
  EXPECT_EQ(scalar_all, windowed_all);
  EXPECT_EQ(scalar_end, windowed_end);
}

TEST(DecodeFastTest, ScalarDispatchFlagRoutesFastEntryPoints) {
  // The golden-fixture differentials rely on this flag actually
  // switching the shared entry points over to the oracles.
  BitWriter w;
  EliasDeltaEncode(12345, &w);
  SetEliasDecodeScalarForTest(true);
  BitReader r(w.bytes());
  uint64_t v = 0;
  ASSERT_TRUE(EliasDeltaDecode(&r, &v).ok());
  SetEliasDecodeScalarForTest(false);
  EXPECT_EQ(v, 12345u);
}

}  // namespace
}  // namespace grepair
