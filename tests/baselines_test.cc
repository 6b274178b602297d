// Tests for the comparison compressors: k^2-tree graphs, LM, HN and
// string RePair — all verified by exact decompression round trips, so
// every size the paper benches report for them is proven to decode —
// plus the k2 payload parser's fail-closed checks.

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/fuzz_checks.h"
#include "fuzz/golden_seeds.h"
#include "src/baselines/deflate.h"
#include "src/baselines/hn.h"
#include "src/baselines/k2_compressor.h"
#include "src/baselines/lm.h"
#include "src/baselines/string_repair.h"
#include "src/datasets/generators.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

// Canonical unlabeled out-adjacency edge set for comparisons.
std::vector<std::pair<uint32_t, uint32_t>> EdgeSet(const Hypergraph& g) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2) edges.push_back({e.att[0], e.att[1]});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(DeflateTest, RoundTrip) {
  Rng rng(1);
  std::vector<uint8_t> data(10000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.UniformBounded(16));
  auto deflated = DeflateBytes(data);
  EXPECT_LT(deflated.size(), data.size());  // low-entropy input shrinks
  auto inflated = InflateBytes(deflated, data.size());
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(inflated.value(), data);
}

TEST(K2CompressorTest, RoundTripLabeled) {
  GeneratedGraph gg = ErdosRenyi(300, 1000, 61, 4);
  auto rep = K2GraphRepresentation::Build(gg.graph, gg.alphabet);
  auto bytes = rep.Serialize();
  auto back = K2GraphRepresentation::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().ToGraph().EqualUpToEdgeOrder(rep.ToGraph()));
  EXPECT_TRUE(rep.ToGraph().EqualUpToEdgeOrder(gg.graph) ||
              rep.ToGraph().num_edges() == gg.graph.num_edges());
}

TEST(K2CompressorTest, NeighborQueries) {
  GeneratedGraph gg = ErdosRenyi(120, 500, 62, 2);
  auto rep = K2GraphRepresentation::Build(gg.graph, gg.alphabet);
  for (const auto& e : gg.graph.edges()) {
    EXPECT_TRUE(rep.HasEdge(e.att[0], e.att[1], e.label));
  }
  // Out-neighbor spot checks per label.
  for (uint32_t v = 0; v < 40; ++v) {
    for (Label l = 0; l < gg.alphabet.size(); ++l) {
      std::vector<uint32_t> expected;
      for (const auto& e : gg.graph.edges()) {
        if (e.label == l && e.att[0] == v) expected.push_back(e.att[1]);
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(rep.OutNeighbors(v, l), expected);
    }
  }
}

TEST(K2CompressorTest, NodeCountAboveUint32FailsClosed) {
  // The header claims 2^32 + 4 nodes over a real 4 x 4 tree. Before:
  // OK, a 4-node rep (the count wrapped to the tree's 4).
  const auto wrapped = fuzz::SmallK2Payload((1ull << 32) + 4, 4);
  auto rep = K2GraphRepresentation::Deserialize(wrapped);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption)
      << rep.status().ToString();
  auto honest = K2GraphRepresentation::Deserialize(fuzz::SmallK2Payload(4, 4));
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_EQ(honest.value().num_nodes(), 4u);
}

// Mutation battery over the k2 payload fuzz target's invariants
// (CheckK2PayloadParse): every seed, bit flip and truncation of the
// golden k2 payloads.
TEST(K2CompressorTest, MutatedPayloadsUpholdFuzzInvariants) {
  for (const auto& seed : fuzz::GoldenK2PayloadSeeds()) {
    auto check = [](const std::vector<uint8_t>& bytes) {
      const char* violated =
          fuzz::CheckK2PayloadParse(bytes.data(), bytes.size());
      EXPECT_EQ(violated, nullptr) << violated;
    };
    check(seed);
    for (size_t bit = 0; bit < seed.size() * 8; ++bit) {
      auto flipped = seed;
      flipped[bit / 8] ^= static_cast<uint8_t>(0x80 >> (bit % 8));
      check(flipped);
    }
    for (size_t keep = 0; keep < seed.size(); ++keep) {
      check(std::vector<uint8_t>(seed.begin(), seed.begin() + keep));
    }
  }
}

class LmSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LmSweep, RoundTripsAtChunkSize) {
  GeneratedGraph gg = BarabasiAlbert(500, 4, 63);
  auto compressed = LmCompress(gg.graph, GetParam());
  auto back = LmDecompress(compressed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EdgeSet(back.value()), EdgeSet(gg.graph));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, LmSweep,
                         ::testing::Values(1, 3, 16, 64));

TEST(LmTest, CompressesWebLikeGraphs) {
  // Nodes in a BA graph share neighbors; LM + Deflate must beat the
  // trivial 2x32-bit edge list comfortably.
  GeneratedGraph gg = BarabasiAlbert(3000, 5, 64);
  auto compressed = LmCompress(gg.graph);
  double bpe = compressed.SizeBytes() * 8.0 / compressed.num_edges;
  EXPECT_LT(bpe, 32.0);
}

TEST(LmTest, EmptyAndTinyGraphs) {
  Hypergraph empty(0);
  auto c = LmCompress(empty);
  auto back = LmDecompress(c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_nodes(), 0u);

  Hypergraph one(3);
  one.AddSimpleEdge(2, 0, 0);
  c = LmCompress(one);
  back = LmDecompress(c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(EdgeSet(back.value()), EdgeSet(one));
}

TEST(HnTest, RoundTripsOnBicliqueHeavyGraph) {
  // Plant explicit bicliques: groups of sources sharing target sets.
  Rng rng(65);
  std::vector<std::array<uint32_t, 3>> triples;
  uint32_t n = 400;
  for (uint32_t group = 0; group < 12; ++group) {
    std::vector<uint32_t> targets;
    for (int t = 0; t < 8; ++t) {
      targets.push_back(static_cast<uint32_t>(rng.UniformBounded(n)));
    }
    for (int s = 0; s < 10; ++s) {
      uint32_t src = static_cast<uint32_t>(rng.UniformBounded(n));
      for (uint32_t t : targets) triples.push_back({src, t, 0});
    }
  }
  for (int i = 0; i < 300; ++i) {
    triples.push_back({static_cast<uint32_t>(rng.UniformBounded(n)),
                       static_cast<uint32_t>(rng.UniformBounded(n)), 0});
  }
  Hypergraph g = BuildSimpleGraph(n, std::move(triples));

  auto compressed = HnCompress(g);
  EXPECT_GT(compressed.patterns, 0u) << "planted bicliques not found";
  EXPECT_LT(compressed.residual_edges, g.num_edges());
  auto back = HnDecompress(compressed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EdgeSet(back.value()), EdgeSet(g));
}

TEST(HnTest, RandomGraphsRoundTrip) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    GeneratedGraph gg = ErdosRenyi(250, 900, seed, 1);
    auto compressed = HnCompress(gg.graph);
    auto back = HnDecompress(compressed);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(EdgeSet(back.value()), EdgeSet(gg.graph)) << seed;
  }
}

TEST(HnTest, BeatsPlainK2OnBicliques) {
  // The virtual-node trick must pay off where bicliques dominate.
  Rng rng(66);
  std::vector<std::array<uint32_t, 3>> triples;
  uint32_t n = 600;
  for (uint32_t group = 0; group < 20; ++group) {
    uint32_t src_base = group * 20;
    std::vector<uint32_t> targets;
    for (int t = 0; t < 12; ++t) {
      targets.push_back(400 + static_cast<uint32_t>(
                                  rng.UniformBounded(200)));
    }
    for (int s = 0; s < 15; ++s) {
      for (uint32_t t : targets) {
        triples.push_back({src_base + s % 20, t, 0});
      }
    }
  }
  Hypergraph g = BuildSimpleGraph(n, std::move(triples));
  Alphabet alpha;
  alpha.Add("e", 2);
  auto hn = HnCompress(g);
  size_t k2 = K2CompressedSize(g, alpha);
  EXPECT_LT(hn.SizeBytes(), k2);
}

TEST(StringRePairTest, ClassicExample) {
  // abcabcabc -> expect nested rules and a 3-symbol-ish sequence.
  std::vector<uint32_t> input = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  auto result = StringRePair(input, 3);
  EXPECT_GE(result.rules.size(), 1u);
  EXPECT_LT(result.sequence.size(), input.size());
  EXPECT_EQ(StringRePairExpand(result), input);
}

TEST(StringRePairTest, OverlappingPairs) {
  // aaaa: occurrences of (a,a) overlap; greedy takes positions 0 and 2.
  std::vector<uint32_t> input = {0, 0, 0, 0};
  auto result = StringRePair(input, 1);
  EXPECT_EQ(StringRePairExpand(result), input);
}

TEST(StringRePairTest, RandomSequencesRoundTrip) {
  Rng rng(67);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t sigma = 2 + static_cast<uint32_t>(rng.UniformBounded(6));
    std::vector<uint32_t> input(200 + rng.UniformBounded(800));
    for (auto& s : input) {
      s = static_cast<uint32_t>(rng.UniformBounded(sigma));
    }
    auto result = StringRePair(input, sigma);
    ASSERT_EQ(StringRePairExpand(result), input) << "trial " << trial;
  }
}

TEST(StringRePairTest, RepetitiveInputCompressesWell) {
  std::vector<uint32_t> unit = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<uint32_t> input;
  for (int i = 0; i < 256; ++i) {
    input.insert(input.end(), unit.begin(), unit.end());
  }
  auto result = StringRePair(input, 10);
  EXPECT_EQ(StringRePairExpand(result), input);
  // Grammar must be logarithmic-ish, far below the input length.
  EXPECT_LT(result.rules.size() * 2 + result.sequence.size(),
            input.size() / 8);
}

TEST(StringRePairTest, AdjListBaselineRoundTrips) {
  for (const GeneratedGraph& gg :
       {BarabasiAlbert(500, 4, 69), ErdosRenyi(400, 1500, 70),
        ErdosRenyi(50, 0, 71)}) {
    SCOPED_TRACE(gg.name);
    auto back = AdjListRePairDecompress(AdjListRePairCompress(gg.graph));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().num_nodes(), gg.graph.num_nodes());
    EXPECT_EQ(EdgeSet(back.value()), EdgeSet(gg.graph));
  }
}

TEST(StringRePairTest, AdjListBaselineProducesReasonableSizes) {
  GeneratedGraph gg = BarabasiAlbert(800, 4, 68);
  size_t bytes = AdjListRePairSizeBytes(gg.graph);
  EXPECT_GT(bytes, 0u);
  double bpe = bytes * 8.0 / gg.graph.num_edges();
  EXPECT_LT(bpe, 64.0);
}

}  // namespace
}  // namespace grepair
