// Tests for the polymorphic codec API: every registered codec must
// round-trip compress -> serialize -> deserialize -> decompress back to
// the input graph, options must be validated, capabilities must gate
// the query entry points, and unknown names must fail with kNotFound.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/api/grepair_api.h"
#include "src/baselines/k2_compressor.h"

namespace grepair {
namespace api {
namespace {

// Single-label simple graph every codec accepts.
GeneratedGraph UniversalInput() { return BarabasiAlbert(300, 3, 7); }

// Unlabeled sorted-unique edge set.
std::vector<std::pair<uint32_t, uint32_t>> EdgeSet(const Hypergraph& g) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2) edges.push_back({e.att[0], e.att[1]});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

class CodecRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecRoundTrip, CompressSerializeDeserializeDecompress) {
  GeneratedGraph gg = UniversalInput();
  auto codec = CodecRegistry::Create(GetParam());
  ASSERT_TRUE(codec.ok()) << codec.status().ToString();
  EXPECT_EQ(codec.value()->name(), GetParam());

  auto rep = codec.value()->Compress(gg.graph, gg.alphabet);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value()->num_nodes(), gg.graph.num_nodes());
  EXPECT_GT(rep.value()->ByteSize(), 0u);

  auto bytes = rep.value()->Serialize();
  ASSERT_FALSE(bytes.empty());
  auto back = codec.value()->Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value()->num_nodes(), gg.graph.num_nodes());

  auto decompressed = back.value()->Decompress();
  ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
  EXPECT_EQ(decompressed.value().num_nodes(), gg.graph.num_nodes());
  EXPECT_EQ(EdgeSet(decompressed.value()), EdgeSet(gg.graph));
}

TEST_P(CodecRoundTrip, NeighborQueriesMatchCapabilities) {
  GeneratedGraph gg = UniversalInput();
  auto codec = CodecRegistry::Create(GetParam()).ValueOrDie();
  auto rep = codec->Compress(gg.graph, gg.alphabet);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();

  // Ground-truth out-neighbors of node 0.
  std::vector<uint64_t> expected;
  for (const auto& e : gg.graph.edges()) {
    if (e.att[0] == 0) expected.push_back(e.att[1]);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  // Every codec answers neighbor queries; only reachability varies.
  ASSERT_TRUE(codec->capabilities() & kNeighborQueries);
  auto out = rep.value()->OutNeighbors(0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), expected);
  auto oob = rep.value()->OutNeighbors(gg.graph.num_nodes() + 5);
  EXPECT_FALSE(oob.ok());

  auto reach = rep.value()->Reachable(0, 1);
  if (!(codec->capabilities() & kReachabilityQueries)) {
    ASSERT_FALSE(reach.ok());
    EXPECT_EQ(reach.status().code(), StatusCode::kUnimplemented);
  } else {
    ASSERT_TRUE(reach.ok()) << reach.status().ToString();
  }
}

TEST_P(CodecRoundTrip, RejectsUnknownOption) {
  GeneratedGraph gg = UniversalInput();
  auto codec = CodecRegistry::Create(GetParam()).ValueOrDie();
  CodecOptions options;
  options.Set("definitely-not-an-option", "1");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::ValuesIn(CodecRegistry::Names()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           std::replace(name.begin(), name.end(), ':', '_');
                           return name;
                         });

TEST(CodecRegistryTest, ListsExactlyTheTwoFileBackends) {
  EXPECT_EQ(CodecRegistry::Names(),
            (std::vector<std::string>{"grepair", "k2", "sharded:grepair",
                                      "sharded:k2"}));
}

TEST(CodecRegistryTest, UnknownNameIsNotFound) {
  // The paper's size-only baselines (and the deleted deflate codec) live
  // in bench/, not the registry: asking for one, plain or sharded, is
  // the same NotFound as any other unknown name.
  for (const char* name : {"no-such-codec", "hn", "lm", "repair-adj",
                           "deflate", "sharded:hn", "sharded:deflate"}) {
    auto codec = CodecRegistry::Create(name);
    ASSERT_FALSE(codec.ok()) << name;
    EXPECT_EQ(codec.status().code(), StatusCode::kNotFound) << name;
    // The error names the known codecs so CLI users can self-serve.
    EXPECT_NE(codec.status().message().find(
                  "(known: grepair, k2, sharded:grepair, sharded:k2)"),
              std::string::npos)
        << codec.status().ToString();
  }
}

TEST(CodecRegistryTest, LabeledGraphsRoundTrip) {
  GeneratedGraph gg = ErdosRenyi(100, 300, 3, /*num_labels=*/4);
  for (const char* name : {"grepair", "k2"}) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    EXPECT_TRUE(codec->capabilities() & kSupportsLabels) << name;
    auto rep = codec->Compress(gg.graph, gg.alphabet);
    ASSERT_TRUE(rep.ok()) << name << ": " << rep.status().ToString();
    auto round = codec->Deserialize(rep.value()->Serialize());
    ASSERT_TRUE(round.ok()) << name;
    auto graph = round.value()->Decompress();
    ASSERT_TRUE(graph.ok()) << name;
    EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(gg.graph)) << name;
  }
}

TEST(CodecRegistryTest, HyperedgesGatedByCapability) {
  Alphabet alphabet;
  alphabet.Add("e", 2);
  alphabet.Add("H", 3);
  Hypergraph g(6);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 0);
  g.AddEdge(1, {3, 4, 5});
  for (const auto& name : CodecRegistry::Names()) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    auto rep = codec->Compress(g, alphabet);
    if (codec->capabilities() & kSupportsHyperedges) {
      ASSERT_TRUE(rep.ok()) << name << ": " << rep.status().ToString();
      auto round = codec->Deserialize(rep.value()->Serialize());
      ASSERT_TRUE(round.ok()) << name;
      auto back = round.value()->Decompress();
      ASSERT_TRUE(back.ok()) << name;
      EXPECT_TRUE(back.value().EqualUpToEdgeOrder(g)) << name;
    } else {
      EXPECT_FALSE(rep.ok()) << name;
    }
  }
}

TEST(CodecRegistryTest, GrepairPreservesOriginalIdsThroughSerialization) {
  GeneratedGraph gg = RdfTypes(2000, 20, 11);
  auto codec = CodecRegistry::Create("grepair").ValueOrDie();
  auto rep = codec->Compress(gg.graph, gg.alphabet);
  ASSERT_TRUE(rep.ok());
  auto back = codec->Deserialize(rep.value()->Serialize());
  ASSERT_TRUE(back.ok());
  // Exact reconstruction, original ids included (psi' rides along).
  auto graph = back.value()->Decompress();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(gg.graph));
  // Queries on the deserialized rep agree with the original graph.
  std::vector<uint64_t> expected;
  for (const auto& e : gg.graph.edges()) {
    if (e.att[0] == 25) expected.push_back(e.att[1]);
  }
  std::sort(expected.begin(), expected.end());
  auto out = back.value()->OutNeighbors(25);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), expected);
}

TEST(CodecRegistryTest, CorruptedSerializationsFailCleanlyNotUB) {
  // Deserialize is an untrusted-input surface: flipping bytes anywhere
  // (headers, grammar, the psi' mapping tail) must yield a Status or a
  // still-consistent rep — never a crash or out-of-bounds access.
  GeneratedGraph gg = BarabasiAlbert(200, 3, 13);
  for (const auto& name : CodecRegistry::Names()) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    auto rep = codec->Compress(gg.graph, gg.alphabet);
    ASSERT_TRUE(rep.ok()) << name;
    auto bytes = rep.value()->Serialize();
    for (size_t off = 0; off < bytes.size(); off += 11) {
      auto bad = bytes;
      bad[off] ^= 0xFF;
      auto back = codec->Deserialize(bad);
      if (back.ok()) {
        auto graph = back.value()->Decompress();  // must not crash
        (void)graph;
      }
    }
  }
}

TEST(CodecOptionsTest, ParseAndTypedGetters) {
  auto parsed = CodecOptions::Parse("k=3,prune=false,order=bfs");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetInt("k", 2).value(), 3);
  EXPECT_EQ(parsed.value().GetBool("prune", true).value(), false);
  EXPECT_EQ(parsed.value().GetString("order", ""), "bfs");
  EXPECT_EQ(parsed.value().GetInt("absent", 42).value(), 42);

  EXPECT_FALSE(CodecOptions::Parse("novalue").ok());
  EXPECT_FALSE(CodecOptions::Parse("=x").ok());
  ASSERT_TRUE(CodecOptions::Parse("").ok());

  auto bad_int = CodecOptions::Parse("k=banana");
  ASSERT_TRUE(bad_int.ok());
  EXPECT_FALSE(bad_int.value().GetInt("k", 2).ok());
  auto bad_bool = CodecOptions::Parse("prune=maybe");
  ASSERT_TRUE(bad_bool.ok());
  EXPECT_FALSE(bad_bool.value().GetBool("prune", true).ok());
}

TEST(CodecOptionsTest, ShardedCodecsHaveNoStrategyOption) {
  // Edge ranges are the only partition: `strategy` is not a sharded
  // option, so it reaches the inner codec and is refused as unknown.
  GeneratedGraph gg = UniversalInput();
  for (const char* name : {"sharded:grepair", "sharded:k2"}) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    CodecOptions options;
    options.Set("shards", "2");
    options.Set("strategy", "edge-range");
    auto rep = codec->Compress(gg.graph, gg.alphabet, options);
    ASSERT_FALSE(rep.ok()) << name;
    EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(rep.status().message().find("unknown codec option 'strategy'"),
              std::string::npos)
        << name << ": " << rep.status().message();
  }
}

TEST(CodecOptionsTest, CodecSpecificOptionsApply) {
  GeneratedGraph gg = UniversalInput();
  auto codec = CodecRegistry::Create("grepair").ValueOrDie();
  CodecOptions no_prune;
  no_prune.Set("prune", "false");
  no_prune.Set("max-rank", "3");
  auto rep = codec->Compress(gg.graph, gg.alphabet, no_prune);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto graph = rep.value()->Decompress();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(gg.graph));

  auto k2 = CodecRegistry::Create("k2").ValueOrDie();
  CodecOptions k4;
  k4.Set("k", "4");
  auto rep4 = k2->Compress(gg.graph, gg.alphabet, k4);
  ASSERT_TRUE(rep4.ok()) << rep4.status().ToString();
  auto back4 = k2->Deserialize(rep4.value()->Serialize());
  ASSERT_TRUE(back4.ok());
  EXPECT_EQ(EdgeSet(back4.value()->Decompress().ValueOrDie()),
            EdgeSet(gg.graph));
}

TEST(K2BoundsTest, OutOfAlphabetLabelReturnsEmptyNotUB) {
  GeneratedGraph gg = ErdosRenyi(50, 200, 9, 2);
  auto rep = K2GraphRepresentation::Build(gg.graph, gg.alphabet);
  EXPECT_TRUE(rep.OutNeighbors(0, 999).empty());
  EXPECT_TRUE(rep.InNeighbors(0, 999).empty());
  EXPECT_FALSE(rep.HasEdge(0, 1, 999));
  EXPECT_TRUE(rep.OutNeighbors(1000, 0).empty());
  EXPECT_TRUE(rep.InNeighbors(1000, 0).empty());
  EXPECT_FALSE(rep.HasEdge(1000, 0, 0));
  EXPECT_FALSE(rep.HasEdge(0, 1000, 0));
}

}  // namespace
}  // namespace api
}  // namespace grepair
