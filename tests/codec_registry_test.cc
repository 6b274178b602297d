// Tests for the codec API: both codec names ("grepair" and
// "sharded:grepair") must round-trip compress -> serialize ->
// deserialize -> decompress back to the input graph and answer
// neighbor and reachability queries, options must be validated before
// any work, and every other name must fail with kNotFound.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/api/grepair_api.h"
#include "src/baselines/k2_compressor.h"

namespace grepair {
namespace api {
namespace {

// A single-label simple graph.
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

TEST_P(CodecRoundTrip, AnswersNeighborAndReachabilityQueries) {
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

  auto out = rep.value()->OutNeighbors(0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), expected);
  auto oob = rep.value()->OutNeighbors(gg.graph.num_nodes() + 5);
  EXPECT_FALSE(oob.ok());

  // Reachability from node 0 agrees with a BFS over the input.
  std::vector<uint8_t> seen(gg.graph.num_nodes(), 0);
  std::vector<uint32_t> frontier = {0};
  seen[0] = 1;
  while (!frontier.empty()) {
    uint32_t v = frontier.back();
    frontier.pop_back();
    for (const auto& e : gg.graph.edges()) {
      if (e.att[0] == v && !seen[e.att[1]]) {
        seen[e.att[1]] = 1;
        frontier.push_back(e.att[1]);
      }
    }
  }
  for (uint32_t v = 0; v < 40; ++v) {
    auto reach = rep.value()->Reachable(0, v);
    ASSERT_TRUE(reach.ok()) << reach.status().ToString();
    EXPECT_EQ(reach.value(), seen[v] != 0) << v;
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
                         ::testing::Values("grepair", "sharded:grepair"),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           std::replace(name.begin(), name.end(), ':', '_');
                           return name;
                         });

TEST(CodecRegistryTest, UnknownNameIsNotFound) {
  // The paper's size-only baselines (k^2-trees included) and the
  // deleted deflate codec live in bench/, not the registry: asking for
  // one, plain or sharded, is the same NotFound as any other unknown
  // name, and so is a nested sharded name.
  for (const char* name :
       {"no-such-codec", "k2", "hn", "lm", "repair-adj", "deflate",
        "sharded:k2", "sharded:hn", "sharded:deflate",
        "sharded:sharded:grepair", "sharded:"}) {
    auto codec = CodecRegistry::Create(name);
    ASSERT_FALSE(codec.ok()) << name;
    EXPECT_EQ(codec.status().code(), StatusCode::kNotFound) << name;
    EXPECT_EQ(codec.status().message(),
              std::string("no codec named '") + name + "'");
  }
}

TEST(CodecRegistryTest, LabeledGraphsRoundTrip) {
  GeneratedGraph gg = ErdosRenyi(100, 300, 3, /*num_labels=*/4);
  for (const char* name : {"grepair", "sharded:grepair"}) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    auto rep = codec->Compress(gg.graph, gg.alphabet);
    ASSERT_TRUE(rep.ok()) << name << ": " << rep.status().ToString();
    auto round = codec->Deserialize(rep.value()->Serialize());
    ASSERT_TRUE(round.ok()) << name;
    auto graph = round.value()->Decompress();
    ASSERT_TRUE(graph.ok()) << name;
    EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(gg.graph)) << name;
  }
}

TEST(CodecRegistryTest, HyperedgesRoundTrip) {
  Alphabet alphabet;
  alphabet.Add("e", 2);
  alphabet.Add("H", 3);
  Hypergraph g(6);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(1, 2, 0);
  g.AddEdge(1, {3, 4, 5});
  for (const char* name : {"grepair", "sharded:grepair"}) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    auto rep = codec->Compress(g, alphabet);
    ASSERT_TRUE(rep.ok()) << name << ": " << rep.status().ToString();
    auto round = codec->Deserialize(rep.value()->Serialize());
    ASSERT_TRUE(round.ok()) << name;
    auto back = round.value()->Decompress();
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_TRUE(back.value().EqualUpToEdgeOrder(g)) << name;
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
  for (const char* name : {"grepair", "sharded:grepair"}) {
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

TEST(CodecOptionsTest, ShardedCodecHasNoStrategyOption) {
  // Edge ranges are the only partition: `strategy` is not a sharded
  // option, so it is refused as an unknown grepair option.
  GeneratedGraph gg = UniversalInput();
  auto codec = CodecRegistry::Create("sharded:grepair").ValueOrDie();
  CodecOptions options;
  options.Set("shards", "2");
  options.Set("strategy", "edge-range");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rep.status().message().find("unknown codec option 'strategy'"),
            std::string::npos)
      << rep.status().message();
}

TEST(CodecOptionsTest, OptionsAreCheckedBeforeAnyWork) {
  // Both codecs parse their options before compressing anything, with
  // the compressor's own max-rank bounds, so an edgeless graph (whose
  // shards never reach the compressor) refuses exactly what a graph
  // with edges refuses.
  GeneratedGraph edgeless;
  edgeless.name = "edgeless";
  edgeless.graph = Hypergraph(5);
  edgeless.alphabet.Add("e", 2);
  const GeneratedGraph inputs[] = {edgeless, UniversalInput()};
  struct Case {
    const char* spec;
    const char* message;  // empty: accepted
  };
  const Case cases[] = {
      {"bogus=1,prune=maybe", "unknown codec option 'bogus'"},
      {"prune=maybe", "option prune=maybe is not a boolean"},
      {"max-rank=100", "option max-rank=100 out of range [1, 63]"},
      {"max-rank=64", "option max-rank=64 out of range [1, 63]"},
      {"max-rank=0", "option max-rank=0 out of range [1, 63]"},
      {"order=sideways", "unknown node order 'sideways'"},
      {"max-rank=63", ""},
      {"max-rank=1", ""},
  };
  for (const char* name : {"grepair", "sharded:grepair"}) {
    auto codec = CodecRegistry::Create(name).ValueOrDie();
    for (const Case& c : cases) {
      auto options = CodecOptions::Parse(c.spec).ValueOrDie();
      for (const GeneratedGraph& input : inputs) {
        SCOPED_TRACE(std::string(name) + " " + input.name + " " + c.spec);
        auto rep = codec->Compress(input.graph, input.alphabet, options);
        if (c.message[0] == '\0') {
          ASSERT_TRUE(rep.ok()) << rep.status().ToString();
          auto back = rep.value()->Decompress();
          ASSERT_TRUE(back.ok()) << back.status().ToString();
          EXPECT_TRUE(back.value().EqualUpToEdgeOrder(input.graph));
          continue;
        }
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(rep.status().message().find(c.message), 0u)
            << rep.status().ToString();
      }
    }
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
}

TEST(K2BoundsTest, OutOfAlphabetLabelReturnsEmptyNotUB) {
  GeneratedGraph gg = ErdosRenyi(50, 200, 9, 2);
  auto rep = K2GraphRepresentation::Build(gg.graph, gg.alphabet);
  EXPECT_TRUE(rep.OutNeighbors(0, 999).empty());
  EXPECT_FALSE(rep.HasEdge(0, 1, 999));
  EXPECT_TRUE(rep.OutNeighbors(1000, 0).empty());
  EXPECT_FALSE(rep.HasEdge(1000, 0, 0));
  EXPECT_FALSE(rep.HasEdge(0, 1000, 0));
}

}  // namespace
}  // namespace api
}  // namespace grepair
