// Randomized end-to-end property tests: for a battery of random graphs
// and option combinations, the full pipeline (compress -> prune ->
// encode -> decode -> derive) must reproduce the input exactly, and
// grammar queries must agree with brute force.
//
// These run the same invariants as compressor_test/encoding_test but
// over a wider randomized space (seeds x densities x label counts),
// exercising odd corner cases: dense multigraph-like label stacks,
// disconnected fragments, isolated nodes, single-hub stars. A second
// battery flips bits of the same graphs' payloads and holds each
// decode to the grepair payload fuzz target's invariants.

#include <gtest/gtest.h>

#include "fuzz/fuzz_checks.h"
#include "src/encoding/grammar_coder.h"
#include "src/graph/graph_algos.h"
#include "src/grepair/compressor.h"
#include "src/query/compressed_graph.h"
#include "src/query/reachability.h"
#include "src/query/speedup.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

struct FuzzParam {
  uint64_t seed;
  uint32_t nodes;
  uint32_t edges;
  uint32_t labels;
};

Hypergraph RandomGraph(const FuzzParam& p, Alphabet* alphabet) {
  Rng rng(p.seed);
  alphabet->AddSimpleLabels(static_cast<int>(p.labels));
  std::vector<std::array<uint32_t, 3>> triples;
  for (uint32_t i = 0; i < p.edges; ++i) {
    uint32_t u, v;
    double mode = rng.UniformDouble();
    if (mode < 0.3) {
      // Star-ish: attach to a hub.
      u = static_cast<uint32_t>(rng.UniformBounded(1 + p.nodes / 20));
      v = static_cast<uint32_t>(rng.UniformBounded(p.nodes));
    } else if (mode < 0.5) {
      // Chain-ish: local edge.
      u = static_cast<uint32_t>(rng.UniformBounded(p.nodes));
      v = (u + 1 + static_cast<uint32_t>(rng.UniformBounded(3))) % p.nodes;
    } else {
      u = static_cast<uint32_t>(rng.UniformBounded(p.nodes));
      v = static_cast<uint32_t>(rng.UniformBounded(p.nodes));
    }
    triples.push_back(
        {u, v, static_cast<uint32_t>(rng.UniformBounded(p.labels))});
  }
  return BuildSimpleGraph(p.nodes, std::move(triples));
}

class FuzzRoundTrip : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(FuzzRoundTrip, FullPipeline) {
  const FuzzParam& p = GetParam();
  Alphabet alphabet;
  Hypergraph graph = RandomGraph(p, &alphabet);

  Rng rng(p.seed ^ 0xF00D);
  CompressOptions options;
  options.track_node_mapping = true;
  options.max_rank = 2 + static_cast<int>(rng.UniformBounded(5));
  options.prune = rng.Bernoulli(0.8);
  options.connect_components = rng.Bernoulli(0.8);
  NodeOrderKind orders[] = {NodeOrderKind::kNatural, NodeOrderKind::kBfs,
                            NodeOrderKind::kDfs, NodeOrderKind::kRandom,
                            NodeOrderKind::kFp0, NodeOrderKind::kFp};
  options.node_order = orders[rng.UniformBounded(6)];

  auto result = Compress(graph, alphabet, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SlhrGrammar& grammar = result.value().grammar;
  ASSERT_TRUE(grammar.Validate().ok()) << grammar.Validate().ToString();

  // Exact reconstruction through the mapping.
  auto original = DeriveOriginal(grammar, result.value().origins);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE(original.value().EqualUpToEdgeOrder(graph))
      << "seed " << p.seed;

  // Binary round trip preserves val(G) exactly.
  auto bytes = EncodeGrammar(grammar);
  auto decoded = DecodeGrammar(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto val_a = Derive(grammar);
  auto val_b = Derive(decoded.value());
  ASSERT_TRUE(val_a.ok());
  ASSERT_TRUE(val_b.ok());
  ASSERT_TRUE(val_a.value() == val_b.value());

  // Aggregate queries agree with brute force on val(G).
  uint32_t comps = 0;
  ConnectedComponents(val_a.value(), &comps);
  EXPECT_EQ(CountConnectedComponents(grammar), comps);
  auto extrema = ComputeDegreeExtrema(grammar);
  ASSERT_TRUE(extrema.ok()) << extrema.status().ToString();
  auto stats = ComputeDegreeStats(val_a.value());
  EXPECT_EQ(extrema.value().min_degree, stats.min_degree);
  EXPECT_EQ(extrema.value().max_degree, stats.max_degree);

  // Reachability spot checks.
  ReachabilityIndex reach(grammar);
  for (int i = 0; i < 40; ++i) {
    uint64_t u = rng.UniformBounded(val_a.value().num_nodes());
    uint64_t v = rng.UniformBounded(val_a.value().num_nodes());
    bool truth = DirectedReachable(val_a.value(), static_cast<NodeId>(u))[v];
    ASSERT_EQ(reach.Reachable(u, v), truth)
        << "seed " << p.seed << ": " << u << " -> " << v;
  }
}

// Single-bit flips of the same graphs' grepair payloads (grammar and
// psi') uphold the payload fuzz target's invariants
// (CheckGrepairPayload): a decode that succeeds passes the full
// SlhrGrammar::Validate, and a failure is kCorruption or kOutOfRange.
// Flips in a start k^2-tree's leaves move cells onto the diagonal,
// which only the decoder's per-cell check rejects.
TEST_P(FuzzRoundTrip, FlippedPayloadsUpholdFuzzInvariants) {
  const FuzzParam& p = GetParam();
  Alphabet alphabet;
  Hypergraph graph = RandomGraph(p, &alphabet);
  auto compressed = CompressedGraph::FromGraph(graph, alphabet);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  const std::vector<uint8_t> payload = compressed.value().Serialize();
  const char* violated =
      fuzz::CheckGrepairPayload(payload.data(), payload.size());
  ASSERT_EQ(violated, nullptr) << violated;
  // At most 512 flips per graph, spread over the whole payload.
  const size_t bits = payload.size() * 8;
  const size_t stride = (bits + 511) / 512;
  for (size_t bit = p.seed % stride; bit < bits; bit += stride) {
    std::vector<uint8_t> flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(0x80 >> (bit % 8));
    violated = fuzz::CheckGrepairPayload(flipped.data(), flipped.size());
    ASSERT_EQ(violated, nullptr) << violated << " (bit " << bit << ")";
  }
}

std::vector<FuzzParam> MakeFuzzParams() {
  std::vector<FuzzParam> params;
  uint64_t seed = 1000;
  for (uint32_t nodes : {20u, 150u, 600u}) {
    for (uint32_t density : {1u, 3u, 8u}) {
      for (uint32_t labels : {1u, 4u}) {
        params.push_back({seed++, nodes, nodes * density, labels});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Battery, FuzzRoundTrip,
                         ::testing::ValuesIn(MakeFuzzParams()),
                         [](const auto& suite_info) {
                           const FuzzParam& p = suite_info.param;
                           return "n" + std::to_string(p.nodes) + "_e" +
                                  std::to_string(p.edges) + "_l" +
                                  std::to_string(p.labels);
                         });

}  // namespace
}  // namespace grepair
