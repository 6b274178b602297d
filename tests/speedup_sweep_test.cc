// Parameterized sweeps for the one-pass speed-up queries across all
// workload families and option combinations: components and degree
// extrema must match brute force on val(G) for every configuration.

#include <gtest/gtest.h>

#include "src/datasets/generators.h"
#include "src/graph/graph_algos.h"
#include "src/grepair/compressor.h"
#include "src/query/speedup.h"

namespace grepair {
namespace {

struct SweepCase {
  const char* dataset;
  int max_rank;
  bool prune;
};

GeneratedGraph MakeGraph(const std::string& name) {
  if (name == "er") return ErdosRenyi(220, 700, 201, 3);
  if (name == "star") return RdfTypes(400, 6, 202);
  if (name == "entities") return RdfEntities(100, 9, 15, 203);
  if (name == "coauth") return CoAuthorship(130, 190, 204);
  if (name == "copies") {
    return DisjointCopies(CycleWithDiagonal(), 56, "c56");
  }
  if (name == "games") return GamePositions(35, 7, 3, 5, 205);
  ADD_FAILURE() << "unknown dataset " << name;
  return GeneratedGraph();
}

class SpeedupSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SpeedupSweep, AllAggregatesMatchBruteForce) {
  const SweepCase& c = GetParam();
  GeneratedGraph gg = MakeGraph(c.dataset);
  CompressOptions options;
  options.max_rank = c.max_rank;
  options.prune = c.prune;
  auto result = Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(result.ok());
  const SlhrGrammar& grammar = result.value().grammar;
  auto derived = Derive(grammar);
  ASSERT_TRUE(derived.ok());
  const Hypergraph& val = derived.value();

  // Components.
  uint32_t comps = 0;
  ConnectedComponents(val, &comps);
  EXPECT_EQ(CountConnectedComponents(grammar), comps);

  // Degree extrema.
  auto stats = ComputeDegreeStats(val);
  auto extrema = ComputeDegreeExtrema(grammar);
  ASSERT_TRUE(extrema.ok()) << extrema.status().ToString();
  EXPECT_EQ(extrema.value().min_degree, stats.min_degree);
  EXPECT_EQ(extrema.value().max_degree, stats.max_degree);

}

INSTANTIATE_TEST_SUITE_P(
    Battery, SpeedupSweep,
    ::testing::Values(SweepCase{"er", 4, true}, SweepCase{"er", 2, false},
                      SweepCase{"star", 4, true},
                      SweepCase{"star", 3, false},
                      SweepCase{"entities", 4, true},
                      SweepCase{"coauth", 4, true},
                      SweepCase{"coauth", 6, false},
                      SweepCase{"copies", 4, true},
                      SweepCase{"copies", 2, true},
                      SweepCase{"games", 4, true}),
    [](const auto& suite_info) {
      const SweepCase& c = suite_info.param;
      std::string name = std::string(c.dataset) + "_r" +
                         std::to_string(c.max_rank) +
                         (c.prune ? "_prune" : "_noprune");
      return name;
    });

TEST(SpeedupEdgeCases, IsolatedNodesHaveZeroDegreeExtrema) {
  Alphabet alpha;
  alpha.Add("a", 2);
  SlhrGrammar g(alpha, Hypergraph(5));  // 5 isolated nodes, no edges
  EXPECT_EQ(CountConnectedComponents(g), 5u);
  // Isolated nodes are a *legitimate* min_degree = 0, not an error.
  auto extrema = ComputeDegreeExtrema(g);
  ASSERT_TRUE(extrema.ok()) << extrema.status().ToString();
  EXPECT_EQ(extrema.value().min_degree, 0u);
  EXPECT_EQ(extrema.value().max_degree, 0u);
}

TEST(SpeedupEdgeCases, MixedIsolatedAndConnectedNodes) {
  Alphabet alpha;
  alpha.Add("a", 2);
  Hypergraph start(4);  // nodes 2 and 3 stay isolated
  start.AddSimpleEdge(0, 1, 0);
  SlhrGrammar g(alpha, std::move(start));
  auto extrema = ComputeDegreeExtrema(g);
  ASSERT_TRUE(extrema.ok()) << extrema.status().ToString();
  EXPECT_EQ(extrema.value().min_degree, 0u);  // the isolated nodes
  EXPECT_EQ(extrema.value().max_degree, 1u);
}

TEST(SpeedupEdgeCases, TrulyEmptyGrammarIsAnError) {
  Alphabet alpha;
  alpha.Add("a", 2);
  SlhrGrammar g(alpha, Hypergraph(0));  // derives no nodes at all
  // Previously this reported min = max = 0, indistinguishable from a
  // graph of isolated nodes; now the empty case is a typed error.
  auto extrema = ComputeDegreeExtrema(g);
  ASSERT_FALSE(extrema.ok());
  EXPECT_EQ(extrema.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CountConnectedComponents(g), 0u);
}

}  // namespace
}  // namespace grepair
