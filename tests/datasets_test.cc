// Tests for the synthetic dataset generators: determinism, structural
// properties the bench tables rely on, and the paper-dataset registry.

#include <gtest/gtest.h>

#include "src/datasets/generators.h"
#include "src/datasets/paper_datasets.h"
#include "src/graph/graph_algos.h"
#include "src/graph/node_order.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

TEST(GeneratorsTest, Deterministic) {
  auto a = ErdosRenyi(200, 600, 7, 2);
  auto b = ErdosRenyi(200, 600, 7, 2);
  EXPECT_TRUE(a.graph == b.graph);
  auto c = ErdosRenyi(200, 600, 8, 2);
  EXPECT_FALSE(a.graph == c.graph);
}

TEST(GeneratorsTest, AllValidAndSimple) {
  std::vector<GeneratedGraph> graphs;
  graphs.push_back(ErdosRenyi(100, 300, 1, 3));
  graphs.push_back(BarabasiAlbert(200, 3, 2));
  graphs.push_back(CoAuthorship(100, 150, 3));
  graphs.push_back(HubNetwork(150, 600, 8, 4));
  graphs.push_back(RdfTypes(200, 10, 5));
  graphs.push_back(RdfEntities(60, 8, 10, 6));
  graphs.push_back(GamePositions(20, 8, 3, 4, 7));
  graphs.push_back(DblpVersions(3, 40, 30, 8, "v"));
  for (const auto& gg : graphs) {
    EXPECT_TRUE(gg.graph.Validate(gg.alphabet).ok()) << gg.name;
    EXPECT_TRUE(IsSimple(gg.graph)) << gg.name;
    EXPECT_GT(gg.graph.num_edges(), 0u) << gg.name;
  }
}

TEST(GeneratorsTest, BarabasiAlbertIsSkewed) {
  auto gg = BarabasiAlbert(2000, 3, 11);
  auto stats = ComputeDegreeStats(gg.graph);
  // Preferential attachment: hubs far above the mean.
  EXPECT_GT(stats.max_degree, 10 * stats.mean_degree);
}

TEST(GeneratorsTest, RdfTypesIsStarForest) {
  auto gg = RdfTypes(1000, 12, 12, 1.0);
  // Every edge points into one of the 12 type hubs.
  for (const auto& e : gg.graph.edges()) {
    EXPECT_LT(e.att[1], 12u);
    EXPECT_GE(e.att[0], 12u);
  }
  // Few FP classes: the structure is extremely regular.
  EXPECT_LT(CountFpClasses(gg.graph), 80u);
}

TEST(GeneratorsTest, RdfTypesMeanTypesKnob) {
  auto single = RdfTypes(5000, 30, 13, 1.0);
  auto multi = RdfTypes(5000, 30, 13, 2.9);
  double r1 = static_cast<double>(single.graph.num_edges()) / 5000;
  double r2 = static_cast<double>(multi.graph.num_edges()) / 5000;
  EXPECT_NEAR(r1, 1.0, 0.05);
  EXPECT_NEAR(r2, 2.9, 0.4);
}

TEST(GeneratorsTest, CycleWithDiagonalShape) {
  auto gg = CycleWithDiagonal();
  EXPECT_EQ(gg.graph.num_nodes(), 4u);
  EXPECT_EQ(gg.graph.num_edges(), 5u);
}

TEST(GeneratorsTest, DisjointCopiesBlockStructure) {
  auto unit = CycleWithDiagonal();
  auto copies = DisjointCopies(unit, 10, "c10");
  EXPECT_EQ(copies.graph.num_nodes(), 40u);
  EXPECT_EQ(copies.graph.num_edges(), 50u);
  uint32_t comps = 0;
  ConnectedComponents(copies.graph, &comps);
  EXPECT_EQ(comps, 10u);
  // Identical copies collapse to the unit's FP classes.
  EXPECT_EQ(CountFpClasses(copies.graph), CountFpClasses(unit.graph));
}

TEST(GeneratorsTest, GamePositionsPerturbKnob) {
  auto clean = GamePositions(200, 9, 3, 3, 14, 0.0);
  auto noisy = GamePositions(200, 9, 3, 150, 14, 0.5);
  EXPECT_LT(CountFpClasses(clean.graph), 40u);
  EXPECT_GT(CountFpClasses(noisy.graph),
            4 * CountFpClasses(clean.graph));
}

TEST(GeneratorsTest, CoAuthorshipHistoryGrows) {
  auto snapshots = CoAuthorshipHistory(5, 50, 40, 15);
  ASSERT_EQ(snapshots.size(), 5u);
  for (size_t y = 1; y < snapshots.size(); ++y) {
    EXPECT_GE(snapshots[y].num_nodes(), snapshots[y - 1].num_nodes());
    EXPECT_GE(snapshots[y].num_edges(), snapshots[y - 1].num_edges());
  }
}

TEST(PaperDatasetsTest, RegistryCoversAllTables) {
  EXPECT_EQ(NetworkGraphNames().size(), 8u);
  EXPECT_EQ(RdfGraphNames().size(), 6u);
  EXPECT_EQ(VersionGraphNames().size(), 4u);
}

TEST(PaperDatasetsTest, StandInsAreConsistent) {
  for (const auto& name :
       {std::string("CA-GrQc"), std::string("Types ru"),
        std::string("Identica"), std::string("Tic-Tac-Toe"),
        std::string("DBLP60-70")}) {
    PaperDataset d = MakePaperDataset(name);
    EXPECT_EQ(d.data.name, name);
    EXPECT_TRUE(d.data.graph.Validate(d.data.alphabet).ok()) << name;
    EXPECT_GT(d.data.graph.num_edges(), 100u) << name;
    EXPECT_GT(d.scale, 0.0);
    EXPECT_LE(d.scale, 1.6) << name;
    EXPECT_EQ(d.paper.name, name);
    EXPECT_GT(d.paper.edges, 0u);
  }
}

TEST(PaperDatasetsTest, TicTacToeHasTinyFpClassCount) {
  // Table III reports |[~FP]| = 9 for Tic-Tac-Toe; the stand-in must
  // stay in that regime (near-identical repeated positions).
  PaperDataset d = MakePaperDataset("Tic-Tac-Toe");
  EXPECT_LT(CountFpClasses(d.data.graph), 60u);
}

TEST(PaperDatasetsTest, LabeledGraphsUseDeclaredLabels) {
  PaperDataset d = MakePaperDataset("Identica");
  EXPECT_EQ(d.data.alphabet.size(), d.paper.labels);
  PaperDataset chess = MakePaperDataset("Chess");
  EXPECT_EQ(chess.data.alphabet.size(), chess.paper.labels);
}

}  // namespace
}  // namespace grepair
