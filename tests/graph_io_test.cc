// Tests for the native text hypergraph format.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/graph/graph_io.h"

namespace grepair {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(GraphIoTest, NativeRoundTrip) {
  Alphabet alpha;
  alpha.Add("a", 2);
  alpha.Add("H", 3);
  Hypergraph g(5);
  g.AddSimpleEdge(0, 1, 0);
  g.AddSimpleEdge(4, 2, 0);
  g.AddEdge(1, {1, 3, 4});

  std::string path = TempPath("native_roundtrip.graph");
  ASSERT_TRUE(SaveGraphText(g, alpha, path).ok());
  auto loaded = LoadGraphText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().graph == g);
  EXPECT_EQ(loaded.value().alphabet.size(), alpha.size());
  EXPECT_EQ(loaded.value().alphabet.rank(1), 3);
  std::remove(path.c_str());
}

TEST(GraphIoTest, ParseRejectsBadHeader) {
  std::istringstream in("not-a-graph 1 2 3");
  EXPECT_FALSE(ParseGraphText(in).ok());
}

TEST(GraphIoTest, ParseRejectsBadLabel) {
  std::istringstream in("grepair-graph 3 1 1\n2\n9 0 1\n");
  EXPECT_FALSE(ParseGraphText(in).ok());
}

TEST(GraphIoTest, ParseRejectsOutOfRangeNode) {
  std::istringstream in("grepair-graph 3 1 1\n2\n0 0 7\n");
  EXPECT_FALSE(ParseGraphText(in).ok());
}

TEST(GraphIoTest, ParseRejectsSelfLoop) {
  // Restriction (1): repeated attachment must fail validation.
  std::istringstream in("grepair-graph 3 1 1\n2\n0 1 1\n");
  EXPECT_FALSE(ParseGraphText(in).ok());
}

TEST(GraphIoTest, MissingFileReportsNotFound) {
  auto loaded = LoadGraphText("/nonexistent/path/graph.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace grepair
