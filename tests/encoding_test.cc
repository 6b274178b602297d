// Tests for the binary grammar format (Section III-C2): exact
// round trips over compressed real workloads, per-section accounting,
// the paper's "start graph dominates" observation, and corruption
// handling.

#include <gtest/gtest.h>

#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"
#include "src/util/elias.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

// Compress, encode, decode, and require the decoded grammar to derive
// the exact same graph (val respects canonical start-edge order).
void CheckCodecRoundTrip(const GeneratedGraph& gg,
                         const CompressOptions& options) {
  auto result = Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(result.ok());
  const SlhrGrammar& grammar = result.value().grammar;

  EncodeStats stats;
  auto bytes = EncodeGrammar(grammar, &stats);
  EXPECT_EQ(stats.total_bits,
            stats.header_bits + stats.rule_bits + stats.start_graph_bits);
  EXPECT_LE(stats.total_bits, bytes.size() * 8);

  auto decoded = DecodeGrammar(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().num_rules(), grammar.num_rules());
  EXPECT_EQ(decoded.value().num_terminals(), grammar.num_terminals());

  auto original = Derive(grammar);
  auto roundtrip = Derive(decoded.value());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(roundtrip.ok());
  EXPECT_TRUE(original.value() == roundtrip.value()) << gg.name;
}

TEST(EncodingTest, RoundTripChain) {
  GeneratedGraph gg;
  gg.name = "chain";
  gg.alphabet.Add("a", 2);
  gg.graph = Hypergraph(40);
  for (uint32_t v = 0; v + 1 < 40; ++v) gg.graph.AddSimpleEdge(v, v + 1, 0);
  CheckCodecRoundTrip(gg, CompressOptions());
}

class EncodingSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(EncodingSweep, RoundTrips) {
  std::string which = GetParam();
  GeneratedGraph gg;
  if (which == "er") gg = ErdosRenyi(250, 800, 41, 3);
  if (which == "rdf") gg = RdfTypes(600, 9, 42);
  if (which == "entities") gg = RdfEntities(150, 10, 12, 43);
  if (which == "coauth") gg = CoAuthorship(180, 260, 44);
  if (which == "games") gg = GamePositions(50, 8, 4, 6, 45);
  if (which == "copies") {
    gg = DisjointCopies(CycleWithDiagonal(), 64, "copies");
  }
  ASSERT_GT(gg.graph.num_nodes(), 0u);
  CheckCodecRoundTrip(gg, CompressOptions());

  CompressOptions no_prune;
  no_prune.prune = false;
  CheckCodecRoundTrip(gg, no_prune);
}

INSTANTIATE_TEST_SUITE_P(Datasets, EncodingSweep,
                         ::testing::Values("er", "rdf", "entities", "coauth",
                                           "games", "copies"));

TEST(EncodingTest, StartGraphDominates) {
  // Section IV: ">90% of the output is the k^2-tree start graph" on
  // typical (not highly compressible) network graphs.
  GeneratedGraph gg = ErdosRenyi(2000, 8000, 46, 1);
  auto result = Compress(gg.graph, gg.alphabet, CompressOptions());
  ASSERT_TRUE(result.ok());
  EncodeStats stats;
  EncodeGrammar(result.value().grammar, &stats);
  EXPECT_GT(static_cast<double>(stats.start_graph_bits),
            0.5 * static_cast<double>(stats.total_bits));
}

TEST(EncodingTest, TerminalOnlyGrammar) {
  Alphabet alpha;
  alpha.Add("a", 2);
  alpha.Add("H", 3);
  Hypergraph s(6);
  s.AddSimpleEdge(0, 1, 0);
  s.AddSimpleEdge(1, 2, 0);
  s.AddEdge(1, {5, 3, 4});
  s.AddEdge(1, {2, 4, 0});
  SlhrGrammar grammar(alpha, s);
  CanonicalizeStartEdgeOrder(&grammar, nullptr);
  auto bytes = EncodeGrammar(grammar);
  auto decoded = DecodeGrammar(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The rank-2 edges decode into the start adjacency, the hyperedges
  // into start().
  EXPECT_EQ(decoded.value().start_adjacency().num_edges(), 2u);
  EXPECT_EQ(decoded.value().start().num_edges(), 2u);
  EXPECT_TRUE(grammar.start() == WholeStartGraph(decoded.value()));
}

TEST(EncodingTest, HyperedgePermutationsRecovered) {
  // Hyperedges with all distinct attachment orders must decode to the
  // exact same attachment sequences.
  Alphabet alpha;
  alpha.Add("H", 3);
  Hypergraph s(5);
  s.AddEdge(0, {2, 0, 4});
  s.AddEdge(0, {4, 3, 0});
  s.AddEdge(0, {0, 1, 2});
  SlhrGrammar grammar(alpha, s);
  CanonicalizeStartEdgeOrder(&grammar, nullptr);
  auto decoded = DecodeGrammar(EncodeGrammar(grammar));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(grammar.start() == decoded.value().start());
}

TEST(EncodingTest, ParallelNonterminalEdgesSurvive) {
  // Two identical rank-2 nonterminal edges: the adjacency matrix alone
  // cannot express the multiplicity; the patch list must.
  Alphabet alpha;
  alpha.Add("a", 2);
  SlhrGrammar grammar(alpha, Hypergraph(3));
  Label nt = grammar.AddNonterminal(2, "A");
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, 0);
  rhs.AddSimpleEdge(2, 1, 0);
  rhs.SetExternal({0, 1});
  grammar.SetRule(nt, std::move(rhs));
  grammar.mutable_start()->AddEdge(nt, {0, 1});
  grammar.mutable_start()->AddEdge(nt, {0, 1});  // parallel duplicate
  grammar.mutable_start()->AddEdge(nt, {1, 2});
  CanonicalizeStartEdgeOrder(&grammar, nullptr);
  ASSERT_TRUE(grammar.Validate().ok());

  auto decoded = DecodeGrammar(EncodeGrammar(grammar));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().start().num_edges(), 3u);
  auto a = Derive(grammar);
  auto b = Derive(decoded.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
}

// Bits EncodeRule spends on `rhs` before its first edge's nonterminal
// marker, and on all of `rhs`.
size_t RuleHeaderBits(const Hypergraph& rhs) {
  return EliasDeltaLength(rhs.num_edges() + 1) +
         EliasDeltaLength(rhs.num_nodes() + 1) +
         EliasDeltaLength(rhs.ext().size() + 1);
}
size_t RuleBits(const Hypergraph& rhs) {
  size_t bits = RuleHeaderBits(rhs);
  for (const HEdge& e : rhs.edges()) {
    bits += 1 + EliasDeltaLength(e.att.size()) + EliasDeltaLength(e.label + 1);
    for (NodeId v : e.att) bits += 1 + EliasDeltaLength(v + 1);
  }
  return bits;
}

TEST(EncodingTest, RuleEdgeMarkerMustMatchItsLabel) {
  // A's body holds a terminal edge and B's starts with an A edge. The
  // marker bit before each rule edge says which kind its label is;
  // flipping either one must fail closed, not decode as before.
  Alphabet alpha;
  alpha.Add("a", 2);
  SlhrGrammar grammar(alpha, Hypergraph(3));
  const Label a_nt = grammar.AddNonterminal(2, "A");
  Hypergraph a_rhs(3);
  a_rhs.AddSimpleEdge(0, 2, 0);
  a_rhs.AddSimpleEdge(2, 1, 0);
  a_rhs.SetExternal({0, 1});
  grammar.SetRule(a_nt, a_rhs);
  const Label b_nt = grammar.AddNonterminal(2, "B");
  Hypergraph b_rhs(3);
  b_rhs.AddSimpleEdge(0, 2, a_nt);
  b_rhs.AddSimpleEdge(2, 1, 0);
  b_rhs.SetExternal({0, 1});
  grammar.SetRule(b_nt, b_rhs);
  grammar.mutable_start()->AddEdge(b_nt, {0, 1});
  grammar.mutable_start()->AddEdge(a_nt, {1, 2});
  CanonicalizeStartEdgeOrder(&grammar, nullptr);
  ASSERT_TRUE(grammar.Validate().ok());

  EncodeStats stats;
  const std::vector<uint8_t> bytes = EncodeGrammar(grammar, &stats);
  ASSERT_TRUE(DecodeGrammar(bytes).ok());
  auto bit_at = [&](size_t bit) {
    return (bytes[bit / 8] >> (7 - bit % 8)) & 1;
  };
  const size_t a_marker = stats.header_bits + RuleHeaderBits(a_rhs);
  const size_t b_marker =
      stats.header_bits + RuleBits(a_rhs) + RuleHeaderBits(b_rhs);
  ASSERT_EQ(bit_at(a_marker), 0) << "A's first edge is terminal";
  ASSERT_EQ(bit_at(b_marker), 1) << "B's first edge is A";
  for (size_t bit : {a_marker, b_marker}) {
    std::vector<uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (7 - bit % 8));
    auto decoded = DecodeGrammar(flipped);
    ASSERT_FALSE(decoded.ok()) << "bit " << bit;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(decoded.status().message(),
              "rule edge's nonterminal marker disagrees with its label");
  }
}

TEST(EncodingTest, CorruptionRejected) {
  GeneratedGraph gg = RdfTypes(100, 4, 47);
  auto result = Compress(gg.graph, gg.alphabet, CompressOptions());
  ASSERT_TRUE(result.ok());
  auto bytes = EncodeGrammar(result.value().grammar);

  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DecodeGrammar(bad).ok());

  // Truncation: dropping trailing bytes must not crash; it either
  // errors out or yields a grammar that fails validation.
  for (size_t keep : {size_t(4), bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    auto decoded = DecodeGrammar(cut);
    if (decoded.ok()) {
      // Extremely unlikely, but if parsing succeeds the grammar must
      // still be internally consistent.
      EXPECT_TRUE(decoded.value().Validate().ok());
    }
  }
}

TEST(EncodingTest, HugeClaimedCountsRejectedWithoutAllocating) {
  // Regression: a corrupted Elias code used to size an allocation
  // directly (e.g. a rule count of 2^50 -> std::bad_alloc took the
  // process down before any per-rule decode could fail). Counts that
  // drive allocations must be rejected against the input size first.
  // Found by the dense bit-flip sweep in container_format_test.
  BitWriter w;
  w.PutBits(0x47524732, 32);          // format magic ("GRG2")
  EliasDeltaEncode(2, &w);            // one terminal label
  EliasDeltaEncode(2, &w);            // ... of rank 1
  EliasDeltaEncode((1ull << 50) + 1, &w);  // 2^50 rules
  EliasDeltaEncode(10, &w);           // 9 start nodes
  auto decoded = DecodeGrammar(w.TakeBytes());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

  // Same for the permutation dictionary: no rules, huge perm count.
  BitWriter w2;
  w2.PutBits(0x47524732, 32);
  EliasDeltaEncode(2, &w2);           // one terminal label
  EliasDeltaEncode(2, &w2);           // ... of rank 1
  EliasDeltaEncode(1, &w2);           // zero rules
  EliasDeltaEncode(10, &w2);          // 9 start nodes
  EliasDeltaEncode((1ull << 50) + 1, &w2);  // 2^50 permutations
  auto decoded2 = DecodeGrammar(w2.TakeBytes());
  ASSERT_FALSE(decoded2.ok());
  EXPECT_EQ(decoded2.status().code(), StatusCode::kCorruption);
}

// A grammar with one rank-2 terminal, no rules, 4 start nodes and a
// start graph whose only k^2-tree is written raw: (0,1) and (3,2) under
// a header claiming `claimed_cells` cells.
std::vector<uint8_t> GrammarWithRawTree(uint64_t claimed_cells) {
  BitWriter w;
  w.PutBits(0x47524732, 32);          // format magic ("GRG2")
  EliasDeltaEncode(2, &w);            // one terminal label
  EliasDeltaEncode(2, &w);            // ... of rank 2
  EliasDeltaEncode(1, &w);            // zero rules
  EliasDeltaEncode(5, &w);            // 4 start nodes
  EliasDeltaEncode(1, &w);            // empty permutation dictionary
  w.PutBit(true);                     // label 0 present
  EliasDeltaEncode(2, &w);            // k
  EliasDeltaEncode(4 + 1, &w);        // rows
  EliasDeltaEncode(4 + 1, &w);        // cols
  EliasDeltaEncode(claimed_cells + 1, &w);
  EliasDeltaEncode(4 + 1, &w);        // |T|
  EliasDeltaEncode(8 + 1, &w);        // |L|
  for (char bit : std::string("1001" "01000010")) w.PutBit(bit == '1');
  EliasDeltaEncode(1, &w);            // no duplicate edges
  return w.TakeBytes();
}

TEST(EncodingTest, ForgedStartGraphCellCountRejected) {
  // Regression: single-codec GRPCODEC files carry no checksum, so a
  // k^2-tree header claiming 2^40 cells reached K2Tree::AllCells, which
  // sized its output from the claim and aborted the process with
  // std::bad_alloc. The tree layout check now rejects the count.
  auto honest = DecodeGrammar(GrammarWithRawTree(2));
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_EQ(honest.value().num_start_edges(), 2u);

  auto forged = DecodeGrammar(GrammarWithRawTree(1ull << 40));
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kCorruption);
}

TEST(EncodingTest, ZeroHasNoEliasCodeAndFailsClosed) {
  // Regression: BitLength(0) used to hit __builtin_clzll(0) — UB the
  // moment release builds compiled the guard assert out. All the
  // n == 0 entry points must now be defined: lengths report 0 and the
  // encoders append nothing.
  EXPECT_EQ(BitLength(0), 0);
  EXPECT_EQ(EliasGammaLength(0), 0);
  EXPECT_EQ(EliasDeltaLength(0), 0);

  BitWriter w;
  EliasGammaEncode(0, &w);
  EXPECT_EQ(w.bit_size(), 0u);
  EliasDeltaEncode(0, &w);
  EXPECT_EQ(w.bit_size(), 0u);

  // The writer still works afterwards, and the stream holds only what
  // the valid calls produced.
  EliasDeltaEncode(5, &w);
  EXPECT_EQ(w.bit_size(), static_cast<size_t>(EliasDeltaLength(5)));
  BitReader r(w.bytes());
  uint64_t v = 0;
  ASSERT_TRUE(EliasDeltaDecode(&r, &v).ok());
  EXPECT_EQ(v, 5u);
}

TEST(EncodingTest, BitLengthBoundaries) {
  EXPECT_EQ(BitLength(1), 1);
  EXPECT_EQ(BitLength(2), 2);
  EXPECT_EQ(BitLength(3), 2);
  EXPECT_EQ(BitLength((1ull << 63) - 1), 63);
  EXPECT_EQ(BitLength(1ull << 63), 64);
  EXPECT_EQ(BitLength(~0ull), 64);
}

TEST(EncodingTest, BitsPerEdgeHelper) {
  EXPECT_DOUBLE_EQ(BitsPerEdge(100, 100), 8.0);
  EXPECT_DOUBLE_EQ(BitsPerEdge(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(BitsPerEdge(10, 0), 0.0);
}

TEST(EncodingTest, StarGraphBeatsRawAdjacencyEncoding) {
  // The types-style star forest should compress to far fewer bits per
  // edge than an uncompressed grammar of the same graph.
  GeneratedGraph gg = RdfTypes(4000, 5, 48);
  auto compressed = Compress(gg.graph, gg.alphabet, CompressOptions());
  ASSERT_TRUE(compressed.ok());
  auto bytes = EncodeGrammar(compressed.value().grammar);

  SlhrGrammar plain(gg.alphabet, gg.graph);
  CanonicalizeStartEdgeOrder(&plain, nullptr);
  auto plain_bytes = EncodeGrammar(plain);
  EXPECT_LT(bytes.size() * 3, plain_bytes.size());
}

}  // namespace
}  // namespace grepair
