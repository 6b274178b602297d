// Round-trip and fail-closed tests for the grepair payload v2 codes of
// grammar_coder.h: the psi' node mapping (the flat origin array as
// zigzag gaps), the start graph's hyperedge tuple sections and rank-2
// k^2 cells, and the rule checks, each of which must fail closed with
// Corruption, plus the retired v1 payload, which must fail closed with
// a "recompress" message.

#include <gtest/gtest.h>

#include <string>

#include "fuzz/golden_seeds.h"
#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"
#include "src/k2tree/k2tree.h"
#include "src/query/compressed_graph.h"
#include "src/shard/shard_store.h"
#include "src/util/bit_stream.h"
#include "src/util/elias.h"
#include "tests/graph_checks.h"

namespace grepair {
namespace {

CompressResult CompressTracked(const GeneratedGraph& gg) {
  CompressOptions options;
  options.track_node_mapping = true;
  auto result = Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

uint64_t ZigZag(int64_t d) {
  return (static_cast<uint64_t>(d) << 1) ^ (d < 0 ? ~uint64_t{0} : 0);
}

// The mapping format written out by hand: |V_S| + 1, then
// zigzag(id - previous id - 1) + 1 for every entry of `ids` (the
// previous id of the first entry is -1). Ids need not be valid.
std::vector<uint8_t> RawMapping(uint64_t start_nodes,
                                const std::vector<int64_t>& ids) {
  BitWriter w;
  EliasDeltaEncode(start_nodes + 1, &w);
  int64_t expected = 0;
  for (int64_t id : ids) {
    EliasDeltaEncode(ZigZag(id - expected) + 1, &w);
    expected = id + 1;
  }
  return w.TakeBytes();
}

// |V_S| + 1, then the given Elias-delta values as they are.
std::vector<uint8_t> RawCodes(uint64_t start_nodes,
                              const std::vector<uint64_t>& codes) {
  BitWriter w;
  EliasDeltaEncode(start_nodes + 1, &w);
  for (uint64_t code : codes) EliasDeltaEncode(code, &w);
  return w.TakeBytes();
}

void CheckMappingRoundTrip(const GeneratedGraph& gg) {
  CompressResult result = CompressTracked(gg);
  const SlhrGrammar& grammar = result.grammar;

  auto bytes = EncodeNodeMapping(grammar, result.origins);
  auto decoded = DecodeNodeMapping(grammar, ComputeValSize(grammar).nodes,
                                   SpanOf(bytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The decoded mapping agrees entry-for-entry with the in-memory one,
  // and its other direction is the inverse.
  EXPECT_EQ(decoded.value().to_original, result.origins);
  ASSERT_EQ(decoded.value().to_val.size(), result.origins.size());
  for (NodeId v = 0; v < result.origins.size(); ++v) {
    ASSERT_EQ(decoded.value().to_val[result.origins[v]], v);
  }
  // The layout is the header plus every origin's gap in val(G) id order.
  std::vector<int64_t> ids(result.origins.begin(), result.origins.end());
  EXPECT_EQ(bytes, RawMapping(grammar.start().num_nodes(), ids));

  // And it reconstructs the exact original graph.
  auto original = DeriveOriginal(grammar, decoded.value().to_original);
  ASSERT_TRUE(original.ok());
  EXPECT_TRUE(original.value().EqualUpToEdgeOrder(gg.graph)) << gg.name;
}

// Fail-closed cases edit the honest mapping of the figure-13 copies: a
// small grammar whose val(G) has n_ nodes.
class MappingCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    result_ = CompressTracked(
        DisjointCopies(CycleWithDiagonal(), 16, "copies16"));
    ids_.assign(result_.origins.begin(), result_.origins.end());
    n_ = ids_.size();
  }
  Result<DecodedNodeMapping> Decode(const std::vector<uint8_t>& bytes) {
    return DecodeNodeMapping(result_.grammar,
                             ComputeValSize(result_.grammar).nodes,
                             SpanOf(bytes));
  }
  uint64_t start_nodes() const { return result_.grammar.start().num_nodes(); }

  CompressResult result_;
  std::vector<int64_t> ids_;
  int64_t n_ = 0;
};

TEST_F(MappingCodecTest, RoundTripsAcrossWorkloads) {
  CheckMappingRoundTrip(CoAuthorship(150, 220, 91));
  CheckMappingRoundTrip(RdfTypes(400, 8, 92));
  CheckMappingRoundTrip(
      DisjointCopies(CycleWithDiagonal(), 64, "copies64"));
  CheckMappingRoundTrip(GamePositions(30, 8, 3, 4, 93));
}

TEST_F(MappingCodecTest, RejectsWrongGrammar) {
  CompressResult ra = CompressTracked(RdfTypes(200, 6, 94));
  CompressResult rb = CompressTracked(RdfTypes(300, 6, 95));
  auto bytes = EncodeNodeMapping(ra.grammar, ra.origins);
  // Decoding against the wrong grammar must fail cleanly.
  auto decoded = DecodeNodeMapping(
      rb.grammar, ComputeValSize(rb.grammar).nodes, SpanOf(bytes));
  EXPECT_FALSE(decoded.ok());
}

TEST_F(MappingCodecTest, AcceptsTheHonestMapping) {
  auto decoded = Decode(RawMapping(start_nodes(), ids_));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().to_original, result_.origins);
}

TEST_F(MappingCodecTest, RejectsStartNodeCountMismatch) {
  EXPECT_FALSE(Decode(RawMapping(start_nodes() + 1, ids_)).ok());
  EXPECT_FALSE(Decode(RawMapping(start_nodes() - 1, ids_)).ok());
}

TEST_F(MappingCodecTest, RejectsGapSteppingToNOrBeyond) {
  for (int64_t bad : {n_, n_ + 1, int64_t{1} << 32, int64_t{1} << 40}) {
    for (size_t at : {size_t{0}, ids_.size() / 2, ids_.size() - 1}) {
      std::vector<int64_t> ids = ids_;
      ids[at] = bad;
      auto decoded = Decode(RawMapping(start_nodes(), ids));
      ASSERT_FALSE(decoded.ok()) << "id " << bad << " at " << at;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(MappingCodecTest, RejectsGapSteppingBelowZero) {
  for (int64_t bad : {int64_t{-1}, int64_t{-2}, -n_, -(int64_t{1} << 40)}) {
    for (size_t at : {size_t{0}, ids_.size() / 2, ids_.size() - 1}) {
      std::vector<int64_t> ids = ids_;
      ids[at] = bad;
      auto decoded = Decode(RawMapping(start_nodes(), ids));
      ASSERT_FALSE(decoded.ok()) << "id " << bad << " at " << at;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(MappingCodecTest, RejectsExtremeGapCodes) {
  // Steps of about +-2^63: the decoder's wrapping add must not bring
  // them back into [0, n).
  for (uint64_t code : {~uint64_t{0}, ~uint64_t{0} - 1, uint64_t{1} << 63,
                        (uint64_t{1} << 63) + 1}) {
    std::vector<uint64_t> codes(ids_.size(), 1);  // honest would be gaps
    codes[0] = code;
    auto decoded = Decode(RawCodes(start_nodes(), codes));
    EXPECT_FALSE(decoded.ok()) << "code " << code;
  }
}

TEST_F(MappingCodecTest, RejectsDuplicateId) {
  // Adjacent (a step of -1) and far apart.
  for (size_t at : {size_t{1}, ids_.size() - 1}) {
    std::vector<int64_t> ids = ids_;
    ids[at] = ids[at == 1 ? 0 : 2];
    auto decoded = Decode(RawMapping(start_nodes(), ids));
    ASSERT_FALSE(decoded.ok()) << "repeat at " << at;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(MappingCodecTest, RejectsTruncatedBytes) {
  // The grammar fixes the id count, so every strict prefix is short.
  const std::vector<uint8_t> bytes = RawMapping(start_nodes(), ids_);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(Decode(prefix).ok()) << "prefix of " << len << " bytes";
  }
}

TEST_F(MappingCodecTest, RejectsCountBeyondInputBeforeAllocating) {
  // val(G) has 2^31 + 2 nodes; the mapping bytes hold a handful of
  // bits. The count must fail against the bits left before the decoder
  // sizes anything by it (8 GiB of origins would not fit here).
  SlhrGrammar grammar = fuzz::DoublingGrammar(32);
  ASSERT_EQ(ComputeValSize(grammar).nodes, (uint64_t{1} << 31) + 2);
  auto decoded = DecodeNodeMapping(grammar, ComputeValSize(grammar).nodes,
                                   SpanOf(RawMapping(2, {0, 1, 2, 3})));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  // A count that saturates (2^64 + 2 nodes) fails the same way.
  SlhrGrammar saturated = fuzz::DoublingGrammar(65);
  decoded = DecodeNodeMapping(saturated, ComputeValSize(saturated).nodes,
                              SpanOf(RawMapping(2, {0, 1})));
  EXPECT_FALSE(decoded.ok());
}

TEST_F(MappingCodecTest, MappingSizeIsModest) {
  // The out-of-band mapping costs O(|V| log |V|) bits; check the
  // constant is sane (under ~4 bytes/node here).
  GeneratedGraph gg = RdfTypes(4000, 10, 97);
  CompressResult result = CompressTracked(gg);
  auto bytes = EncodeNodeMapping(result.grammar, result.origins);
  EXPECT_LT(bytes.size(), gg.graph.num_nodes() * 4u);
}

// ---- Start-graph tuple sections -----------------------------------------

// One hyperedge as written in a tuple section: its permutation index
// (among the dictionary's perms of the edge's rank), then raw
// Elias-delta values (honestly: zigzag(first member - previous tuple's
// first member) + 1, then the gaps between sorted members).
struct RawTuple {
  uint64_t perm;
  std::vector<uint64_t> codes;
};

// The honest codes of a tuple whose sorted members are `sorted`.
RawTuple Tuple(uint64_t perm, const std::vector<int64_t>& sorted,
               int64_t prev_first) {
  RawTuple t{perm, {ZigZag(sorted[0] - prev_first) + 1}};
  for (size_t a = 1; a < sorted.size(); ++a) {
    t.codes.push_back(static_cast<uint64_t>(sorted[a] - sorted[a - 1]));
  }
  return t;
}

// A grammar written out by hand: one rank-3 terminal, no rules,
// `start_nodes` start nodes, the permutation dictionary `perms`, then
// the terminal's tuple section claiming `count` edges and holding
// `tuples`.
std::vector<uint8_t> GrammarWithTuples(
    uint64_t start_nodes, const std::vector<std::vector<uint8_t>>& perms,
    uint64_t count, const std::vector<RawTuple>& tuples) {
  BitWriter w;
  w.PutBits(0x47524732, 32);  // "GRG2"
  EliasDeltaEncode(2, &w);    // one terminal label
  EliasDeltaEncode(3, &w);    // ... of rank 3
  EliasDeltaEncode(1, &w);    // zero rules
  EliasDeltaEncode(start_nodes + 1, &w);
  EliasDeltaEncode(perms.size() + 1, &w);
  for (const auto& perm : perms) {
    EliasDeltaEncode(perm.size(), &w);
    for (uint8_t p : perm) EliasDeltaEncode(p + 1, &w);
  }
  // Indices count only the rank-3 entries.
  uint64_t rank3_perms = 0;
  for (const auto& perm : perms) rank3_perms += perm.size() == 3;
  int perm_bits = 0;
  while ((uint64_t{1} << perm_bits) < rank3_perms) ++perm_bits;
  w.PutBit(true);  // label 0 present
  EliasDeltaEncode(count, &w);
  for (const RawTuple& t : tuples) {
    w.PutBits(t.perm, perm_bits);
    for (uint64_t code : t.codes) EliasDeltaEncode(code, &w);
  }
  return w.TakeBytes();
}

// Six start nodes and three rank-3 edges in canonical order:
// perm 0 keeps the sorted order, perm 1 rotates it (att[i] =
// sorted[perm[i]]).
const std::vector<std::vector<uint8_t>> kPerms = {{0, 1, 2}, {1, 2, 0}};
const std::vector<Attachments> kHonestAtts = {{0, 2, 4}, {1, 3, 0}, {1, 3, 5}};

std::vector<RawTuple> HonestTuples() {
  return {Tuple(0, {0, 2, 4}, 0), Tuple(1, {0, 1, 3}, 0),
          Tuple(0, {1, 3, 5}, 0)};
}

void ExpectCorrupt(const std::vector<uint8_t>& bytes, const char* what) {
  auto decoded = DecodeGrammar(bytes);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << what;
}

TEST(TupleSectionTest, DecodesHonestTuplesInCanonicalOrder) {
  auto decoded = DecodeGrammar(GrammarWithTuples(6, kPerms, 3, HonestTuples()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Hypergraph& start = decoded.value().start();
  ASSERT_EQ(start.num_edges(), kHonestAtts.size());
  for (EdgeId e = 0; e < start.num_edges(); ++e) {
    EXPECT_EQ(start.edge(e).label, 0u);
    EXPECT_TRUE(start.edge(e).att == kHonestAtts[e]) << "edge " << e;
  }
}

TEST(TupleSectionTest, EncoderWritesTheDocumentedLayout) {
  Alphabet alphabet;
  alphabet.Add("h", 3);
  Hypergraph start(6);
  for (const Attachments& att : kHonestAtts) start.AddEdge(0, att);
  SlhrGrammar grammar(std::move(alphabet), std::move(start));
  EXPECT_EQ(EncodeGrammar(grammar),
            GrammarWithTuples(6, kPerms, 3, HonestTuples()));
}

TEST(TupleSectionTest, RejectsMemberOutOfRange) {
  // First member at |V_S|, and a gap that steps the last member there.
  std::vector<RawTuple> tuples = HonestTuples();
  tuples[2] = Tuple(0, {6, 7, 8}, 0);
  ExpectCorrupt(GrammarWithTuples(6, kPerms, 3, tuples), "first member 6");
  tuples[2] = Tuple(0, {1, 3, 6}, 0);
  ExpectCorrupt(GrammarWithTuples(6, kPerms, 3, tuples), "last member 6");
  tuples[2] = Tuple(0, {1, 3, 1ll << 40}, 0);
  ExpectCorrupt(GrammarWithTuples(6, kPerms, 3, tuples), "last member 2^40");
  // A first member that steps below 0, and a near-2^64 step.
  tuples[2] = Tuple(0, {-1, 3, 5}, 0);
  ExpectCorrupt(GrammarWithTuples(6, kPerms, 3, tuples), "first member -1");
  tuples[2].codes[0] = ~uint64_t{0};
  ExpectCorrupt(GrammarWithTuples(6, kPerms, 3, tuples), "huge step");
}

TEST(TupleSectionTest, RejectsUnsortedTuplesAndRepeatedMembers) {
  // Members are coded as gaps of at least one, so within one tuple
  // neither disorder nor a repeat can be written. What can: a
  // permutation that repeats an entry (a repeated member once applied)
  // and tuples whose attachments break canonical edge order.
  ExpectCorrupt(GrammarWithTuples(6, {{0, 0, 2}, {1, 2, 0}}, 3,
                                  HonestTuples()),
                "repeating permutation");
  std::vector<RawTuple> tuples = {Tuple(0, {1, 3, 5}, 0),
                                  Tuple(0, {0, 2, 4}, 1)};
  ExpectCorrupt(GrammarWithTuples(6, kPerms, 2, tuples), "edges out of order");
  // The same tuples with the rotating permutation on the second edge
  // are in order: {1, 3, 5} < {2, 4, 0}.
  tuples[1].perm = 1;
  auto decoded = DecodeGrammar(GrammarWithTuples(6, kPerms, 2, tuples));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().start().edge(1).att == Attachments({2, 4, 0}));
}

TEST(TupleSectionTest, RejectsBadPermutationIndex) {
  // Three rank-3 entries take two index bits, so index 3 names none
  // (the rank-1 entry does not count).
  const std::vector<std::vector<uint8_t>> perms = {
      {0, 1, 2}, {0}, {1, 2, 0}, {2, 0, 1}};
  std::vector<RawTuple> tuples = HonestTuples();
  ASSERT_TRUE(DecodeGrammar(GrammarWithTuples(6, perms, 3, tuples)).ok());
  tuples[1].perm = 3;
  ExpectCorrupt(GrammarWithTuples(6, perms, 3, tuples), "index 3 of 3");
  // A dictionary with no rank-3 entry leaves rank-3 tuples without one.
  tuples = {Tuple(0, {0, 2, 4}, 0)};
  ExpectCorrupt(GrammarWithTuples(6, {{0}}, 1, tuples), "no rank-3 perms");
}

TEST(TupleSectionTest, RejectsEdgeCountBeyondTheInput) {
  // One edge too many runs out of bits; counts past the bits left fail
  // before the first tuple is read.
  EXPECT_FALSE(
      DecodeGrammar(GrammarWithTuples(6, kPerms, 4, HonestTuples())).ok());
  for (uint64_t count : {uint64_t{1} << 20, uint64_t{1} << 40}) {
    ExpectCorrupt(GrammarWithTuples(6, kPerms, count, HonestTuples()),
                  "edge count beyond the input");
  }
}

TEST(TupleSectionTest, RejectsEveryStrictPrefix) {
  const std::vector<uint8_t> bytes =
      GrammarWithTuples(6, kPerms, 3, HonestTuples());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DecodeGrammar(prefix).ok()) << "prefix of " << len;
  }
}

// ---- Start-graph k^2 cells and rule checks --------------------------------

// A grammar written out by hand: one rank-2 terminal, the one rule
// `write_rule` writes (none if null), `start_nodes` start nodes, an
// empty permutation dictionary, and the terminal's section: a
// `tree_size` x `tree_size` k^2-tree holding `cells`, with no
// duplicates.
std::vector<uint8_t> GrammarWithCells(
    uint64_t start_nodes, uint32_t tree_size,
    const std::vector<std::pair<uint32_t, uint32_t>>& cells,
    void (*write_rule)(BitWriter*) = nullptr) {
  const uint64_t num_rules = write_rule != nullptr ? 1 : 0;
  BitWriter w;
  w.PutBits(0x47524732, 32);  // "GRG2"
  EliasDeltaEncode(2, &w);    // one terminal label
  EliasDeltaEncode(2, &w);    // ... of rank 2
  EliasDeltaEncode(num_rules + 1, &w);
  EliasDeltaEncode(start_nodes + 1, &w);
  if (write_rule != nullptr) write_rule(&w);
  EliasDeltaEncode(1, &w);  // no permutations
  w.PutBit(true);           // label 0 present
  K2Tree::Build(tree_size, tree_size, cells).Serialize(&w);
  EliasDeltaEncode(1, &w);  // no duplicate cells
  if (num_rules > 0) w.PutBit(false);  // the rule's label: absent
  return w.TakeBytes();
}

TEST(StartCellTest, DecodesHonestCells) {
  auto decoded = DecodeGrammar(GrammarWithCells(3, 3, {{0, 1}, {2, 0}}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Terminal rank-2 cells decode into the start adjacency.
  EXPECT_EQ(decoded.value().start().num_edges(), 0u);
  const Hypergraph start = WholeStartGraph(decoded.value());
  ASSERT_EQ(start.num_edges(), 2u);
  EXPECT_TRUE(start.edge(0).att == Attachments({0, 1}));
  EXPECT_TRUE(start.edge(1).att == Attachments({2, 0}));
  EXPECT_TRUE(decoded.value().Validate().ok());
}

TEST(StartCellTest, RejectsADiagonalCell) {
  // The encoder writes what it is given: a start graph with the
  // self-loop (2,2) puts a cell on the diagonal. Before the decoder
  // checked cells, this failed InvalidArgument from Validate.
  Alphabet alphabet;
  alphabet.Add("e", 2);
  Hypergraph start(3);
  start.AddSimpleEdge(0, 1, 0);
  start.AddSimpleEdge(2, 2, 0);
  SlhrGrammar grammar(std::move(alphabet), std::move(start));
  const std::vector<uint8_t> bytes = EncodeGrammar(grammar);
  EXPECT_EQ(bytes, GrammarWithCells(3, 3, {{0, 1}, {2, 2}}));
  ExpectCorrupt(bytes, "cell (2,2)");
}

TEST(StartCellTest, RejectsACellBeyondTheStartNodes) {
  // A 4 x 4 tree over 2 start nodes: (0,3) is inside the tree, so
  // the tree's own padding check passes it, but node 3 does not
  // exist. Before the decoder checked cells, this failed
  // InvalidArgument from Validate.
  ExpectCorrupt(GrammarWithCells(2, 4, {{0, 3}}), "column 3 of 2 nodes");
  ExpectCorrupt(GrammarWithCells(2, 4, {{3, 0}}), "row 3 of 2 nodes");
  // The same tree over 4 start nodes is honest.
  EXPECT_TRUE(DecodeGrammar(GrammarWithCells(4, 4, {{0, 3}})).ok());
}

TEST(StartCellTest, RejectsRulesThatFailTheirChecks) {
  // Rule checks run after decoding and fail Corruption too. A rank-2
  // rule over 2 nodes whose one terminal edge attaches node 0 twice:
  // each id is in range, only restriction (1) breaks.
  auto twice = [](BitWriter* w) {
    EliasDeltaEncode(2, w);  // one edge
    EliasDeltaEncode(3, w);  // two nodes
    EliasDeltaEncode(3, w);  // rank 2
    w->PutBit(false);        // terminal
    EliasDeltaEncode(2, w);  // two attachments
    for (int a = 0; a < 2; ++a) {
      w->PutBit(true);         // external
      EliasDeltaEncode(1, w);  // node 0
    }
    EliasDeltaEncode(1, w);  // label 0
  };
  ExpectCorrupt(GrammarWithCells(3, 3, {{0, 1}}, twice), "att 0, 0");
  // A rule that references itself breaks the bottom-up order.
  auto cyclic = [](BitWriter* w) {
    EliasDeltaEncode(2, w);  // one edge
    EliasDeltaEncode(3, w);  // two nodes
    EliasDeltaEncode(3, w);  // rank 2
    w->PutBit(true);         // nonterminal
    EliasDeltaEncode(2, w);  // two attachments
    for (uint64_t v : {1, 2}) {
      w->PutBit(true);  // external
      EliasDeltaEncode(v, w);
    }
    EliasDeltaEncode(2, w);  // label 1, this rule
  };
  ExpectCorrupt(GrammarWithCells(3, 3, {{0, 1}}, cyclic), "self-reference");
}

// A grepair payload with no node mapping around a grammar of one
// rank-2 terminal over 4 start nodes, whose only k^2-tree holds (0,3)
// and (1,0), followed by the dup patches `dups`: (cell rank, extra
// edges) pairs, ranks counted from 1 in row-major order. The tree's
// level order lists (1,0) first, row-major order (0,3).
std::vector<uint8_t> PayloadWithDups(
    const std::vector<std::pair<uint64_t, uint64_t>>& dups) {
  BitWriter w;
  w.PutBits(0x47524732, 32);  // "GRG2"
  EliasDeltaEncode(2, &w);    // one terminal label
  EliasDeltaEncode(2, &w);    // ... of rank 2
  EliasDeltaEncode(1, &w);    // no rules
  EliasDeltaEncode(5, &w);    // 4 start nodes
  EliasDeltaEncode(1, &w);    // no permutations
  w.PutBit(true);             // label 0 present
  K2Tree::Build(4, 4, {{0, 3}, {1, 0}}).Serialize(&w);
  EliasDeltaEncode(dups.size() + 1, &w);
  for (const auto& [rank, extra] : dups) {
    EliasDeltaEncode(rank, &w);
    EliasDeltaEncode(extra, &w);
  }
  const std::vector<uint8_t> grammar = w.TakeBytes();
  std::vector<uint8_t> payload = {0};
  PutU64LE(grammar.size(), &payload);
  payload.insert(payload.end(), grammar.begin(), grammar.end());
  return payload;
}

TEST(DupPatchTest, PatchesExpandToParallelEdges) {
  // Rank 1 is (0,3), the row-major first cell, not the level-order one.
  auto g = CompressedGraph::Deserialize(SpanOf(PayloadWithDups({{1, 2}})));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_edges(), 4u);
  const StartAdjacency& csr = g.value().grammar().start_adjacency();
  const StartAdjacency::Row row = csr.Targets(0);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{3, 3, 3}));
  const StartAdjacency::Row single = csr.Targets(1);
  EXPECT_EQ(std::vector<NodeId>(single.begin(), single.end()),
            (std::vector<NodeId>{0}));
  EXPECT_EQ(g.value().OutNeighbors(0), (std::vector<uint64_t>{3}));
  EXPECT_EQ(g.value().InNeighbors(3), (std::vector<uint64_t>{0}));
  // Re-encoding writes the same patch.
  EXPECT_EQ(g.value().Serialize(), PayloadWithDups({{1, 2}}));
}

TEST(DupPatchTest, RankPastTheLabelsCellsFailsClosed) {
  // The label has 2 distinct cells; rank 3 names none of them.
  auto g = shard::DecodeShardPayload(SpanOf(PayloadWithDups({{3, 1}})));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(g.status().message(), "bad dup cell");
}

TEST(DupPatchTest, PatchesPastTheDupBudgetFailClosed) {
  // Exactly kMaxDupEdges extra edges over two patches fit the budget;
  // one more fails, whether in one patch or spread over two.
  auto fits = CompressedGraph::Deserialize(
      SpanOf(PayloadWithDups({{1, kMaxDupEdges - 1}, {2, 1}})));
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().num_edges(), 2 + kMaxDupEdges);
  for (const auto& dups :
       {std::vector<std::pair<uint64_t, uint64_t>>{{1, kMaxDupEdges + 1}},
        std::vector<std::pair<uint64_t, uint64_t>>{{1, kMaxDupEdges},
                                                   {2, 1}},
        std::vector<std::pair<uint64_t, uint64_t>>{{1, ~uint64_t{0}}}}) {
    auto g = shard::DecodeShardPayload(SpanOf(PayloadWithDups(dups)));
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(g.status().message(), "edge multiplicity overflow");
  }
}

TEST(RetiredPayloadTest, V1PayloadFailsClosedWithRecompress) {
  const std::vector<uint8_t> v1 = fuzz::RetiredV1GrepairPayload();
  auto graph = CompressedGraph::Deserialize(v1);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().message().find("recompress"), std::string::npos)
      << graph.status().ToString();
}

}  // namespace
}  // namespace grepair
