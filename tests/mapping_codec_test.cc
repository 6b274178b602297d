// Round-trip and fail-closed tests for the psi' node-mapping
// serialization (the flat origin array, see grammar_coder.h).

#include <gtest/gtest.h>

#include "fuzz/golden_seeds.h"
#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"
#include "src/util/bit_stream.h"
#include "src/util/elias.h"

namespace grepair {
namespace {

CompressResult CompressTracked(const GeneratedGraph& gg) {
  CompressOptions options;
  options.track_node_mapping = true;
  auto result = Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

// The mapping format written out by hand: |V_S| + 1, then id + 1 for
// every entry of `ids`.
std::vector<uint8_t> RawMapping(uint64_t start_nodes,
                                const std::vector<uint64_t>& ids) {
  BitWriter w;
  EliasDeltaEncode(start_nodes + 1, &w);
  for (uint64_t id : ids) EliasDeltaEncode(id + 1, &w);
  return w.TakeBytes();
}

void CheckMappingRoundTrip(const GeneratedGraph& gg) {
  CompressResult result = CompressTracked(gg);
  const SlhrGrammar& grammar = result.grammar;

  auto bytes = EncodeNodeMapping(grammar, result.origins);
  auto decoded = DecodeNodeMapping(grammar, ComputeValSize(grammar).nodes,
                                   SpanOf(bytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The decoded mapping agrees entry-for-entry with the in-memory one.
  EXPECT_EQ(decoded.value(), result.origins);
  // The layout is the header plus every origin in val(G) id order.
  std::vector<uint64_t> ids(result.origins.begin(), result.origins.end());
  EXPECT_EQ(bytes, RawMapping(grammar.start().num_nodes(), ids));

  // And it reconstructs the exact original graph.
  auto original = DeriveOriginal(grammar, decoded.value());
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
  Result<std::vector<NodeId>> Decode(const std::vector<uint8_t>& bytes) {
    return DecodeNodeMapping(result_.grammar,
                             ComputeValSize(result_.grammar).nodes,
                             SpanOf(bytes));
  }
  uint64_t start_nodes() const { return result_.grammar.start().num_nodes(); }

  CompressResult result_;
  std::vector<uint64_t> ids_;
  uint64_t n_ = 0;
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
  EXPECT_EQ(decoded.value(), result_.origins);
}

TEST_F(MappingCodecTest, RejectsStartNodeCountMismatch) {
  EXPECT_FALSE(Decode(RawMapping(start_nodes() + 1, ids_)).ok());
  EXPECT_FALSE(Decode(RawMapping(start_nodes() - 1, ids_)).ok());
}

TEST_F(MappingCodecTest, RejectsIdOutOfRange) {
  for (uint64_t bad : {n_, n_ + 1, uint64_t{1} << 32, (uint64_t{1} << 40)}) {
    std::vector<uint64_t> ids = ids_;
    ids[ids.size() / 2] = bad;
    auto decoded = Decode(RawMapping(start_nodes(), ids));
    EXPECT_FALSE(decoded.ok()) << "id " << bad;
  }
}

TEST_F(MappingCodecTest, RejectsDuplicateId) {
  std::vector<uint64_t> ids = ids_;
  ids[1] = ids[0];
  auto decoded = Decode(RawMapping(start_nodes(), ids));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
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

}  // namespace
}  // namespace grepair
