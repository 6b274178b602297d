// Bounded-budget fuzzing of the parsers a hostile network peer can
// reach: the GRNF wire-frame parser and the GRSHARD2 directory parser
// (the bytes a shard server ships at connect time), the grepair shard
// payload parser (the bytes a shard fault decodes), the GRSHARD3 delta
// container parser (the files a versioned open applies), the edit-text
// reader behind `grepair append --edits`, the graph-text reader behind
// `grepair compress`, the tagged GRPCODEC frame every file open parses
// first, plus the bit-stream/Elias decode differential. The invariant
// checks and the golden seeds are shared with the coverage-guided
// libFuzzer targets (fuzz/fuzz_checks.h, fuzz/golden_seeds.h), so this
// always-on ctest battery and the long-running fuzzers can never drift
// apart; each iteration mutates a seed (bit flips, truncations,
// extensions, splices) and asserts the shared invariants — parsers
// either succeed or fail with a clean, non-empty Status, never crash,
// hang, or over-read (the ASan/UBSan CI leg is the memory-safety
// oracle).
// Budgets are fixed and small enough for ctest.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "fuzz/fuzz_checks.h"
#include "fuzz/golden_seeds.h"
#include "src/api/grepair_api.h"
#include "src/net/frame.h"
#include "src/serve/stats.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

// Deterministic mutation: 1-8 havoc steps over a copy of `seed`.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& seed, Rng* rng) {
  std::vector<uint8_t> bytes = seed;
  int steps = 1 + static_cast<int>(rng->UniformBounded(8));
  for (int s = 0; s < steps; ++s) {
    switch (rng->UniformBounded(4)) {
      case 0:  // bit flip
        if (!bytes.empty()) {
          size_t i = rng->UniformBounded(bytes.size());
          bytes[i] ^= static_cast<uint8_t>(1u << rng->UniformBounded(8));
        }
        break;
      case 1:  // truncate
        if (!bytes.empty()) {
          bytes.resize(rng->UniformBounded(bytes.size()));
        }
        break;
      case 2: {  // extend with noise
        size_t n = 1 + rng->UniformBounded(16);
        for (size_t i = 0; i < n; ++i) {
          bytes.push_back(static_cast<uint8_t>(rng->UniformBounded(256)));
        }
        break;
      }
      default:  // overwrite a run
        if (!bytes.empty()) {
          size_t at = rng->UniformBounded(bytes.size());
          size_t n = 1 + rng->UniformBounded(8);
          for (size_t i = at; i < bytes.size() && i < at + n; ++i) {
            bytes[i] = static_cast<uint8_t>(rng->UniformBounded(256));
          }
        }
        break;
    }
  }
  return bytes;
}

// The shared checks return nullptr when every invariant holds, or a
// description of the first violation (see fuzz/fuzz_checks.h).
void CheckFrameParse(ByteSpan bytes) {
  const char* violated = fuzz::CheckFrameParse(bytes);
  EXPECT_TRUE(violated == nullptr) << violated;
}

void CheckDirectoryParse(ByteSpan dir, uint64_t dir_off) {
  const char* violated = fuzz::CheckDirectoryParse(dir, dir_off);
  EXPECT_TRUE(violated == nullptr) << violated;
}

TEST(NetFuzzTest, FrameParserSurvivesMutation) {
  std::vector<std::vector<uint8_t>> seeds = fuzz::GoldenFrameSeeds();
  // Golden path first: every v2 seed decodes to itself, and the
  // retired v1 seed fails closed.
  for (const auto& seed : seeds) {
    size_t consumed = 0;
    auto frame = net::DecodeFrame(SpanOf(seed), &consumed);
    if (seed[4] != net::kProtoV2) {
      ASSERT_FALSE(frame.ok());
      EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
      continue;
    }
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(consumed, seed.size());
  }
  Rng rng(0xFEEDF00D);
  for (int iter = 0; iter < 3000; ++iter) {
    const auto& seed = seeds[rng.UniformBounded(seeds.size())];
    auto mutated = Mutate(seed, &rng);
    CheckFrameParse(SpanOf(mutated));
  }
  // Pure noise, including the empty buffer.
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<uint8_t> noise(rng.UniformBounded(64));
    for (auto& b : noise) {
      b = static_cast<uint8_t>(rng.UniformBounded(256));
    }
    CheckFrameParse(SpanOf(noise));
  }
}

TEST(NetFuzzTest, OnlyVersionTwoAndItsTypesDecode) {
  // Every version byte other than 2, and every type outside
  // kHello..kError2, is corruption even with a valid checksum (a
  // conforming peer never sends it).
  auto hello = net::EncodeFrame(net::kHello, ByteSpan{});
  for (int version = 0; version < 256; ++version) {
    auto bytes = fuzz::WithFrameHeader(hello, static_cast<uint8_t>(version),
                                       net::kHello);
    auto frame = net::DecodeFrame(SpanOf(bytes));
    if (version == net::kProtoV2) {
      EXPECT_TRUE(frame.ok()) << frame.status().ToString();
      continue;
    }
    ASSERT_FALSE(frame.ok()) << "version " << version;
    EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
  }
  for (int type = 0; type < 256; ++type) {
    auto bytes = fuzz::WithFrameHeader(hello, net::kProtoV2,
                                       static_cast<uint8_t>(type));
    auto frame = net::DecodeFrame(SpanOf(bytes));
    if (type >= net::kHello && type <= net::kError2) {
      EXPECT_TRUE(frame.ok()) << frame.status().ToString();
      continue;
    }
    ASSERT_FALSE(frame.ok()) << "type " << type;
    EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
  }
}

TEST(NetFuzzTest, ErrorBodyDecodersSurviveNoise) {
  Rng rng(0xABCD1234);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> body(rng.UniformBounded(48));
    for (auto& b : body) {
      b = static_cast<uint8_t>(rng.UniformBounded(256));
    }
    uint64_t req_id = 0;
    Status decoded = net::DecodeErrorBody2(SpanOf(body), &req_id);
    EXPECT_FALSE(decoded.ok());  // an error frame is never OK
    EXPECT_FALSE(decoded.message().empty());
  }
}

TEST(NetFuzzTest, StatsBodyDecoderSurvivesMutation) {
  // Golden stats body: two corpora with histograms.
  serve::ServerStatsSnapshot snapshot;
  snapshot.connections = 3;
  snapshot.requests = 17;
  snapshot.bytes_sent = 4096;
  snapshot.errors = 1;
  snapshot.corpora.resize(2);
  snapshot.corpora[0].name = "web";
  snapshot.corpora[0].inner_name = "grepair";
  snapshot.corpora[0].num_nodes = 1000;
  snapshot.corpora[0].requests = 12;
  snapshot.corpora[0].histogram_epoch = 12;
  snapshot.corpora[0].shard_hits = {4, 0, 8};
  snapshot.corpora[1].name = "cite";
  snapshot.corpora[1].inner_name = "k2";
  snapshot.corpora[1].num_nodes = 50;
  snapshot.corpora[1].requests = 5;
  snapshot.corpora[1].histogram_epoch = 5;
  snapshot.corpora[1].shard_hits = {5};
  auto body = serve::EncodeStatsBody(9, snapshot);

  // Golden round-trip.
  uint64_t req_id = 0;
  auto decoded = serve::DecodeStatsBody(SpanOf(body), &req_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(req_id, 9u);
  ASSERT_EQ(decoded.value().corpora.size(), 2u);
  EXPECT_EQ(decoded.value().corpora[0].name, "web");
  EXPECT_EQ(decoded.value().corpora[0].histogram_epoch, 12u);
  EXPECT_EQ(decoded.value().corpora[0].shard_hits,
            (std::vector<uint64_t>{4, 0, 8}));
  EXPECT_EQ(decoded.value().corpora[1].shard_hits,
            (std::vector<uint64_t>{5}));

  Rng rng(0x57A75BAD);
  for (int iter = 0; iter < 2000; ++iter) {
    auto mutated = Mutate(body, &rng);
    auto parsed = serve::DecodeStatsBody(SpanOf(mutated), nullptr);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
  // Pure noise.
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<uint8_t> noise(rng.UniformBounded(96));
    for (auto& b : noise) {
      b = static_cast<uint8_t>(rng.UniformBounded(256));
    }
    auto parsed = serve::DecodeStatsBody(SpanOf(noise), nullptr);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(NetFuzzTest, DirectoryParserSurvivesMutation) {
  auto container = fuzz::GoldenContainerBytes(50, 3, 61);
  auto parsed = shard::ParseContainer(SpanOf(container));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const uint64_t dir_off = parsed.value().dir_off;
  std::vector<uint8_t> dir(parsed.value().region.begin(),
                           parsed.value().region.end());

  // Golden path parses.
  CheckDirectoryParse(SpanOf(dir), dir_off);
  ASSERT_TRUE(shard::ParseV2Directory(SpanOf(dir), dir_off).ok());

  // Exhaustive single-bit-flip sweep over the whole directory: what a
  // one-bit lie from a server (past the frame checksum) could look
  // like.
  for (size_t i = 0; i < dir.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = dir;
      flipped[i] ^= static_cast<uint8_t>(1u << bit);
      CheckDirectoryParse(SpanOf(flipped), dir_off);
    }
  }
  // Every truncation length.
  for (size_t len = 0; len < dir.size(); ++len) {
    CheckDirectoryParse(ByteSpan(dir.data(), len), dir_off);
  }
  // Havoc mutations, including a lying dir_off.
  Rng rng(0x600DD1E5);
  for (int iter = 0; iter < 2000; ++iter) {
    auto mutated = Mutate(dir, &rng);
    uint64_t off = rng.Bernoulli(0.5)
                       ? dir_off
                       : rng.UniformBounded(2 * container.size() + 1);
    CheckDirectoryParse(SpanOf(mutated), off);
  }
}

TEST(NetFuzzTest, WholeContainerMutationStaysFailClosed) {
  auto container = fuzz::GoldenContainerBytes(50, 3, 61);
  Rng rng(0xC0FFEE11);
  for (int iter = 0; iter < 800; ++iter) {
    auto mutated = Mutate(container, &rng);
    // The full open path: locate + checksum + parse. Either a clean
    // failure or a container consistent enough to open (payload
    // corruption is then caught at fault time by the shard checksums,
    // pinned by lazy_open_test).
    auto rep = shard::ShardedRep::Deserialize(SpanOf(mutated));
    if (!rep.ok()) {
      EXPECT_FALSE(rep.status().message().empty());
    }
  }
}

TEST(NetFuzzTest, GrepairPayloadParserSurvivesMutation) {
  // fuzz/grepair_payload_fuzzer.cc runs the same check coverage-guided.
  const auto seeds = fuzz::GoldenGrepairPayloadSeeds();
  // Golden path: the other payloads decode; the DoublingGrammar seed,
  // whose val(G) counts wrap uint64_t, fails closed.
  const size_t kWrapping = 3;
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto graph = CompressedGraph::Deserialize(SpanOf(seeds[i]));
    EXPECT_EQ(graph.ok(), i != kWrapping) << "seed " << i;
    const char* violated =
        fuzz::CheckGrepairPayload(seeds[i].data(), seeds[i].size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
  Rng rng(0x6AA1D5EE);
  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated = Mutate(seeds[rng.UniformBounded(seeds.size())], &rng);
    const char* violated =
        fuzz::CheckGrepairPayload(mutated.data(), mutated.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
}

TEST(NetFuzzTest, DeltaContainerParserSurvivesMutation) {
  // fuzz/delta_container_fuzzer.cc runs the same check coverage-guided.
  const auto seeds = fuzz::GoldenDeltaSeeds();
  // Golden path: the two real deltas decode; the sealed one whose add
  // run is unsorted fails closed.
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto delta = shard::DecodeDeltaContainer(SpanOf(seeds[i]));
    EXPECT_EQ(delta.ok(), i + 1 < seeds.size()) << "seed " << i;
    const char* violated =
        fuzz::CheckDeltaContainerInput(seeds[i].data(), seeds[i].size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
  Rng rng(0xDE17A5EE);
  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated = Mutate(seeds[rng.UniformBounded(seeds.size())], &rng);
    const char* violated =
        fuzz::CheckDeltaContainerInput(mutated.data(), mutated.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
}

TEST(NetFuzzTest, EditTextParserSurvivesMutation) {
  // fuzz/edits_text_fuzzer.cc runs the same check coverage-guided.
  const auto seeds = fuzz::GoldenEditTextSeeds();
  std::vector<std::vector<uint8_t>> seed_bytes;
  // Golden path: the first three texts parse, the four refused shapes
  // fail on their first line.
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto edits = shard::ParseEditText(seeds[i]);
    EXPECT_EQ(edits.ok(), i < 3) << "seed " << i;
    if (!edits.ok()) {
      EXPECT_EQ(edits.status().message().rfind("line 1: ", 0), 0u)
          << edits.status().message();
    }
    seed_bytes.emplace_back(seeds[i].begin(), seeds[i].end());
    const char* violated = fuzz::CheckEditTextParse(seed_bytes.back().data(),
                                                    seed_bytes.back().size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
  Rng rng(0xED175EED);
  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated =
        Mutate(seed_bytes[rng.UniformBounded(seed_bytes.size())], &rng);
    const char* violated =
        fuzz::CheckEditTextParse(mutated.data(), mutated.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
}

TEST(NetFuzzTest, GraphTextParserSurvivesMutation) {
  // fuzz/graph_text_fuzzer.cc runs the same check coverage-guided.
  const auto seeds = fuzz::GoldenGraphTextSeeds();
  std::vector<std::vector<uint8_t>> seed_bytes;
  // Golden path: the first four texts parse, the six refused shapes
  // fail.
  for (size_t i = 0; i < seeds.size(); ++i) {
    std::istringstream in(seeds[i]);
    EXPECT_EQ(ParseGraphText(in).ok(), i < 4) << "seed " << i;
    seed_bytes.emplace_back(seeds[i].begin(), seeds[i].end());
    const char* violated = fuzz::CheckGraphTextParse(seed_bytes.back().data(),
                                                     seed_bytes.back().size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
  Rng rng(0x6A7E7E47);
  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated =
        Mutate(seed_bytes[rng.UniformBounded(seed_bytes.size())], &rng);
    const char* violated =
        fuzz::CheckGraphTextParse(mutated.data(), mutated.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
}

TEST(NetFuzzTest, CodecFrameParserSurvivesMutation) {
  // fuzz/codec_frame_fuzzer.cc runs the same check coverage-guided.
  const auto seeds = fuzz::GoldenCodecFrameSeeds();
  // Golden path: the sharded:grepair frame unwraps; the sharded:k2 one
  // is kNotFound, an old single-codec tag and the untagged bytes are
  // kInvalidArgument, the three cut frames kCorruption.
  const StatusCode expected[] = {
      StatusCode::kOk,          StatusCode::kNotFound,
      StatusCode::kInvalidArgument, StatusCode::kInvalidArgument,
      StatusCode::kCorruption,  StatusCode::kCorruption,
      StatusCode::kCorruption,
  };
  ASSERT_EQ(seeds.size(), std::size(expected));
  for (size_t i = 0; i < seeds.size(); ++i) {
    ByteSpan payload;
    Status unwrapped =
        api::UnwrapShardedPayload("seed", SpanOf(seeds[i]), &payload);
    EXPECT_EQ(unwrapped.code(), expected[i])
        << "seed " << i << ": " << unwrapped.ToString();
    const char* violated =
        fuzz::CheckCodecFrameParse(seeds[i].data(), seeds[i].size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
  Rng rng(0xC0DECF4A);
  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated = Mutate(seeds[rng.UniformBounded(seeds.size())], &rng);
    const char* violated =
        fuzz::CheckCodecFrameParse(mutated.data(), mutated.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
}

TEST(NetFuzzTest, EliasDifferentialSurvivesMutation) {
  // The fuzzer-shared differential: the word-at-a-time bit-stream and
  // Elias decoders must agree with their scalar oracles — values,
  // statuses and cursor positions — on every input, valid or corrupt
  // (fuzz/elias_stream_fuzzer.cc runs the same check coverage-guided).
  BitWriter w;
  for (uint64_t v = 1; v <= 200; ++v) EliasDeltaEncode(v, &w);
  for (int s = 0; s < 64; ++s) EliasGammaEncode(1ull << s, &w);
  const std::vector<uint8_t> seed = w.TakeBytes();

  const char* golden = fuzz::CheckEliasDifferential(seed.data(), seed.size());
  EXPECT_TRUE(golden == nullptr) << golden;

  Rng rng(0xD1FFD1FF);
  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated = Mutate(seed, &rng);
    const char* violated =
        fuzz::CheckEliasDifferential(mutated.data(), mutated.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
  // Pure noise, including the empty buffer.
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> noise(rng.UniformBounded(48));
    for (auto& b : noise) {
      b = static_cast<uint8_t>(rng.UniformBounded(256));
    }
    const char* violated =
        fuzz::CheckEliasDifferential(noise.data(), noise.size());
    EXPECT_TRUE(violated == nullptr) << violated;
  }
}

}  // namespace
}  // namespace grepair
