// Golden-file format-stability tests for the container formats: the
// backend-tagged frame ("GRPCODEC", src/api/container.h) and the
// sharded multi-shard container ("GRSHARD2", footer directory;
// src/shard/container.h). Two retired file kinds survive only as
// negative fixtures that must fail closed everywhere: the eager
// "GRSHARD1" layout and the single-codec file (a frame tagged with a
// plain codec name around an unchecked payload), which `compress`
// wrote before every file became a sharded container. Files whose
// directory names a deleted inner codec (hn, deflate) are negative
// fixtures too.
//
// The golden byte arrays below are checked-in fixtures. If one of
// these tests fails after an intentional format change, do NOT update
// the bytes in place: bump the container magic/version and add a new
// fixture, so old files fail loudly with a version error instead of
// misparsing. The corruption sweeps additionally
// pin the untrusted-input contract: truncated or bit-flipped
// containers yield a clean error Status (or a still-consistent rep),
// never a crash — the CI sanitizer matrix runs these sweeps under
// ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "src/api/grepair_api.h"
#include "src/serve/registry.h"
#include "src/util/byte_io.h"
#include "src/util/elias.h"
#include "src/util/hashing.h"

namespace grepair {
namespace {

// The fixture graph: a directed 6-cycle over one rank-2 label.
Hypergraph FixtureGraph() {
  Hypergraph g(6);
  for (NodeId v = 0; v < 6; ++v) g.AddSimpleEdge(v, (v + 1) % 6, 0);
  return g;
}

Alphabet FixtureAlphabet() {
  Alphabet alphabet;
  alphabet.Add("e", 2);
  return alphabet;
}

// The sharded:k2 fixture below in the retired eager "GRSHARD1" layout
// (node maps and payloads interleaved). Nothing reads it any more: it
// is kept only to prove that such files fail closed.
const uint8_t kRetiredShardedV1Container[] = {
    // "GRSHARD1" magic (version byte last)
    0x47, 0x52, 0x53, 0x48, 0x41, 0x52, 0x44, 0x31,
    // inner codec name: len 2, "k2"
    0x02, 0x6B, 0x32,
    // u64 global node count = 6
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    // u32 shard count = 3 (2 data shards + cut shard)
    0x03, 0x00, 0x00, 0x00,
    // shard 0: node map {0,1,2,3}, 8-byte k2 payload
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xF0,
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x6A, 0x51, 0xAD, 0x63, 0x49, 0x75, 0x09, 0x00,
    // shard 1: node map {0,3,4,5}, 8-byte k2 payload
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xAE,
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x6A, 0x51, 0xAD, 0x63, 0x49, 0x5C, 0x89, 0x00,
    // cut shard: empty node map, empty payload
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
};

// WrapCodecPayload("grepair", {DE AD BE EF}).
const uint8_t kGoldenTaggedContainer[] = {
    0x47, 0x52, 0x50, 0x43, 0x4F, 0x44, 0x45, 0x43,  // "GRPCODEC"
    0x07, 0x67, 0x72, 0x65, 0x70, 0x61, 0x69, 0x72,  // len 7, "grepair"
    0xDE, 0xAD, 0xBE, 0xEF,                          // payload
};

// A single-codec file: `grepair compress` of FixtureGraph() (as text)
// before every file became a sharded container. The frame is tagged
// "grepair" and holds a bare grammar payload with no checksum.
const uint8_t kRetiredSingleCodecFile[] = {
    0x47, 0x52, 0x50, 0x43, 0x4F, 0x44, 0x45, 0x43,  // "GRPCODEC"
    0x07, 0x67, 0x72, 0x65, 0x70, 0x61, 0x69, 0x72,  // len 7, "grepair"
    0x01, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x47, 0x52,
    0x47, 0x31, 0x44, 0x46, 0x2B, 0x14, 0x99, 0x64, 0x2D, 0x35, 0x18,
    0xC6, 0x34, 0x97, 0x90, 0xA2, 0x62, 0x31, 0xCA, 0xD8,
};

// `grepair compress --backend hn` and `--backend deflate` of
// FixtureGraph() (as text), written before the size-only baselines and
// the deflate codec left the registry: well-formed GRSHARD2 files
// whose directory names an inner codec that no longer exists.
const uint8_t kRetiredHnFile[] = {
    0x47, 0x52, 0x50, 0x43, 0x4F, 0x44, 0x45, 0x43, 0x0A, 0x73, 0x68, 0x61,
    0x72, 0x64, 0x65, 0x64, 0x3A, 0x68, 0x6E, 0x47, 0x52, 0x53, 0x48, 0x41,
    0x52, 0x44, 0x32, 0x06, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0C,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7B, 0xD1, 0xEF, 0x79, 0x54,
    0xB3, 0xFA, 0x51, 0x08, 0x48, 0x44, 0x80, 0x02, 0x68, 0x6E, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x3A, 0x2E, 0xB8, 0x31, 0x0D, 0xCA, 0xD8, 0xDB, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xFC, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x30,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x58, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xE5, 0x6B, 0x43, 0x64, 0x39, 0xF2, 0x63, 0x5B,
};

const uint8_t kRetiredDeflateFile[] = {
    0x47, 0x52, 0x50, 0x43, 0x4F, 0x44, 0x45, 0x43, 0x0F, 0x73, 0x68, 0x61,
    0x72, 0x64, 0x65, 0x64, 0x3A, 0x64, 0x65, 0x66, 0x6C, 0x61, 0x74, 0x65,
    0x47, 0x52, 0x53, 0x48, 0x41, 0x52, 0x44, 0x32, 0x06, 0x00, 0x00, 0x00,
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x78, 0xDA, 0xAB, 0x52,
    0xFE, 0xB2, 0xE8, 0xEA, 0x34, 0xB3, 0xEB, 0xB1, 0x00, 0x19, 0x11, 0x05,
    0x09, 0x07, 0x64, 0x65, 0x66, 0x6C, 0x61, 0x74, 0x65, 0x06, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x1D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x6E, 0x51, 0x30, 0x72, 0xB9, 0x8A, 0x6B, 0x10, 0x06, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xFC, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5D, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xDD, 0x88, 0x6E, 0x5D, 0x1C, 0xDC, 0xC2, 0x18,
};

std::vector<uint8_t> RetiredShardedV1() {
  return std::vector<uint8_t>(
      kRetiredShardedV1Container,
      kRetiredShardedV1Container + sizeof(kRetiredShardedV1Container));
}

// SerializeV2() of sharded:k2, shards=2, threads=1, edge-range over
// FixtureGraph(): payload blobs after the magic, footer directory
// (name, counts, per-shard offset/length/checksum/node map), 24-byte
// trailer (directory offset/length/checksum). Change only with a
// magic bump.
const uint8_t kGoldenShardedV2Container[] = {
    0x47, 0x52, 0x53, 0x48, 0x41, 0x52, 0x44, 0x32, 0x6A, 0x51, 0xAD, 0x63,
    0x49, 0x75, 0x09, 0x00, 0x6A, 0x51, 0xAD, 0x63, 0x49, 0x5C, 0x89, 0x00,
    0x02, 0x6B, 0x32, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xAD, 0x00, 0x37, 0xC1, 0x5B,
    0x39, 0x5F, 0x88, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0xF0, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x68, 0x24, 0x52, 0x8F,
    0xFB, 0xD9, 0x2F, 0x81, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0xAE, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x7D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x57, 0x5D, 0xAF,
    0xCD, 0x7E, 0x0B, 0xF0, 0x2F,
};

// The same fixture as sharded:k2, shards=2, written by the retired
// greedy-BFS partitioner: data shards {0,1,5} and {2,3,4}, and a last
// shard holding the two edges between them (1->2, 4->5) over nodes
// {1,2,4,5}. Nothing writes such files any more; they must still open
// and route every shard alike.
const uint8_t kPopulatedLastShardContainer[] = {
    0x47, 0x52, 0x53, 0x48, 0x41, 0x52, 0x44, 0x32, 0x62, 0x51, 0x8C, 0x56,
    0x90, 0xD2, 0x40, 0x62, 0x51, 0x8C, 0x56, 0x90, 0xE2, 0x10, 0x6A, 0x51,
    0xAD, 0x56, 0x90, 0xCA, 0x20, 0x02, 0x6B, 0x32, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xD9, 0x18, 0x46, 0xC9, 0xA5, 0x4C, 0x41, 0xD3, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xD8, 0x0F, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xC3, 0xE2, 0x6D, 0xA1, 0x7F, 0x28, 0x29, 0xF8, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x5C, 0x16, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xE1, 0xBE, 0x23, 0x6B, 0x77, 0x5C, 0x40, 0xA6, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x4A, 0x40,
    0x1D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7F, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x1E, 0x58, 0xA8, 0xB0, 0x2B, 0x2C, 0x2E, 0xEF,
};

std::vector<uint8_t> GoldenShardedV2() {
  return std::vector<uint8_t>(
      kGoldenShardedV2Container,
      kGoldenShardedV2Container + sizeof(kGoldenShardedV2Container));
}

TEST(TaggedContainerTest, GoldenBytesAreStable) {
  auto bytes = api::WrapCodecPayload("grepair", {0xDE, 0xAD, 0xBE, 0xEF});
  ASSERT_EQ(bytes.size(), sizeof(kGoldenTaggedContainer));
  EXPECT_EQ(0, std::memcmp(bytes.data(), kGoldenTaggedContainer,
                           bytes.size()))
      << "tagged container layout drifted; bump the magic instead of "
         "changing the frame";

  std::string name;
  ByteSpan payload;
  ASSERT_TRUE(api::UnwrapCodecPayloadView(SpanOf(bytes), &name, &payload).ok());
  EXPECT_EQ(name, "grepair");
  EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()),
            std::vector<uint8_t>({0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(TaggedContainerTest, NonContainerAndTruncatedInputsFailCleanly) {
  std::string name;
  ByteSpan payload;
  // Bytes without the magic are InvalidArgument (not a tagged
  // container at all), distinct from a damaged frame.
  std::vector<uint8_t> raw = {0x01, 0x02, 0x03};
  EXPECT_FALSE(api::IsCodecContainer(SpanOf(raw)));
  auto status = api::UnwrapCodecPayloadView(SpanOf(raw), &name, &payload);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Truncations inside the frame are Corruption.
  auto good = api::WrapCodecPayload("grepair", {0xDE, 0xAD});
  for (size_t len = 8; len < 16; ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    auto cut_status =
        api::UnwrapCodecPayloadView(SpanOf(cut), &name, &payload);
    EXPECT_FALSE(cut_status.ok()) << "length " << len;
    if (api::IsCodecContainer(SpanOf(cut))) {
      EXPECT_EQ(cut_status.code(), StatusCode::kCorruption)
          << "length " << len;
    }
  }
}

TEST(ShardedContainerTest, VersionDriftFailsLoudly) {
  auto bytes = GoldenShardedV2();
  bytes[7] = '3';  // a future container version
  auto rep = shard::ShardedRep::Deserialize(bytes);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption);
  EXPECT_NE(rep.status().message().find("version"), std::string::npos)
      << rep.status().ToString();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "grepair_format_" +
         std::to_string(::getpid()) + "_" + name;
}

TEST(ShardedContainerTest, RetiredV1ContainerFailsClosedEverywhere) {
  // The retired GRSHARD1 bytes, and every truncation of them, must be
  // refused by each entry point that takes container bytes: the rep
  // parser, a tagged file opened through the api, the directory
  // inspector, and the serving registry.
  auto codec = api::CodecRegistry::Create("sharded:k2").ValueOrDie();
  std::string path = TempPath("v1.bin");
  auto good = RetiredShardedV1();
  for (size_t len = 0; len <= good.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    auto rep = shard::ShardedRep::Deserialize(cut);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kCorruption);
    EXPECT_FALSE(codec->Deserialize(cut).ok());
    EXPECT_FALSE(shard::ParseContainer(SpanOf(cut)).ok());

    ASSERT_TRUE(
        WriteFileBytes(path, api::WrapCodecPayload("sharded:k2", cut)).ok());
    EXPECT_FALSE(api::OpenCompressedFile(path).ok());

    serve::CorpusRegistry registry;
    EXPECT_FALSE(registry.AddBytes("g", SpanOf(cut)).ok());
  }
  std::remove(path.c_str());
}

TEST(ShardedContainerTest, RetiredSingleCodecFileFailsClosedEverywhere) {
  // Every way into a file refuses the old single-codec kind with the
  // one "recompress" message, and so does every truncation that still
  // holds the whole tag.
  std::vector<uint8_t> good(
      kRetiredSingleCodecFile,
      kRetiredSingleCodecFile + sizeof(kRetiredSingleCodecFile));
  std::string path = TempPath("single_codec.grp");
  auto expect_recompress = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("old single-codec 'grepair' file"),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("recompress"), std::string::npos)
        << status.ToString();
  };
  for (size_t len = 16; len <= good.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::remove(path.c_str());
    ASSERT_TRUE(WriteFileBytes(path, std::vector<uint8_t>(
                                         good.begin(), good.begin() + len))
                    .ok());
    expect_recompress(api::OpenCompressedFile(path).status());
    expect_recompress(api::OpenVersioned(path, {}).status());
    serve::CorpusRegistry registry;
    expect_recompress(registry.AddFile("g", path));
    EXPECT_TRUE(registry.empty());
  }
  std::remove(path.c_str());
}

TEST(ShardedContainerTest, DeletedInnerCodecFailsClosedEverywhere) {
  // The containers are intact (the directory parses); every way into a
  // file refuses them with the registry's one NotFound for the inner
  // name, which ShardedRep::Build returns for any unknown codec.
  const std::pair<std::string, std::vector<uint8_t>> files[] = {
      {"hn", std::vector<uint8_t>(kRetiredHnFile,
                                  kRetiredHnFile + sizeof(kRetiredHnFile))},
      {"deflate",
       std::vector<uint8_t>(kRetiredDeflateFile,
                            kRetiredDeflateFile + sizeof(kRetiredDeflateFile))},
  };
  for (const auto& [inner, bytes] : files) {
    SCOPED_TRACE(inner);
    std::string path = TempPath("retired_" + inner + ".grp");
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
    auto expect_no_codec = [&](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
      EXPECT_NE(status.message().find("no codec named '" + inner + "'"),
                std::string::npos)
          << status.ToString();
    };
    expect_no_codec(api::OpenCompressedFile(path).status());
    expect_no_codec(api::OpenVersioned(path, {}).status());
    serve::CorpusRegistry registry;
    expect_no_codec(registry.AddFile("g", path));
    EXPECT_TRUE(registry.empty());
    std::remove(path.c_str());
  }
}

// A small labeled graph with an isolated node (7), compressed the way
// `grepair compress` writes a file: sharded:grepair, one shard, in the
// tagged frame.
Hypergraph IsolatedNodeGraph() {
  Hypergraph g(8);
  const NodeId edges[][3] = {{0, 1, 0}, {1, 2, 0}, {2, 0, 1}, {2, 3, 1},
                             {3, 4, 0}, {4, 5, 0}, {5, 3, 1}, {5, 6, 0},
                             {6, 0, 1}, {1, 4, 1}};
  for (const auto& e : edges) g.AddSimpleEdge(e[0], e[1], e[2]);
  return g;
}

TEST(ShardedV2ContainerTest, EveryBitFlipAndTruncationOfAFileFailsClosed) {
  // Exhaustive: every single-bit flip and every truncation of the file
  // either fails (at open or at decompression) or decodes to the input
  // graph. The CI sanitizer legs run this under ASan/UBSan.
  Hypergraph graph = IsolatedNodeGraph();
  Alphabet alphabet;
  alphabet.Add("a", 2);
  alphabet.Add("b", 2);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "1");
  auto rep = codec->Compress(graph, alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const std::vector<uint8_t> file =
      api::WrapCodecPayload("sharded:grepair", rep.value()->Serialize());
  std::string path = TempPath("flip.grp");

  size_t decoded = 0;
  auto check = [&](const std::vector<uint8_t>& bytes,
                   const std::string& what) {
    // A fresh file each time: renaming over an existing one is far
    // slower on ext4 mounted with discard, and this runs ~3,000 times.
    std::remove(path.c_str());
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
    auto opened = api::OpenCompressedFile(path);
    if (!opened.ok()) return;
    auto back = opened.value()->Decompress();
    if (!back.ok()) return;
    ++decoded;
    EXPECT_EQ(back.value().num_nodes(), graph.num_nodes()) << what;
    EXPECT_TRUE(back.value().EqualUpToEdgeOrder(graph)) << what;
  };
  check(file, "the intact file");
  ASSERT_EQ(decoded, 1u) << "the intact file must decode";
  for (size_t bit = 0; bit < file.size() * 8; ++bit) {
    std::vector<uint8_t> bad = file;
    bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    check(bad, "flip of bit " + std::to_string(bit));
  }
  for (size_t len = 0; len < file.size(); ++len) {
    check(std::vector<uint8_t>(file.begin(), file.begin() + len),
          "truncation to " + std::to_string(len) + " bytes");
  }
  std::remove(path.c_str());
}

TEST(ShardedV2ContainerTest, GoldenBytesAreStable) {
  auto codec = api::CodecRegistry::Create("sharded:k2").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "2");
  options.Set("threads", "1");
  auto rep = codec->Compress(FixtureGraph(), FixtureAlphabet(), options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  auto bytes = sharded->SerializeV2();
  ASSERT_EQ(bytes.size(), sizeof(kGoldenShardedV2Container))
      << "sharded v2 container size drifted";
  EXPECT_EQ(0, std::memcmp(bytes.data(), kGoldenShardedV2Container,
                           bytes.size()))
      << "sharded v2 container layout drifted; bump the 'GRSHARD2' magic "
         "instead of changing version 2 in place";
}

TEST(ShardedV2ContainerTest, GoldenBytesDeserializeToTheFixture) {
  auto codec = api::CodecRegistry::Create("sharded:k2").ValueOrDie();
  auto rep = codec->Deserialize(GoldenShardedV2());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value()->num_nodes(), 6u);
  auto graph = rep.value()->Decompress();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(FixtureGraph()));

  // Serialize and SerializeV2 both round-trip byte-identically.
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->Serialize(), GoldenShardedV2());
  EXPECT_EQ(sharded->SerializeV2(), GoldenShardedV2());
  EXPECT_EQ(sharded->ByteSize(), GoldenShardedV2().size());
}

TEST(ShardedV2ContainerTest, PopulatedLastShardStillOpensAndRoutes) {
  std::vector<uint8_t> bytes(
      kPopulatedLastShardContainer,
      kPopulatedLastShardContainer + sizeof(kPopulatedLastShardContainer));
  auto codec = api::CodecRegistry::Create("sharded:k2").ValueOrDie();
  auto rep = codec->Deserialize(bytes);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->num_shards(), 3u);
  EXPECT_TRUE(sharded->entry(2).has_payload());
  auto graph = rep.value()->Decompress();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(FixtureGraph()));
  // Nodes 1, 2, 4 and 5 sit in a data shard and in the last shard:
  // their answers merge both.
  std::vector<uint64_t> all = {0, 1, 2, 3, 4, 5};
  auto batch = rep.value()->OutNeighborsBatch(all);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (uint64_t v = 0; v < 6; ++v) {
    std::vector<uint64_t> out = {(v + 1) % 6};
    std::vector<uint64_t> in = {(v + 5) % 6};
    EXPECT_EQ(rep.value()->OutNeighbors(v).ValueOrDie(), out) << v;
    EXPECT_EQ(rep.value()->InNeighbors(v).ValueOrDie(), in) << v;
    EXPECT_EQ(batch.value()[v], out) << v;
  }
  EXPECT_TRUE(rep.value()->Reachable(0, 3).ValueOrDie());
  EXPECT_EQ(sharded->SerializeV2(), bytes);
}

TEST(ShardedV2ContainerTest, ParseContainerReadsTheDirectory) {
  auto parsed = shard::ParseContainer(ByteSpan(
      kGoldenShardedV2Container, sizeof(kGoldenShardedV2Container)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const shard::ParsedDirectory& dir = parsed.value().dir;
  EXPECT_EQ(dir.inner_name, "k2");
  EXPECT_EQ(dir.num_nodes, 6u);
  ASSERT_EQ(dir.rows.size(), 3u);
  EXPECT_EQ(dir.rows[0].offset, 8u);
  EXPECT_EQ(dir.rows[0].length, 8u);
  EXPECT_EQ(dir.rows[0].node_count, 4u);
  EXPECT_EQ(dir.rows[1].offset, 16u);
  EXPECT_EQ(dir.rows[1].length, 8u);
  EXPECT_EQ(dir.rows[2].length, 0u);  // empty cut shard
  // The region is the directory the trailer points at.
  EXPECT_EQ(parsed.value().region.data,
            kGoldenShardedV2Container + parsed.value().dir_off);
  EXPECT_EQ(parsed.value().dir_off + parsed.value().region.size + 24,
            sizeof(kGoldenShardedV2Container));
}

TEST(ShardedV2ContainerTest, ByteSizeIsTheSerializedSize) {
  // ByteSize() counts the GRSHARD2 layout arithmetically; it must equal
  // the bytes Serialize() emits for every sharded codec, fresh from
  // Compress and after folded edits replaced some shard payloads.
  GeneratedGraph gg = ErdosRenyi(80, 240, 17);
  api::CodecOptions options;
  options.Set("shards", "3");
  for (const std::string base : {"grepair", "k2"}) {
    SCOPED_TRACE(base);
    auto codec = api::CodecRegistry::Create("sharded:" + base).ValueOrDie();
    auto rep = codec->Compress(gg.graph, gg.alphabet, options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(sharded->ByteSize(), sharded->Serialize().size());

    std::vector<shard::EdgeEdit> edits;
    for (const HEdge& e : gg.graph.edges()) {
      if (edits.size() == 6) break;
      edits.push_back(shard::EdgeEdit::Delete(e.att[0], e.att[1]));
    }
    edits.push_back(shard::EdgeEdit::Add(1, 2));
    edits.push_back(shard::EdgeEdit::Add(3, 70));
    ASSERT_TRUE(sharded->ApplyEdits(edits).ok());
    sharded->set_overlay_budget_bytes(0);  // fold every eligible edit
    ASSERT_TRUE(sharded->FoldOverlay().ok());
    ASSERT_GT(sharded->query_stats().shard_folds, 0u);
    EXPECT_EQ(sharded->ByteSize(), sharded->Serialize().size());
  }
}

TEST(ShardedV2ContainerTest, EveryTruncationFailsCleanly) {
  auto good = GoldenShardedV2();
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    auto rep = shard::ShardedRep::Deserialize(cut);
    EXPECT_FALSE(rep.ok()) << "truncation to " << len
                           << " bytes parsed successfully";
  }
  // Trailing garbage shifts the trailer out of alignment: an error,
  // not silently ignored.
  auto extended = good;
  extended.push_back(0x00);
  EXPECT_FALSE(shard::ShardedRep::Deserialize(extended).ok());
}

TEST(ShardedV2ContainerTest, EveryBitFlipFailsClosed) {
  // The container carries payload and directory checksums, so EVERY
  // single-byte corruption must surface as a clean error — at open
  // time for magic/directory/trailer flips, at fault time (first
  // decompression/query) for payload flips. Never a silently
  // different answer. ASan/UBSan verify the "no UB" half.
  GeneratedGraph gg = BarabasiAlbert(60, 2, 31);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok());
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  auto bytes = sharded->SerializeV2();
  for (size_t off = 0; off < bytes.size(); ++off) {
    auto bad = bytes;
    bad[off] ^= 0xFF;
    auto back = codec->Deserialize(bad);
    if (!back.ok()) continue;  // caught at open
    auto graph = back.value()->Decompress();
    EXPECT_FALSE(graph.ok())
        << "flip at offset " << off << " survived open AND decompression";
    auto neighbors = back.value()->OutNeighbors(0);  // must not crash
    (void)neighbors;
  }
}

TEST(ShardedContainerTest, WrongInnerCodecIsRejected) {
  // A sharded:k2 container fed to sharded:grepair must be refused,
  // not misparsed.
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  auto rep = codec->Deserialize(GoldenShardedV2());
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

// A GRSHARD2 container around hand-built directory bytes (no
// payloads): magic, directory at offset 8, checksummed trailer.
std::vector<uint8_t> ContainerAround(const std::vector<uint8_t>& dir) {
  std::vector<uint8_t> bytes(shard::kShardContainerMagicV2,
                             shard::kShardContainerMagicV2 + 8);
  bytes.insert(bytes.end(), dir.begin(), dir.end());
  PutU64LE(8, &bytes);
  PutU64LE(dir.size(), &bytes);
  PutU64LE(HashBytes(dir.data(), dir.size()), &bytes);
  return bytes;
}

// Directory head (inner name, node count, shard count) followed by
// one edgeless row whose node map claims `map_count` ids in `map`.
std::vector<uint8_t> OneRowDirectory(const std::string& inner,
                                     uint64_t num_nodes, uint64_t map_count,
                                     const std::vector<uint8_t>& map) {
  std::vector<uint8_t> dir;
  dir.push_back(static_cast<uint8_t>(inner.size()));
  dir.insert(dir.end(), inner.begin(), inner.end());
  PutU64LE(num_nodes, &dir);
  PutU32LE(1, &dir);  // one shard
  PutU64LE(0, &dir);  // payload offset
  PutU64LE(0, &dir);  // payload length: edgeless
  PutU64LE(0, &dir);  // payload checksum
  PutU64LE(map_count, &dir);
  PutU32LE(static_cast<uint32_t>(map.size()), &dir);
  dir.insert(dir.end(), map.begin(), map.end());
  return dir;
}

TEST(ShardedContainerTest, HugeClaimedNodeMapRejectedWithoutAllocating) {
  // Regression: a crafted container claiming num_nodes=2^32-1 AND a
  // shard node-map count of 2^32-1 passed the count<=num_nodes check
  // and sized a ~16 GiB allocation from it (bad_alloc). Single-bit
  // flips cannot produce this state (two fields must be large
  // together), so the flip sweep missed it; counts must be bounded by
  // the remaining input size instead.
  auto bytes = ContainerAround(
      OneRowDirectory("k2", /*num_nodes=*/0xFFFFFFFFull,
                      /*map_count=*/0xFFFFFFFFull, /*map=*/{}));
  auto rep = shard::ShardedRep::Deserialize(bytes);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption);
}

TEST(ShardedContainerTest, NestedShardedInnerNameRejected) {
  // Regression: the inner-name field is untrusted; "sharded:<x>"
  // resolved through the registry and recursed back into this parser,
  // so a deeply nested crafted file was a stack overflow instead of a
  // Status. Compression never nests containers, so parsing rejects
  // them outright.
  auto bytes = ContainerAround(OneRowDirectory("sharded:k2", 6, 0, {}));
  auto rep = shard::ShardedRep::Deserialize(bytes);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption);
  EXPECT_NE(rep.status().message().find("nested"), std::string::npos);
}

TEST(ShardedContainerTest, WrappingNodeMapGapRejected) {
  // Regression: the node-map decoder computed `prev + gap` in uint64,
  // so a crafted gap near 2^64 wrapped the sum back into [1,
  // num_nodes] and smuggled in an UNSORTED map ([2, 1]) that binary
  // search cannot query — Decompress showed edges that OutNeighbors
  // denied. Gaps must be range-checked before the addition.
  BitWriter w;
  EliasDeltaEncode(3, &w);              // first id: shifted = 3
  EliasDeltaEncode(~0ull, &w);          // gap 2^64-1: wraps to shifted = 2
  w.AlignToByte();
  auto bytes = ContainerAround(
      OneRowDirectory("k2", 6, /*map_count=*/2, w.TakeBytes()));
  auto rep = shard::ShardedRep::Deserialize(bytes);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption);
}

// RAII guard so a failing differential cannot leave the scalar switch
// on for later tests in the binary.
struct ScopedScalarDecode {
  ScopedScalarDecode() { SetEliasDecodeScalarForTest(true); }
  ~ScopedScalarDecode() { SetEliasDecodeScalarForTest(false); }
};

TEST(GoldenDifferentialTest, FixturesDecodeIdenticallyUnderScalarOracle) {
  // Whole-parser differential over every golden container fixture:
  // decode with the word-at-a-time Elias engine (default), then again
  // with every decode routed through the scalar oracles, and require
  // the same graph and byte-identical re-serialization. This catches a
  // fast/scalar divergence anywhere in a real container parse, not
  // just in a synthetic stream.
  struct Fixture {
    const char* codec;
    std::vector<uint8_t> bytes;
  };
  const std::vector<Fixture> fixtures = {
      {"sharded:k2", GoldenShardedV2()},
  };
  for (const auto& fixture : fixtures) {
    auto codec = api::CodecRegistry::Create(fixture.codec).ValueOrDie();

    auto fast_rep = codec->Deserialize(fixture.bytes);
    ASSERT_TRUE(fast_rep.ok()) << fast_rep.status().ToString();
    auto fast_graph = fast_rep.value()->Decompress();
    ASSERT_TRUE(fast_graph.ok()) << fast_graph.status().ToString();
    auto fast_bytes = fast_rep.value()->Serialize();

    std::vector<uint8_t> scalar_bytes;
    {
      ScopedScalarDecode scalar_mode;
      auto scalar_rep = codec->Deserialize(fixture.bytes);
      ASSERT_TRUE(scalar_rep.ok()) << scalar_rep.status().ToString();
      auto scalar_graph = scalar_rep.value()->Decompress();
      ASSERT_TRUE(scalar_graph.ok()) << scalar_graph.status().ToString();
      EXPECT_TRUE(fast_graph.value().EqualUpToEdgeOrder(scalar_graph.value()));
      scalar_bytes = scalar_rep.value()->Serialize();
    }
    EXPECT_EQ(fast_bytes, scalar_bytes)
        << fixture.codec << ": fast and scalar decodes re-serialize "
        << "differently";
  }
}

TEST(GoldenDifferentialTest, CorruptFixturesFailIdenticallyUnderOracle) {
  // The differential contract covers errors too: every truncation of
  // a golden fixture must produce the same ok/error outcome under the
  // fast and scalar decode paths.
  auto good = GoldenShardedV2();
  auto codec = api::CodecRegistry::Create("sharded:k2").ValueOrDie();
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    auto fast = codec->Deserialize(cut);
    bool fast_decompress_ok = false;
    if (fast.ok()) fast_decompress_ok = fast.value()->Decompress().ok();
    ScopedScalarDecode scalar_mode;
    auto scalar = codec->Deserialize(cut);
    bool scalar_decompress_ok = false;
    if (scalar.ok()) scalar_decompress_ok = scalar.value()->Decompress().ok();
    EXPECT_EQ(fast.ok(), scalar.ok()) << "truncation to " << len;
    EXPECT_EQ(fast_decompress_ok, scalar_decompress_ok)
        << "truncation to " << len;
  }
}

}  // namespace
}  // namespace grepair
