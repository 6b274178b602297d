// ParallelCompressor and sharded-codec concurrency tests.
//
// The load-bearing property is determinism: the bytes a sharded codec
// produces must not depend on the thread count or on scheduling, so
// threads=1 and threads=8 runs are asserted byte-identical. The
// concurrent-callers test exercises the registry and
// GraphCodec::Compress from several threads at once; the CI sanitizer
// matrix (ASan/UBSan, TSan) runs this binary to catch races that
// happen to produce the right bytes.

#include <gtest/gtest.h>

#include <thread>

#include "src/api/grepair_api.h"

namespace grepair {
namespace shard {
namespace {

std::vector<uint8_t> CompressBytes(const std::string& backend,
                                   const GeneratedGraph& gg,
                                   const std::string& spec) {
  auto codec = api::CodecRegistry::Create(backend);
  EXPECT_TRUE(codec.ok()) << codec.status().ToString();
  auto options = api::CodecOptions::Parse(spec);
  EXPECT_TRUE(options.ok());
  auto rep = codec.value()->Compress(gg.graph, gg.alphabet, options.value());
  EXPECT_TRUE(rep.ok()) << backend << ": " << rep.status().ToString();
  if (!rep.ok()) return {};
  return rep.value()->Serialize();
}

TEST(ParallelCompressorTest, ThreadCountDoesNotChangeTheBytes) {
  GeneratedGraph gg = BarabasiAlbert(600, 3, 17);
  auto one = CompressBytes("sharded:grepair", gg, "shards=8,threads=1");
  auto eight = CompressBytes("sharded:grepair", gg, "shards=8,threads=8");
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight) << "not deterministic across thread counts";
}

TEST(ParallelCompressorTest, RepeatedRunsAreByteIdentical) {
  GeneratedGraph gg = RdfTypes(900, 15, 3);
  auto a = CompressBytes("sharded:grepair", gg, "shards=5,threads=4");
  auto b = CompressBytes("sharded:grepair", gg, "shards=5,threads=4");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ParallelCompressorTest, PerShardFailureSurfacesLowestShardError) {
  // The compressor refuses an alphabet with a label of rank above 63,
  // even an unused one; every shard fails, and the reported error must
  // deterministically be shard 0's.
  GeneratedGraph gg = ErdosRenyi(80, 240, 7, /*num_labels=*/3);
  PartitionOptions options;
  options.num_shards = 4;
  auto partition = PartitionGraph(gg.graph, options);
  ASSERT_TRUE(partition.ok());
  Alphabet wide = gg.alphabet;
  wide.Add("wide", 64);
  ParallelCompressor compressor(CompressOptions(), 4);
  auto result = compressor.CompressShards(partition.value(), wide);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "shard 0: label ranks above 63 are unsupported")
      << result.status().ToString();
}

TEST(ParallelCompressorTest, EmptyShardsCompressToEmptyPayloads) {
  // 5 edges over 64 shards: most shards are edgeless and must neither
  // reach the compressor nor break the round-trip.
  GeneratedGraph gg = CycleWithDiagonal();
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  auto options = api::CodecOptions::Parse("shards=64,threads=8").ValueOrDie();
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* sharded = dynamic_cast<ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 65u);
  size_t empty = 0;
  for (size_t i = 0; i < sharded->num_shards(); ++i) {
    if (!sharded->entry(i).has_payload()) ++empty;
  }
  EXPECT_GE(empty, 60u);

  auto back = codec->Deserialize(rep.value()->Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto graph = back.value()->Decompress();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.value().EqualUpToEdgeOrder(gg.graph));
}

TEST(ParallelCompressorTest, ConcurrentCallersShareCodecsSafely) {
  // GraphCodec::Compress is documented thread-safe; hammer one codec
  // instance and the registry from several threads at once (TSan leg
  // verifies the absence of data races, not just matching bytes).
  GeneratedGraph gg = BarabasiAlbert(300, 3, 23);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  auto options = api::CodecOptions::Parse("shards=4,threads=2").ValueOrDie();
  auto expected = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(expected.ok());
  auto expected_bytes = expected.value()->Serialize();

  std::vector<std::vector<uint8_t>> got(4);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t]() {
      auto mine = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
      auto rep = codec->Compress(gg.graph, gg.alphabet, options);
      auto rep2 = mine->Compress(gg.graph, gg.alphabet, options);
      if (rep.ok() && rep2.ok()) {
        auto bytes = rep.value()->Serialize();
        if (bytes == rep2.value()->Serialize()) got[t] = std::move(bytes);
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(got[t], expected_bytes) << "caller " << t;
  }
}

TEST(ParallelCompressorTest, SharedRepSerializesSafelyFromManyThreads) {
  // Pins ShardedRep's no-mutable-state contract: Serialize() rebuilds
  // and ByteSize() computes arithmetically (deliberately no cache), so
  // several threads hitting ONE shared rep are race-free and agree on
  // the size (TSan leg verifies the race-free half).
  GeneratedGraph gg = BarabasiAlbert(200, 3, 41);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  auto options = api::CodecOptions::Parse("shards=4,threads=2").ValueOrDie();
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok());
  const api::CompressedRep& shared = *rep.value();
  std::vector<size_t> sizes(4, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t]() {
      sizes[t] = (t % 2 == 0) ? shared.Serialize().size()
                              : shared.ByteSize();
    });
  }
  for (auto& t : callers) t.join();
  for (size_t size : sizes) EXPECT_EQ(size, sizes[0]);
}

TEST(ParallelCompressorTest, DecompressThreadsDoNotChangeTheGraph) {
  GeneratedGraph gg = CoAuthorship(250, 250, 9);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  auto options = api::CodecOptions::Parse("shards=6,threads=4").ValueOrDie();
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok());
  auto* sharded = dynamic_cast<ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  auto sequential = sharded->Decompress();
  sharded->set_threads(8);
  auto parallel = sharded->Decompress();
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(sequential.value() == parallel.value());
  EXPECT_TRUE(sequential.value().EqualUpToEdgeOrder(gg.graph));
}

}  // namespace
}  // namespace shard
}  // namespace grepair
