// The placement layer end to end: RankByHeat's deterministic ordering,
// PlanByHeat's budget fill (the one residency rule), the `.grdir`
// sidecar envelope (v2 with histogram + epoch, fail-closed on damage
// and on the retired v1 envelope), the STATS body round-trip carrying
// epoch + hits (fail-closed on the retired layout with a per-shard
// pinned flag), and the sidecar a remote open persists.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/serve/placement.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/stats.h"
#include "src/util/byte_io.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace {

std::vector<uint8_t> CompressSharded(const GeneratedGraph& gg, int shards) {
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2();
}

std::vector<shard::ShardDirEntry> DirectoryRows(
    const std::vector<uint8_t>& container) {
  auto parsed = shard::ParseContainer(SpanOf(container));
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).ValueOrDie().dir.rows;
}

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(::testing::TempDir() + "grepair_placement_" + tag) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(PlacementTest, RankByHeatOrdersByHitsThenIdAndDropsCold) {
  // Hits: ties break by ascending shard id; zero-hit shards vanish.
  std::vector<uint64_t> histogram = {5, 0, 7, 5, 0, 7};
  EXPECT_EQ(serve::RankByHeat(histogram),
            (std::vector<size_t>{2, 5, 0, 3}));
  EXPECT_TRUE(serve::RankByHeat({}).empty());
  EXPECT_TRUE(serve::RankByHeat({0, 0, 0}).empty());
}

TEST(PlacementTest, PlanByHeatFillsHotThenColdUnderTheBudget) {
  // Hot shards by hits descending (ties by id), then cold ones in id
  // order; zero-length shards never enter the plan.
  std::vector<uint64_t> heat = {0, 4, 0, 9, 4, 0, 0};
  std::vector<uint64_t> lengths = {10, 10, 10, 10, 10, 0, 10};
  EXPECT_EQ(serve::PlanByHeat(heat, lengths, 1000),
            (std::vector<size_t>{3, 1, 4, 0, 2, 6}));
  // An empty histogram makes every shard cold: id order.
  EXPECT_EQ(serve::PlanByHeat({}, lengths, 1000),
            (std::vector<size_t>{0, 1, 2, 3, 4, 6}));
  // A shard that would overflow is skipped, not a stopper: 3 (hottest,
  // 60 bytes) fits, 1 (50) would overflow, 4 (30) still fits.
  std::vector<uint64_t> sizes = {40, 50, 10, 60, 30};
  EXPECT_EQ(serve::PlanByHeat({0, 8, 0, 9, 7}, sizes, 100),
            (std::vector<size_t>{3, 4, 2}));
  // Budget 0 plans nothing.
  EXPECT_TRUE(serve::PlanByHeat(heat, lengths, 0).empty());
}

TEST(PlacementTest, DirSidecarV2RoundTripAndFailClosed) {
  ScratchDir scratch("sidecar");
  serve::DirSidecar sidecar;
  sidecar.dir_off = 12345;
  sidecar.raw_directory = {1, 2, 3, 4, 5, 6, 7};
  sidecar.histogram_epoch = 99;
  sidecar.histogram = {0, 17, 3};

  std::string path = serve::DirSidecarPath(scratch.path, "web");
  EXPECT_EQ(path, scratch.path + "/web.grdir");
  EXPECT_EQ(serve::DirSidecarPath(scratch.path, ""),
            scratch.path + "/_default.grdir");

  serve::SaveDirSidecar(path, sidecar);
  auto loaded = serve::LoadDirSidecar(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dir_off, sidecar.dir_off);
  EXPECT_EQ(loaded.value().raw_directory, sidecar.raw_directory);
  EXPECT_EQ(loaded.value().histogram_epoch, sidecar.histogram_epoch);
  EXPECT_EQ(loaded.value().histogram, sidecar.histogram);

  // Any flipped byte fails the checksum (or, for trailer bytes, the
  // layout) — a tampered sidecar never feeds the warming path.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  for (size_t i = 0; i < bytes.value().size(); i += 5) {
    std::vector<uint8_t> mutated = bytes.value();
    mutated[i] ^= 0x01;
    ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
    auto bad = serve::LoadDirSidecar(path);
    EXPECT_FALSE(bad.ok()) << "byte " << i << " flip was accepted";
  }
  // Truncation too.
  std::vector<uint8_t> truncated = bytes.value();
  truncated.resize(truncated.size() / 2);
  ASSERT_TRUE(WriteFileBytes(path, truncated).ok());
  EXPECT_FALSE(serve::LoadDirSidecar(path).ok());
}

TEST(PlacementTest, DirSidecarV1FailsClosed) {
  ScratchDir scratch("sidecar_v1");
  // Hand-build the retired v1 envelope (directory only, correctly
  // checksummed): the loader must refuse it, never load it.
  std::vector<uint8_t> raw = {9, 8, 7, 6};
  std::vector<uint8_t> body;
  PutU32LE(0x43445247, &body);  // "GRDC"
  PutU32LE(1, &body);           // version 1
  PutU64LE(777, &body);         // dir_off
  PutU32LE(static_cast<uint32_t>(raw.size()), &body);
  body.insert(body.end(), raw.begin(), raw.end());
  PutU64LE(HashBytes(body.data(), body.size()), &body);
  std::string path = serve::DirSidecarPath(scratch.path, "old");
  ASSERT_TRUE(WriteFileBytes(path, body).ok());

  auto loaded = serve::LoadDirSidecar(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(PlacementTest, StatsBodyRoundTripsEpochAndHits) {
  serve::ServerStatsSnapshot snapshot;
  snapshot.connections = 4;
  snapshot.requests = 100;
  snapshot.bytes_sent = 5000;
  snapshot.errors = 1;
  serve::CorpusServeStats corpus;
  corpus.name = "web";
  corpus.inner_name = "grepair";
  corpus.num_nodes = 42;
  corpus.requests = 17;
  corpus.histogram_epoch = 17;
  corpus.shard_hits = {9, 0, 8};
  snapshot.corpora.push_back(corpus);

  std::vector<uint8_t> body = serve::EncodeStatsBody(7, snapshot);
  uint64_t req_id = 0;
  auto decoded = serve::DecodeStatsBody(SpanOf(body), &req_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(req_id, 7u);
  ASSERT_EQ(decoded.value().corpora.size(), 1u);
  const auto& got = decoded.value().corpora[0];
  EXPECT_EQ(got.name, "web");
  EXPECT_EQ(got.histogram_epoch, 17u);
  EXPECT_EQ(got.shard_hits, corpus.shard_hits);

  // A trailing byte is wire damage.
  std::vector<uint8_t> mutated = body;
  mutated.push_back(0);
  EXPECT_FALSE(serve::DecodeStatsBody(SpanOf(mutated), &req_id).ok());

  // The retired layout (a u8 flag after each shard's hit count) fails
  // closed. The one corpus's hit counts are the body's last 8 x 3 bytes.
  size_t hits_at = body.size() - 8 * corpus.shard_hits.size();
  std::vector<uint8_t> retired(body.begin(), body.begin() + hits_at);
  for (size_t s = 0; s < corpus.shard_hits.size(); ++s) {
    PutU64LE(corpus.shard_hits[s], &retired);
    retired.push_back(s == 1 ? 0 : 1);
  }
  EXPECT_EQ(
      serve::DecodeStatsBody(SpanOf(retired), &req_id).status().code(),
      StatusCode::kCorruption);
}

TEST(PlacementTest, RemoteOpenPersistsHistogramSidecar) {
  ScratchDir scratch("remote_sidecar");
  GeneratedGraph gg = BarabasiAlbert(90, 3, 227);
  std::vector<uint8_t> bytes = CompressSharded(gg, 4);
  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());

  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";

  // First client: faults shards, teaching the server the histogram.
  {
    auto rep = serve::OpenRemoteContainer(
        server.value()->host_port() + "/g", options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
      ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
    }
  }
  // Second open: fetches fresh STATS (now non-empty) and persists the
  // v2 sidecar beside the tier.
  {
    auto rep = serve::OpenRemoteContainer(
        server.value()->host_port() + "/g", options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  }
  auto sidecar = serve::LoadDirSidecar(
      serve::DirSidecarPath(options.ssd_cache_dir, "g"));
  ASSERT_TRUE(sidecar.ok()) << sidecar.status().ToString();
  EXPECT_GT(sidecar.value().histogram_epoch, 0u);
  auto rows = DirectoryRows(bytes);
  ASSERT_EQ(sidecar.value().histogram.size(), rows.size());
  uint64_t total_hits = 0;
  for (uint64_t h : sidecar.value().histogram) total_hits += h;
  EXPECT_GT(total_hits, 0u);
  // The persisted directory still parses and matches the container's.
  auto parsed = shard::ParseV2Directory(
      SpanOf(sidecar.value().raw_directory), sidecar.value().dir_off);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().rows.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed.value().rows[i].checksum, rows[i].checksum);
  }
}

}  // namespace
}  // namespace grepair
