// The multi-tenant serving tier end to end: one serve::ShardServer
// hosting several corpora must answer every client byte-identically
// to local opens of the same containers, under 8-thread interleaved
// load; the SSD shard tier must keep answering with the server gone,
// fail closed on corrupt or truncated cache files (refetching
// remotely), and keep exactly its heat plan under the byte budget, in
// a directory per corpus; the redial backoff gate
// must fail fast and name the dead peer; corpus discovery and the
// GRNF STATS verb round-trip. Runs under the ASan/UBSan and TSan CI
// legs — the interleaved-tenant test doubles as the data-race net for
// the registry's shared-server path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

#include "src/api/grepair_api.h"
#include "src/serve/placement.h"
#include "src/serve/pool.h"
#include "src/util/mmap_file.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/stats.h"
#include "src/serve/tiered.h"
#include "src/util/hashing.h"

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

std::vector<std::vector<uint64_t>> LocalTruth(
    const std::vector<uint8_t>& container, uint64_t num_nodes) {
  auto local = shard::ShardedRep::Deserialize(SpanOf(container));
  EXPECT_TRUE(local.ok()) << local.status().ToString();
  std::vector<std::vector<uint64_t>> truth(num_nodes);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    auto r = local.value()->OutNeighbors(v);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    truth[v] = r.value();
  }
  return truth;
}

// A fresh per-test scratch directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(::testing::TempDir() + "grepair_serve_" + tag) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Bytes the shard tier holds on disk, in every corpus directory under
// `dir` (the .grdir directory sidecar is bookkeeping, not cached
// payload, and sits outside the budget).
uint64_t DiskBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".shard") {
      total += entry.file_size();
    }
  }
  return total;
}

// Per-shard payload lengths of a serialized container, via the same
// directory parse the server performs.
std::vector<shard::ShardDirEntry> DirectoryRows(
    const std::vector<uint8_t>& container) {
  auto parsed = shard::ParseContainer(SpanOf(container));
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).ValueOrDie().dir.rows;
}

// The tier's content-addressed file name for a shard.
std::string CacheName(const shard::ShardDirEntry& row) {
  return HexU64(row.checksum) + "-" + std::to_string(row.length) + ".shard";
}

// Names of the `.shard` files anywhere under `dir`.
std::set<std::string> ShardFiles(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".shard") {
      names.insert(entry.path().filename().string());
    }
  }
  return names;
}

// The tier's plan for `rows` under `budget` and `heat`, as file names.
std::set<std::string> PlannedFiles(
    const std::vector<shard::ShardDirEntry>& rows,
    const std::vector<uint64_t>& heat, uint64_t budget) {
  std::vector<uint64_t> lengths;
  for (const auto& row : rows) lengths.push_back(row.length);
  std::set<std::string> names;
  for (size_t s : serve::PlanByHeat(heat, lengths, budget)) {
    names.insert(CacheName(rows[s]));
  }
  return names;
}

size_t CountDataShards(const std::vector<shard::ShardDirEntry>& rows) {
  size_t n = 0;
  for (const auto& row : rows) {
    if (row.length > 0) ++n;
  }
  return n;
}

TEST(ServeTierTest, TwoTenantsEightThreadsByteIdenticalPerCorpus) {
  GeneratedGraph web = BarabasiAlbert(110, 3, 71);
  GeneratedGraph cite = ErdosRenyi(90, 360, 73);
  std::vector<uint8_t> web_bytes = CompressSharded(web, 4);
  std::vector<uint8_t> cite_bytes = CompressSharded(cite, 3);
  auto web_truth = LocalTruth(web_bytes, web.graph.num_nodes());
  auto cite_truth = LocalTruth(cite_bytes, cite.graph.num_nodes());

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("web", SpanOf(web_bytes)).ok());
  ASSERT_TRUE(registry.AddBytes("cite", SpanOf(cite_bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // One shared rep per tenant, four threads each, interleaved single
  // and batch queries: the server must never cross-serve corpora.
  serve::OpenOptions options;
  options.pool_size = 2;
  auto web_rep =
      serve::OpenRemoteContainer(server.value()->host_port() + "/web",
                                 options);
  ASSERT_TRUE(web_rep.ok()) << web_rep.status().ToString();
  auto cite_rep =
      serve::OpenRemoteContainer(server.value()->host_port() + "/cite",
                                 options);
  ASSERT_TRUE(cite_rep.ok()) << cite_rep.status().ToString();
  EXPECT_EQ(web_rep.value()->num_nodes(), web.graph.num_nodes());
  EXPECT_EQ(cite_rep.value()->num_nodes(), cite.graph.num_nodes());

  std::atomic<int> failures{0};
  auto worker = [&failures](api::CompressedRep* rep,
                            const std::vector<std::vector<uint64_t>>& truth,
                            int stride) {
    if (stride % 2 == 0) {
      std::vector<uint64_t> all(truth.size());
      for (uint64_t v = 0; v < all.size(); ++v) all[v] = v;
      auto batch = rep->OutNeighborsBatch(all);
      if (!batch.ok()) {
        ++failures;
        return;
      }
      for (uint64_t v = 0; v < all.size(); ++v) {
        if (batch.value()[v] != truth[v]) ++failures;
      }
    } else {
      for (uint64_t v = static_cast<uint64_t>(stride); v < truth.size();
           v += 3) {
        auto r = rep->OutNeighbors(v);
        if (!r.ok() || r.value() != truth[v]) ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(worker, web_rep.value().get(), std::cref(web_truth),
                         t);
    threads.emplace_back(worker, cite_rep.value().get(),
                         std::cref(cite_truth), t);
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The server attributed traffic to the right tenants.
  auto stats = server.value()->stats();
  ASSERT_EQ(stats.corpora.size(), 2u);
  EXPECT_EQ(stats.corpora[0].name, "web");
  EXPECT_EQ(stats.corpora[1].name, "cite");
  for (const auto& corpus : stats.corpora) {
    EXPECT_GT(corpus.requests, 0u) << corpus.name;
    uint64_t histogram_sum = 0;
    for (uint64_t hits : corpus.shard_hits) histogram_sum += hits;
    EXPECT_EQ(histogram_sum, corpus.requests) << corpus.name;
  }
}

TEST(ServeTierTest, AmbiguousAndUnknownCorpusNamesFailClosed) {
  GeneratedGraph gg = BarabasiAlbert(50, 3, 79);
  std::vector<uint8_t> a = CompressSharded(gg, 2);
  std::vector<uint8_t> b = CompressSharded(gg, 3);
  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("a", SpanOf(a)).ok());
  ASSERT_TRUE(registry.AddBytes("b", SpanOf(b)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());

  // No name against a two-tenant server: ambiguous, names the options.
  auto ambiguous = api::OpenRemote(server.value()->host_port());
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);

  // Unknown name: kNotFound listing what is served.
  auto unknown = api::OpenRemote(server.value()->host_port() + "/nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("a"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("b"), std::string::npos);

  // Both real names still resolve.
  EXPECT_TRUE(api::OpenRemote(server.value()->host_port() + "/a").ok());
  EXPECT_TRUE(api::OpenRemote(server.value()->host_port() + "/b").ok());
}

TEST(ServeTierTest, DirectoryDiscoveryServesEveryContainer) {
  ScratchDir scratch("discovery");
  GeneratedGraph web = BarabasiAlbert(60, 3, 83);
  GeneratedGraph cite = BarabasiAlbert(40, 3, 89);
  ASSERT_TRUE(WriteFileBytes(scratch.path + "/web.grc",
                             CompressSharded(web, 3))
                  .ok());
  ASSERT_TRUE(WriteFileBytes(scratch.path + "/cite.grc",
                             CompressSharded(cite, 2))
                  .ok());
  // Sidecar noise a corpus directory might hold: not servable, skipped.
  ASSERT_TRUE(WriteFileBytes(scratch.path + "/README.txt",
                             std::vector<uint8_t>{'h', 'i'})
                  .ok());
  std::filesystem::create_directories(scratch.path + "/subdir");

  serve::CorpusRegistry registry;
  std::vector<std::string> added;
  ASSERT_TRUE(registry.DiscoverDirectory(scratch.path, &added).ok());
  EXPECT_EQ(added, (std::vector<std::string>{"cite", "web"}));
  ASSERT_EQ(registry.size(), 2u);

  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto rep = api::OpenRemote(server.value()->host_port() + "/web");
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value()->num_nodes(), web.graph.num_nodes());
}

TEST(ServeTierTest, SsdWarmCacheAnswersWithServerStopped) {
  ScratchDir scratch("warm");
  GeneratedGraph gg = BarabasiAlbert(80, 3, 97);
  std::vector<uint8_t> bytes = CompressSharded(gg, 3);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());
  size_t data_shards = CountDataShards(DirectoryRows(bytes));

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());

  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";

  // Pass 1 (cold): every shard faults over the wire and lands on disk.
  {
    auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                          options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    for (uint64_t v = 0; v < truth.size(); ++v) {
      auto r = rep.value()->OutNeighbors(v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), truth[v]);
    }
    auto stats = rep.value()->query_stats();
    EXPECT_EQ(stats.tier_cold_fetches, data_shards);
    EXPECT_EQ(stats.remote_fetches, data_shards);
    EXPECT_EQ(stats.tier_warm_hits, 0u);
  }

  // Pass 2 (warm): open while the server is still up (the directory
  // crosses the wire), then stop it. Every payload must come off the
  // SSD tier — zero remote fetches with the server gone.
  auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                        options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  server.value()->Stop();
  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = rep.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), truth[v]);
  }
  auto stats = rep.value()->query_stats();
  EXPECT_EQ(stats.tier_warm_hits, data_shards);
  EXPECT_EQ(stats.tier_cold_fetches, 0u);
  EXPECT_EQ(stats.remote_fetches, 0u);
  EXPECT_EQ(stats.remote_bytes, 0u);
}

TEST(ServeTierTest, OfflineOpenFromWarmTierAfterServerDies) {
  ScratchDir scratch("offline");
  GeneratedGraph gg = BarabasiAlbert(70, 3, 131);
  std::vector<uint8_t> bytes = CompressSharded(gg, 3);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());
  std::string peer = server.value()->host_port();

  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";

  // Warm the tier (this also persists the directory sidecar).
  {
    auto rep = serve::OpenRemoteContainer(peer, options);
    ASSERT_TRUE(rep.ok());
    for (uint64_t v = 0; v < truth.size(); ++v) {
      ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
    }
  }
  server.value()->Stop();

  // A brand-new client against the dead peer: the open itself must
  // succeed off the persisted directory, and every query answers from
  // the SSD tier without touching the network.
  auto rep = serve::OpenRemoteContainer(peer, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_STREQ(sharded->store().source_kind(), "tiered-ssd");
  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = rep.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), truth[v]);
  }
  auto stats = rep.value()->query_stats();
  EXPECT_EQ(stats.remote_fetches, 0u);
  EXPECT_GT(stats.tier_warm_hits, 0u);

  // Without the tier, the same dead peer is still a clean failure.
  auto no_tier = serve::OpenRemoteContainer(peer, serve::OpenOptions());
  ASSERT_FALSE(no_tier.ok());
  EXPECT_EQ(no_tier.status().code(), StatusCode::kUnavailable);
}

// Open-time warming from the SSD tier: the first session fills the
// tier and the directory sidecar and makes its shards the server's
// hot set; a second open with warm_from_histogram must prefetch each
// hot shard, before it returns, with exactly one tier read and no
// network fetch.
TEST(ServeTierTest, OpenTimeWarmingReadsEachHotShardFromTheTierOnce) {
  ScratchDir scratch("open_warm");
  GeneratedGraph gg = BarabasiAlbert(120, 3, 149);
  std::vector<uint8_t> bytes = CompressSharded(gg, 6);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());
  size_t data_shards = CountDataShards(DirectoryRows(bytes));

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());
  std::string peer = server.value()->host_port();

  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";
  options.warm_from_histogram = true;

  // Session 1: the last third of the nodes faults a subset of the
  // shards over the wire into the tier.
  {
    auto rep = serve::OpenRemoteContainer(peer, options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    for (uint64_t v = truth.size() - truth.size() / 3; v < truth.size();
         ++v) {
      auto r = rep.value()->OutNeighbors(v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), truth[v]);
    }
  }
  ASSERT_TRUE(std::filesystem::exists(
      serve::DirSidecarPath(options.ssd_cache_dir, "")));
  auto snapshot = serve::FetchServerStats(peer);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot.value().corpora.size(), 1u);
  size_t hot = serve::RankByHeat(snapshot.value().corpora[0].shard_hits)
                   .size();
  ASSERT_GT(hot, 0u);
  ASSERT_LT(hot, data_shards);  // some shards stay cold

  // Session 2: the open warms the hot shards before it returns, so
  // the counters read before any query are the warm-up's alone.
  auto rep = serve::OpenRemoteContainer(peer, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  ASSERT_NE(sharded, nullptr);
  auto warmed = sharded->query_stats();
  EXPECT_EQ(warmed.shards_prefetched, hot);
  EXPECT_EQ(warmed.tier_warm_hits, hot);
  EXPECT_EQ(warmed.tier_cold_fetches, 0u);
  EXPECT_EQ(warmed.remote_fetches, 0u);

  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = rep.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), truth[v]);
  }
  // The hot shards stayed resident; only the cold ones crossed the
  // wire.
  auto after = sharded->query_stats();
  EXPECT_EQ(after.tier_warm_hits, hot);
  EXPECT_EQ(after.remote_fetches, data_shards - hot);
}

TEST(ServeTierTest, CorruptOrTruncatedCacheFilesFailClosedAndRefetch) {
  ScratchDir scratch("corrupt");
  GeneratedGraph gg = BarabasiAlbert(70, 3, 101);
  std::vector<uint8_t> bytes = CompressSharded(gg, 3);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());

  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";

  // Warm the cache.
  {
    auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                          options);
    ASSERT_TRUE(rep.ok());
    for (uint64_t v = 0; v < truth.size(); ++v) {
      ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
    }
  }

  // Vandalize every cached shard: flip a byte in one file, truncate
  // the next, alternating — both must be caught by the read-time
  // re-hash, deleted, and refetched from the server.
  size_t vandalized = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(options.ssd_cache_dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".shard") continue;  // dir sidecar
    std::string path = entry.path().string();
    auto cached = ReadFileBytes(path);
    ASSERT_TRUE(cached.ok());
    std::vector<uint8_t> mutated = std::move(cached).ValueOrDie();
    if (vandalized % 2 == 0) {
      mutated[mutated.size() / 2] ^= 0x40;  // bit flip
    } else {
      mutated.resize(mutated.size() / 2);  // truncation
    }
    ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
    ++vandalized;
  }
  ASSERT_GT(vandalized, 0u);

  auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                        options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = rep.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), truth[v]) << "node " << v;
  }
  auto stats = rep.value()->query_stats();
  EXPECT_EQ(stats.tier_corrupt_drops, vandalized);
  EXPECT_EQ(stats.tier_warm_hits, 0u);
  EXPECT_EQ(stats.tier_cold_fetches, vandalized);
  EXPECT_EQ(stats.remote_fetches, vandalized);

  // The refetch repaired the cache: a fresh open is warm again.
  auto repaired = serve::OpenRemoteContainer(server.value()->host_port(),
                                             options);
  ASSERT_TRUE(repaired.ok());
  for (uint64_t v = 0; v < truth.size(); ++v) {
    ASSERT_TRUE(repaired.value()->OutNeighbors(v).ok());
  }
  EXPECT_EQ(repaired.value()->query_stats().tier_warm_hits, vandalized);
  EXPECT_EQ(repaired.value()->query_stats().remote_fetches, 0u);
}

// The tier caches exactly PlanByHeat's shards: a full pass leaves the
// plan on disk within the budget, and a second full pass fetches
// exactly the unplanned shards remotely.
TEST(ServeTierTest, HeatPlanHonorsTheByteBudget) {
  ScratchDir scratch("plan");
  GeneratedGraph gg = BarabasiAlbert(140, 3, 103);
  std::vector<uint8_t> bytes = CompressSharded(gg, 6);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());
  auto rows = DirectoryRows(bytes);
  uint64_t total = 0, largest = 0;
  for (const auto& row : rows) {
    total += row.length;
    largest = std::max(largest, row.length);
  }
  ASSERT_GT(total, largest * 2) << "need several data shards";
  size_t data_shards = CountDataShards(rows);

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());
  std::string peer = server.value()->host_port();

  // Budget: room for the largest shard but nowhere near all of them.
  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";
  options.ssd_cache_bytes = largest + total / 4;
  // The plan an open makes now: the server's histogram under the
  // budget.
  auto plan_now = [&] {
    auto snapshot = serve::FetchServerStats(peer);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return PlannedFiles(rows, snapshot.value().corpora[0].shard_hits,
                        options.ssd_cache_bytes);
  };
  std::set<std::string> plan = plan_now();
  ASSERT_GT(plan.size(), 0u);
  ASSERT_LT(plan.size(), data_shards);

  for (int pass = 0; pass < 2; ++pass) {
    auto rep = serve::OpenRemoteContainer(peer, options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    for (uint64_t v = 0; v < truth.size(); ++v) {
      auto r = rep.value()->OutNeighbors(v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), truth[v]);
    }
    auto stats = rep.value()->query_stats();
    EXPECT_EQ(ShardFiles(options.ssd_cache_dir), plan) << "pass " << pass;
    EXPECT_LE(DiskBytes(options.ssd_cache_dir), options.ssd_cache_bytes);
    if (pass == 0) {
      EXPECT_EQ(stats.remote_fetches, data_shards);
      // Pass 0 hit every data shard once: the tie keeps the id order,
      // so the second open plans the same shards.
      ASSERT_EQ(plan_now(), plan);
    } else {
      EXPECT_EQ(stats.tier_warm_hits, plan.size());
      EXPECT_EQ(stats.remote_fetches, data_shards - plan.size());
    }
  }
}

TEST(ServeTierTest, DeadPeerFailsFastWithBackoffAndNamesThePeer) {
  GeneratedGraph gg = BarabasiAlbert(90, 3, 107);
  std::vector<uint8_t> bytes = CompressSharded(gg, 3);
  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());
  std::string peer = server.value()->host_port();

  serve::OpenOptions options;
  options.pool_size = 1;
  options.io_timeout_ms = 2000;
  auto rep = serve::OpenRemoteContainer(peer, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value()->num_nodes(), gg.graph.num_nodes());

  // Kill the server before any shard is materialized (a single hub
  // query would warm every shard the hub's edges touch, leaving
  // nothing remote to fail on).
  server.value()->Stop();

  // The first fetch must fail kUnavailable and the message must name
  // the dead peer (the operator needs to know *which* host is down).
  auto first = rep.value()->OutNeighbors(0);
  ASSERT_FALSE(first.ok()) << "shard fetch against a dead peer succeeded";
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(first.status().message().find(peer), std::string::npos)
      << first.status().ToString();

  // With the backoff gate closed, repeated fetches fail immediately
  // instead of re-dialing the dead peer per request.
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 25; ++i) {
    auto r = rep.value()->OutNeighbors(gg.graph.num_nodes() - 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(r.status().message().find(peer), std::string::npos);
  }
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  // 25 gated failures must cost far less than 25 full redial attempts;
  // the bound is loose (CI machines stall) but pins the fail-fast path.
  EXPECT_LT(elapsed, 5.0);
  auto stats = rep.value()->query_stats();
  EXPECT_LT(stats.pool_redials, 25u);
}

// Inner source that must never be reached: the Create test exercises
// the plan and the directory alone.
class NullShardSource : public shard::ShardSource {
 public:
  const char* kind() const override { return "null"; }
  Result<ByteSpan> FetchShard(size_t, std::vector<uint8_t>*) override {
    return Status::Unavailable("null source reached");
  }
};

// Create owns the corpus directory: it keeps the planned shards' files
// and deletes every other `.shard` file — unplanned shards of this
// corpus and stale files of a rebuilt one alike — counting each as an
// eviction. A `.tmp` leftover is not a cache file and stays. The plan
// depends on the rows, the heat and the budget only, so two Creates
// over identical inputs leave identical directories.
TEST(ServeTierTest, CreateKeepsExactlyThePlannedFiles) {
  GeneratedGraph gg = BarabasiAlbert(120, 3, 127);
  auto rows = DirectoryRows(CompressSharded(gg, 6));
  auto stale_rows = DirectoryRows(CompressSharded(ErdosRenyi(120, 360, 7), 4));
  std::vector<uint64_t> heat(rows.size(), 0);
  uint64_t total = 0;
  std::vector<size_t> data;
  for (size_t s = 0; s < rows.size(); ++s) {
    total += rows[s].length;
    if (rows[s].length > 0) data.push_back(s);
  }
  ASSERT_GE(data.size(), 4u);
  heat[data.back()] = 5;
  heat[data[1]] = 3;
  const uint64_t budget = total / 2;
  std::set<std::string> plan = PlannedFiles(rows, heat, budget);
  ASSERT_GT(plan.size(), 0u);
  ASSERT_LT(plan.size(), data.size());
  const std::string tmp = *plan.begin() + ".tmp7";

  auto seed_and_create = [&](const std::string& dir) {
    std::filesystem::create_directories(dir);
    std::vector<uint8_t> blob(64, 0x5a);
    size_t seeded = 0;
    for (const auto* seed_rows : {&rows, &stale_rows}) {
      for (const auto& row : *seed_rows) {
        if (row.length == 0) continue;
        EXPECT_TRUE(WriteFileBytes(dir + "/" + CacheName(row), blob).ok());
        ++seeded;
      }
    }
    EXPECT_TRUE(WriteFileBytes(dir + "/" + tmp, blob).ok());
    serve::TieredShardSource::Options options;
    options.cache_dir = dir;
    options.max_bytes = budget;
    auto tier = serve::TieredShardSource::Create(
        std::make_shared<NullShardSource>(), rows, heat, options);
    EXPECT_TRUE(tier.ok()) << tier.status().ToString();
    api::QueryStats stats;
    tier.value()->AddStats(&stats);
    EXPECT_EQ(stats.tier_evictions, seeded - plan.size());
    EXPECT_EQ(ShardFiles(dir), plan);
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + tmp));
    std::set<std::string> listing;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      listing.insert(entry.path().filename().string());
    }
    return listing;
  };

  ScratchDir scratch_a("create_a");
  ScratchDir scratch_b("create_b");
  auto first = seed_and_create(scratch_a.path + "/cache");
  auto second = seed_and_create(scratch_b.path + "/cache");
  std::set<std::string> expected = plan;
  expected.insert(tmp);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, first);
}

// Warming under load: threads interleave histogram-style Prefetch
// (faults fanned out on the rep's two threads) with point queries on
// one shared mmap-backed rep. Then the same thread shape drives a
// budget-constrained SSD tier, so prefetch faults through the tier
// race its planned-shard reads and writes and its unplanned
// pass-throughs. Answers must stay byte-identical throughout. Runs
// under the TSan CI leg.
TEST(ServeTierTest, EightThreadPinPrefetchEvictionStress) {
  ScratchDir scratch("pin_stress");
  GeneratedGraph gg = BarabasiAlbert(140, 3, 137);
  std::vector<uint8_t> bytes = CompressSharded(gg, 8);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());
  auto rows = DirectoryRows(bytes);
  uint64_t total = 0, largest = 0;
  for (const auto& row : rows) {
    total += row.length;
    largest = std::max(largest, row.length);
  }

  // --- Local leg: prefetch faults racing readers -------------------
  std::string path = scratch.path + "/stress.grc";
  ASSERT_TRUE(
      WriteFileBytes(path, api::WrapCodecPayload("sharded:grepair", bytes))
          .ok());
  auto opened = api::OpenCompressedFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(opened.value().get());
  ASSERT_NE(sharded, nullptr);
  sharded->set_threads(2);

  std::vector<size_t> all_shards(sharded->num_shards());
  for (size_t s = 0; s < all_shards.size(); ++s) all_shards[s] = s;

  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {  // histogram-style warming
        for (int i = 0; i < 20; ++i) sharded->Prefetch(all_shards);
      });
    }
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {  // readers
        for (uint64_t v = static_cast<uint64_t>(t); v < truth.size();
             v += 4) {
          auto r = sharded->OutNeighbors(v);
          if (!r.ok() || r.value() != truth[v]) ++failures;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // --- Tiered leg: tier prefetch racing planned writes -------------
  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());
  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";
  options.ssd_cache_bytes = largest + total / 4;  // plans a subset
  auto remote = serve::OpenRemoteContainer(server.value()->host_port(),
                                           options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto* tiered_rep =
      dynamic_cast<shard::ShardedRep*>(remote.value().get());
  ASSERT_NE(tiered_rep, nullptr);
  tiered_rep->set_threads(2);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {  // tier warms race planned writes
        for (int i = 0; i < 10; ++i) tiered_rep->Prefetch(all_shards);
      });
    }
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        for (uint64_t v = static_cast<uint64_t>(t); v < truth.size();
             v += 6) {
          auto r = tiered_rep->OutNeighbors(v);
          if (!r.ok() || r.value() != truth[v]) ++failures;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(DiskBytes(options.ssd_cache_dir), options.ssd_cache_bytes);
}

TEST(ServeTierTest, StatsVerbReportsPerCorpusHotShardHistograms) {
  GeneratedGraph web = BarabasiAlbert(60, 3, 109);
  GeneratedGraph cite = BarabasiAlbert(45, 3, 113);
  std::vector<uint8_t> web_bytes = CompressSharded(web, 3);
  std::vector<uint8_t> cite_bytes = CompressSharded(cite, 2);
  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("web", SpanOf(web_bytes)).ok());
  ASSERT_TRUE(registry.AddBytes("cite", SpanOf(cite_bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());

  // Touch only "web".
  auto rep = api::OpenRemote(server.value()->host_port() + "/web");
  ASSERT_TRUE(rep.ok());
  for (uint64_t v = 0; v < web.graph.num_nodes(); ++v) {
    ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
  }

  auto stats = serve::FetchServerStats(server.value()->host_port());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().corpora.size(), 2u);
  const auto& web_stats = stats.value().corpora[0];
  const auto& cite_stats = stats.value().corpora[1];
  EXPECT_EQ(web_stats.name, "web");
  EXPECT_EQ(web_stats.inner_name, "grepair");
  EXPECT_EQ(web_stats.num_nodes, web.graph.num_nodes());
  EXPECT_GT(web_stats.requests, 0u);
  uint64_t web_hits = 0;
  for (uint64_t h : web_stats.shard_hits) web_hits += h;
  EXPECT_EQ(web_hits, web_stats.requests);
  EXPECT_EQ(cite_stats.name, "cite");
  EXPECT_EQ(cite_stats.requests, 0u);

  // The directory fetched over the admin path matches a local parse.
  std::string resolved;
  auto dir = serve::FetchCorpusDirectory(server.value()->host_port(), "web",
                                         /*io_timeout_ms=*/5000, &resolved);
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  EXPECT_EQ(resolved, "web");
  auto local_rows = DirectoryRows(web_bytes);
  ASSERT_EQ(dir.value().rows.size(), local_rows.size());
  for (size_t i = 0; i < local_rows.size(); ++i) {
    EXPECT_EQ(dir.value().rows[i].offset, local_rows[i].offset);
    EXPECT_EQ(dir.value().rows[i].length, local_rows[i].length);
    EXPECT_EQ(dir.value().rows[i].checksum, local_rows[i].checksum);
  }
}

// Regression: a corpus rebuilt in place keeps its sidecar path and
// often its shard count, so the size/epoch gates alone would let a
// stale sidecar's histogram warm (or pin) the wrong shards. The open
// must compare the persisted directory's checksum against what the
// server ships and drop the prior outright on mismatch.
TEST(ServeTierTest, StaleSidecarFailsClosedOnRebuiltCorpus) {
  ScratchDir scratch("stale");
  GeneratedGraph old_gg = BarabasiAlbert(80, 3, 127);
  GeneratedGraph new_gg = ErdosRenyi(80, 320, 137);
  std::vector<uint8_t> old_bytes = CompressSharded(old_gg, 4);
  std::vector<uint8_t> new_bytes = CompressSharded(new_gg, 4);
  // Same slot count (so the histogram-size gate passes), different
  // contents (so the checksums differ).
  auto old_rows = DirectoryRows(old_bytes);
  auto new_rows = DirectoryRows(new_bytes);
  ASSERT_EQ(old_rows.size(), new_rows.size());

  // Persist a sidecar for the OLD corpus with a rich histogram and an
  // epoch no fresh server snapshot can beat: absent the checksum gate,
  // this is exactly the prior the epoch comparison would prefer.
  serve::DirSidecar stale;
  {
    auto parsed = shard::ParseContainer(SpanOf(old_bytes));
    ASSERT_TRUE(parsed.ok());
    stale.dir_off = parsed.value().dir_off;
    stale.raw_directory.assign(parsed.value().region.begin(),
                               parsed.value().region.end());
    stale.histogram.assign(old_rows.size(), 999);
    stale.histogram_epoch = ~0ull;
  }
  std::string cache_dir = scratch.path + "/cache";
  std::filesystem::create_directories(cache_dir);
  serve::SaveDirSidecar(serve::DirSidecarPath(cache_dir, ""), stale);

  // Serve the NEW corpus and open through the poisoned cache dir.
  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(new_bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());
  auto truth = LocalTruth(new_bytes, new_gg.graph.num_nodes());

  serve::OpenOptions options;
  options.ssd_cache_dir = cache_dir;
  options.warm_from_histogram = true;
  auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                        options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = rep.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), truth[v]) << "node " << v;
  }

  // The re-persisted sidecar must describe the NEW corpus: its
  // directory bytes are the served ones and the stale histogram (999s
  // under a maximal epoch) was discarded, not carried forward.
  auto saved = serve::LoadDirSidecar(serve::DirSidecarPath(cache_dir, ""));
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto parsed = shard::ParseContainer(SpanOf(new_bytes));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(saved.value().raw_directory,
            std::vector<uint8_t>(parsed.value().region.begin(),
                                 parsed.value().region.end()));
  EXPECT_NE(saved.value().histogram_epoch, ~0ull);
  for (uint64_t hits : saved.value().histogram) {
    EXPECT_NE(hits, 999u) << "stale histogram survived the rebuild";
  }
}

// Regression: dropping a corrupt cache file and refetching its shard
// must keep the tier's footprint exact. With a budget of exactly the
// corpus size every shard is planned, so a refetch replaces its dead
// file and evicts nothing.
TEST(ServeTierTest, RefetchAfterCorruptionKeepsByteAccountingExact) {
  ScratchDir scratch("refetch");
  GeneratedGraph gg = BarabasiAlbert(90, 3, 139);
  std::vector<uint8_t> bytes = CompressSharded(gg, 4);
  auto truth = LocalTruth(bytes, gg.graph.num_nodes());
  uint64_t total = 0;
  for (const auto& row : DirectoryRows(bytes)) total += row.length;

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddBytes("g", SpanOf(bytes)).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok());

  serve::OpenOptions options;
  options.ssd_cache_dir = scratch.path + "/cache";
  options.ssd_cache_bytes = total;  // exactly enough for every shard

  // Warm every shard, then flip a byte in each cached file (size
  // unchanged, so accounting totals are comparable).
  {
    auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                          options);
    ASSERT_TRUE(rep.ok());
    for (uint64_t v = 0; v < truth.size(); ++v) {
      ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
    }
    EXPECT_EQ(rep.value()->query_stats().tier_evictions, 0u);
  }
  size_t vandalized = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(options.ssd_cache_dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".shard") continue;
    auto cached = ReadFileBytes(entry.path().string());
    ASSERT_TRUE(cached.ok());
    std::vector<uint8_t> mutated = std::move(cached).ValueOrDie();
    mutated[mutated.size() / 2] ^= 0x10;
    ASSERT_TRUE(WriteFileBytes(entry.path().string(), mutated).ok());
    ++vandalized;
  }
  ASSERT_GT(vandalized, 0u);

  // Refetch everything. Correct accounting: each drop frees the dead
  // file's bytes before its replacement lands, so the budget that fit
  // the corpus once still fits it — zero evictions, disk at par.
  auto rep = serve::OpenRemoteContainer(server.value()->host_port(),
                                        options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  for (uint64_t v = 0; v < truth.size(); ++v) {
    auto r = rep.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), truth[v]);
  }
  auto stats = rep.value()->query_stats();
  EXPECT_EQ(stats.tier_corrupt_drops, vandalized);
  EXPECT_EQ(stats.tier_evictions, 0u)
      << "refetch-after-corruption double-counted bytes";
  EXPECT_LE(DiskBytes(options.ssd_cache_dir), total);
}

}  // namespace
}  // namespace grepair
