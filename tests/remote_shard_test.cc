// Differential proof that remote == local: an in-process
// serve::ShardServer on a loopback port must answer every query
// byte-identically to a local open of the same GRSHARD2 container —
// for single and batch entry points,
// at 1 and 8 client threads, over shared and per-thread connections,
// at pool sizes 1 and 4. Also pins the remote QueryStats counters,
// remote prefetch, remote Serialize, and the api::OpenRemote entry
// point. The sanitizer CI legs (ASan/UBSan and TSan) run this file:
// the concurrency tests double as the data-race net for the
// server/pool threading.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/api/grepair_api.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace grepair {
namespace {

// A served container: the serialized bytes plus the server exporting
// them. Member order matters — the server (declared last) is
// destroyed first, so it never outlives the bytes it serves
// (CorpusRegistry::AddBytes borrows; the caller keeps storage alive).
struct ServedContainer {
  std::vector<uint8_t> bytes;
  std::unique_ptr<serve::ShardServer> server;

  std::string host_port() const { return server->host_port(); }
};

std::vector<uint8_t> CompressSharded(const GeneratedGraph& gg, int shards) {
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2();
}

// Compresses `gg` with sharded:grepair into a v2 container and serves
// it as the sole corpus "g" on an ephemeral loopback port.
ServedContainer ServeCompressed(const GeneratedGraph& gg, int shards) {
  ServedContainer served;
  served.bytes = CompressSharded(gg, shards);
  serve::CorpusRegistry registry;
  auto added = registry.AddBytes("g", SpanOf(served.bytes));
  EXPECT_TRUE(added.ok()) << added.ToString();
  auto server = serve::ShardServer::Start(std::move(registry));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  served.server = std::move(server).ValueOrDie();
  return served;
}

template <typename T>
void ExpectSameResult(const Result<T>& local, const Result<T>& remote,
                      const std::string& what) {
  ASSERT_EQ(local.ok(), remote.ok())
      << what << ": local " << local.status().ToString() << " vs remote "
      << remote.status().ToString();
  if (local.ok()) {
    EXPECT_EQ(local.value(), remote.value()) << what;
  } else {
    EXPECT_EQ(local.status().code(), remote.status().code()) << what;
  }
}

TEST(RemoteShardTest, AnswersIdenticallyRemoteVsLocal) {
  GeneratedGraph gg = BarabasiAlbert(90, 3, 17);
  ServedContainer served = ServeCompressed(gg, 3);

  auto local = shard::ShardedRep::Deserialize(SpanOf(served.bytes));
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto remote = serve::OpenRemoteContainer(served.host_port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote.value()->num_nodes(), local.value()->num_nodes());

  // Single queries, every node, both directions.
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    ExpectSameResult(local.value()->OutNeighbors(v),
                     remote.value()->OutNeighbors(v),
                     "out[" + std::to_string(v) + "]");
    ExpectSameResult(local.value()->InNeighbors(v),
                     remote.value()->InNeighbors(v),
                     "in[" + std::to_string(v) + "]");
  }
  // Reachability over a deterministic pair sample.
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t i = 0; i < 12; ++i) {
    pairs.push_back({(i * 7) % gg.graph.num_nodes(),
                     (i * 13 + 5) % gg.graph.num_nodes()});
    ExpectSameResult(local.value()->Reachable(pairs.back().first,
                                              pairs.back().second),
                     remote.value()->Reachable(pairs.back().first,
                                               pairs.back().second),
                     "reach " + std::to_string(i));
  }
  // Batch entry points.
  std::vector<uint64_t> all_nodes(gg.graph.num_nodes());
  for (uint64_t v = 0; v < all_nodes.size(); ++v) all_nodes[v] = v;
  ExpectSameResult(local.value()->OutNeighborsBatch(all_nodes),
                   remote.value()->OutNeighborsBatch(all_nodes),
                   "out batch");
  ExpectSameResult(local.value()->ReachableBatch(pairs),
                   remote.value()->ReachableBatch(pairs), "reach batch");

  // Full reconstruction agrees too.
  auto local_graph = local.value()->Decompress();
  auto remote_graph = remote.value()->Decompress();
  ASSERT_EQ(local_graph.ok(), remote_graph.ok());
  if (local_graph.ok()) {
    EXPECT_TRUE(local_graph.value().EqualUpToEdgeOrder(
        remote_graph.value()));
  }
}

TEST(RemoteShardTest, RemoteSerializeMatchesLocalByteForByte) {
  GeneratedGraph gg = BarabasiAlbert(60, 3, 23);
  ServedContainer served = ServeCompressed(gg, 4);
  auto local = shard::ShardedRep::Deserialize(SpanOf(served.bytes));
  ASSERT_TRUE(local.ok());
  auto remote = serve::OpenRemoteContainer(served.host_port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // Remote Serialize fetches every payload across the wire and must
  // reproduce the served GRSHARD2 bytes exactly.
  EXPECT_EQ(remote.value()->Serialize(), served.bytes);
  EXPECT_EQ(remote.value()->Serialize(), local.value()->Serialize());
  EXPECT_EQ(remote.value()->ByteSize(), local.value()->ByteSize());
}

TEST(RemoteShardTest, EightThreadsOnOnePoolMatchTruth) {
  GeneratedGraph gg = BarabasiAlbert(120, 3, 29);
  ServedContainer served = ServeCompressed(gg, 4);

  auto local = shard::ShardedRep::Deserialize(SpanOf(served.bytes));
  ASSERT_TRUE(local.ok());
  std::vector<std::vector<uint64_t>> truth(gg.graph.num_nodes());
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    auto r = local.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok());
    truth[v] = r.value();
  }

  for (int pool_size : {1, 4}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    serve::OpenOptions options;
    options.pool_size = pool_size;
    auto remote = serve::OpenRemoteContainer(served.host_port(), options);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto* sharded = dynamic_cast<shard::ShardedRep*>(remote.value().get());
    ASSERT_NE(sharded, nullptr);
    sharded->set_threads(4);

    std::vector<uint64_t> all_nodes(gg.graph.num_nodes());
    for (uint64_t v = 0; v < all_nodes.size(); ++v) all_nodes[v] = v;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        if (t % 2 == 0) {
          auto batch = remote.value()->OutNeighborsBatch(all_nodes);
          if (!batch.ok()) {
            ++failures;
            return;
          }
          for (uint64_t v = 0; v < all_nodes.size(); ++v) {
            if (batch.value()[v] != truth[v]) ++failures;
          }
        } else {
          for (uint64_t v = t; v < all_nodes.size(); v += 3) {
            auto r = remote.value()->OutNeighbors(v);
            if (!r.ok() || r.value() != truth[v]) ++failures;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    // Concurrent faults still fetch each shard at most once.
    auto stats = remote.value()->query_stats();
    EXPECT_LE(stats.remote_fetches, sharded->num_shards());
    EXPECT_GT(stats.remote_bytes, 0u);
    EXPECT_GE(stats.pool_dials, 1u);
    EXPECT_EQ(stats.pool_redials, 0u);
    // One request per connection at a time.
    EXPECT_LE(stats.pool_peak_in_flight, static_cast<uint64_t>(pool_size));
  }
}

// A slot that sits idle longer than io_timeout_ms keeps its
// connection: the timeout bounds round trips, not the gaps between
// them, so the next fetch reuses the socket instead of redialing and
// downloading the directory again.
TEST(RemoteShardTest, IdleSlotStaysConnected) {
  GeneratedGraph gg = BarabasiAlbert(90, 3, 47);
  ServedContainer served = ServeCompressed(gg, 3);
  serve::OpenOptions options;
  options.pool_size = 1;
  options.io_timeout_ms = 300;
  options.warm_from_histogram = false;
  auto remote = serve::OpenRemoteContainer(served.host_port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  remote.value()->Prefetch({0});
  std::this_thread::sleep_for(std::chrono::seconds(1));
  remote.value()->Prefetch({1});
  auto stats = remote.value()->query_stats();
  EXPECT_EQ(stats.remote_fetches, 2u);
  EXPECT_EQ(stats.pool_dials, 1u);
  EXPECT_EQ(stats.pool_redials, 0u);
}

TEST(RemoteShardTest, EightIndependentClientsMatchTruth) {
  GeneratedGraph gg = BarabasiAlbert(80, 3, 31);
  ServedContainer served = ServeCompressed(gg, 3);

  auto local = shard::ShardedRep::Deserialize(SpanOf(served.bytes));
  ASSERT_TRUE(local.ok());
  std::vector<std::vector<uint64_t>> truth(gg.graph.num_nodes());
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    auto r = local.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok());
    truth[v] = r.value();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      serve::OpenOptions options;
      options.pool_size = 1;
      auto rep = serve::OpenRemoteContainer(served.host_port(), options);
      if (!rep.ok()) {
        ++failures;
        return;
      }
      for (uint64_t v = 0; v < truth.size(); ++v) {
        auto r = rep.value()->OutNeighbors(v);
        if (!r.ok() || r.value() != truth[v]) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(served.server->stats().connections, 8u);
}

TEST(RemoteShardTest, RemotePrefetchWarmsShardsOverTheWire) {
  GeneratedGraph gg = BarabasiAlbert(70, 3, 37);
  ServedContainer served = ServeCompressed(gg, 3);
  auto remote = serve::OpenRemoteContainer(served.host_port());
  ASSERT_TRUE(remote.ok());
  auto* sharded = dynamic_cast<shard::ShardedRep*>(remote.value().get());
  ASSERT_NE(sharded, nullptr);

  sharded->set_threads(2);
  sharded->PrefetchAll();
  auto warm = remote.value()->query_stats();
  EXPECT_GT(warm.shard_faults, 0u);
  EXPECT_EQ(warm.remote_fetches, warm.shard_faults);

  // Everything resident: queries cross no more wire.
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    ASSERT_TRUE(remote.value()->OutNeighbors(v).ok());
  }
  EXPECT_EQ(remote.value()->query_stats().remote_fetches,
            warm.remote_fetches);
}

TEST(RemoteShardTest, ApiOpenRemoteEntryPoint) {
  GeneratedGraph gg = BarabasiAlbert(50, 3, 41);
  ServedContainer served = ServeCompressed(gg, 2);
  // Both the bare "host:port" form (sole corpus) and the explicit
  // "host:port/name" form resolve.
  for (const std::string& target :
       {served.host_port(), served.host_port() + "/g"}) {
    SCOPED_TRACE("target " + target);
    auto rep = api::OpenRemote(target);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    auto out = rep.value()->OutNeighbors(0);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto local = shard::ShardedRep::Deserialize(SpanOf(served.bytes));
    ASSERT_TRUE(local.ok());
    auto local_out = local.value()->OutNeighbors(0);
    ASSERT_TRUE(local_out.ok());
    EXPECT_EQ(out.value(), local_out.value());
    // The remote rep names its source.
    auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
    ASSERT_NE(sharded, nullptr);
    EXPECT_STREQ(sharded->store().source_kind(), "remote");
  }
}

TEST(RemoteShardTest, ServingRefusesOtherVersionsAndNonShardedPayloads) {
  GeneratedGraph gg = BarabasiAlbert(40, 3, 43);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "2");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok());

  auto other_version = rep.value()->Serialize();
  other_version[7] = '1';  // "GRSHARD1": not a servable container
  serve::CorpusRegistry registry;
  Status refused = registry.AddBytes("g", SpanOf(other_version));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kCorruption);
  EXPECT_NE(refused.message().find("not a sharded v2 container"),
            std::string::npos)
      << refused.ToString();

  // A bare single-codec payload is not a container; tagged, it is an
  // old single-codec file that must be recompressed.
  auto plain = api::CodecRegistry::Create("grepair").ValueOrDie();
  auto plain_rep = plain->Compress(gg.graph, gg.alphabet);
  ASSERT_TRUE(plain_rep.ok());
  auto plain_bytes = plain_rep.value()->Serialize();
  EXPECT_EQ(registry.AddBytes("plain", SpanOf(plain_bytes)).code(),
            StatusCode::kCorruption);
  Status tagged = registry.AddBytes(
      "plain", SpanOf(api::WrapCodecPayload("grepair", plain_bytes)));
  EXPECT_EQ(tagged.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tagged.message().find("recompress"), std::string::npos)
      << tagged.ToString();

  std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_FALSE(registry.AddBytes("bad", SpanOf(garbage)).ok());

  // A registry that ends up empty refuses to start serving.
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

// A pool slot that loses its server redials it, and the redial checks
// the directory it is served against the one connect parsed. A server
// restarted on the same port with another corpus under the same name
// fails the redial with the shape error; one restarted with identical
// bytes serves the same payloads again.
TEST(RemoteShardTest, RedialChecksTheRestartedServersDirectory) {
  std::vector<uint8_t> bytes =
      CompressSharded(BarabasiAlbert(120, 3, 7), 3);
  std::vector<uint8_t> other =
      CompressSharded(BarabasiAlbert(160, 3, 8), 3);
  ASSERT_NE(bytes, other);
  auto serve_on = [](const std::vector<uint8_t>& corpus, uint16_t port) {
    serve::CorpusRegistry registry;
    EXPECT_TRUE(registry.AddBytes("g", SpanOf(corpus)).ok());
    serve::ShardServer::Options options;
    options.port = port;
    auto server = serve::ShardServer::Start(std::move(registry), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).ValueOrDie();
  };

  auto server = serve_on(bytes, 0);
  const uint16_t port = server->port();
  serve::RemoteShardSource::Options options;
  options.pool_size = 1;
  options.io_timeout_ms = 5000;
  auto source =
      serve::RemoteShardSource::Connect(server->host_port(), "g", options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  std::vector<uint8_t> owned;
  auto first = source.value()->FetchShard(0, &owned);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::vector<uint8_t> shard0(first.value().data,
                                    first.value().data + first.value().size);

  server->Stop();
  server = serve_on(other, port);
  auto changed = source.value()->FetchShard(0, &owned);
  ASSERT_FALSE(changed.ok());
  EXPECT_EQ(changed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(changed.status().message().find("changed shape since connect"),
            std::string::npos)
      << changed.status().ToString();

  server->Stop();
  server = serve_on(bytes, port);
  auto again = source.value()->FetchShard(0, &owned);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(std::vector<uint8_t>(again.value().data,
                                 again.value().data + again.value().size),
            shard0);
  api::QueryStats stats;
  source.value()->AddStats(&stats);
  EXPECT_GE(stats.pool_redials, 1u);
}

TEST(RemoteShardTest, ConnectErrorsAreCleanStatuses) {
  // Malformed spec.
  auto bad_spec = api::OpenRemote("not-a-host-port");
  ASSERT_FALSE(bad_spec.ok());
  EXPECT_EQ(bad_spec.status().code(), StatusCode::kInvalidArgument);

  // A port that was just released: connection refused, not a hang —
  // and the failure names the unreachable peer.
  uint16_t dead_port = 0;
  {
    auto listener = Socket::ListenTcp("127.0.0.1", 0, &dead_port);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  }
  std::string peer = "127.0.0.1:" + std::to_string(dead_port);
  api::RemoteOptions options;
  options.io_timeout_ms = 2000;
  auto refused = api::OpenRemote(peer, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find(peer), std::string::npos)
      << refused.status().ToString();
}

}  // namespace
}  // namespace grepair
