// Lazy-open semantics of the zero-copy storage layer (ShardStore,
// src/shard/shard_store.h): a GRSHARD2 container opened via mmap (or
// from memory) materializes exactly the shards queries touch, evicted
// shards re-fault byte-identically, payload corruption fails closed at
// fault time, concurrent queries and prefetches on one mapping are
// race-free (the TSan CI leg runs this file), and a decode racing a
// delta's publish is not cached. Also covers MmapFile's error surface
// and the api-level Open entry points. A container whose header claims
// 2^32-1 nodes answers queries, edits and folds without an allocation
// sized by that count: this binary replaces the global operator
// new/delete to record the largest request.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace {

std::atomic<size_t> g_largest_allocation{0};

void* RecordedAlloc(size_t size) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every throwing and nothrow form routes through malloc/free, so the
// sanitizers see matching pairs; out of line, as in attachments_test.
[[gnu::noinline]] void* operator new(size_t size) {
  if (void* p = RecordedAlloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](size_t size) {
  if (void* p = RecordedAlloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(size_t size,
                                     const std::nothrow_t&) noexcept {
  return RecordedAlloc(size);
}
[[gnu::noinline]] void* operator new[](size_t size,
                                       const std::nothrow_t&) noexcept {
  return RecordedAlloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace grepair {
namespace {

// Two disjoint directed 4-cliques over nodes {0..3} and {4..7}, edges
// emitted clique-by-clique so an edge-range split into 2 shards puts
// each clique in exactly one shard (shard 0 owns {0..3}, shard 1 owns
// {4..7}, cut shard empty) — which is what lets the tests pin "one
// query faults exactly one shard".
Hypergraph TwoCliqueGraph() {
  Hypergraph g(8);
  for (NodeId base : {NodeId{0}, NodeId{4}}) {
    for (NodeId u = 0; u < 4; ++u) {
      for (NodeId v = 0; v < 4; ++v) {
        if (u != v) g.AddSimpleEdge(base + u, base + v, 0);
      }
    }
  }
  return g;
}

Alphabet OneLabel() {
  Alphabet a;
  a.Add("e", 2);
  return a;
}

// A sharded:grepair rep of the two-clique fixture (2 data shards).
std::unique_ptr<api::CompressedRep> CompressTwoClique() {
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "2");
  options.Set("threads", "1");
  auto rep = codec->Compress(TwoCliqueGraph(), OneLabel(), options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return std::move(rep).ValueOrDie();
}

shard::ShardedRep* AsSharded(api::CompressedRep* rep) {
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep);
  EXPECT_NE(sharded, nullptr);
  return sharded;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "grepair_lazy_" +
         std::to_string(::getpid()) + "_" + name;
}

TEST(LazyOpenTest, QueryingOneNodeFaultsExactlyOneShard) {
  auto compressed = CompressTwoClique();
  auto v2 = AsSharded(compressed.get())->SerializeV2();

  auto rep = shard::ShardedRep::Deserialize(v2);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_STREQ(rep.value()->store().source_kind(), "local-heap");
  EXPECT_EQ(rep.value()->query_stats().shard_faults, 0u);

  // Node 0 lives only in shard 0: exactly one fault.
  auto out = rep.value()->OutNeighbors(0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), std::vector<uint64_t>({1, 2, 3}));
  EXPECT_EQ(rep.value()->query_stats().shard_faults, 1u);

  // More queries inside the same clique: still one fault.
  for (uint64_t v : {1, 2, 3}) {
    ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
  }
  EXPECT_EQ(rep.value()->query_stats().shard_faults, 1u);

  // Crossing into the other clique faults the second shard.
  auto out4 = rep.value()->OutNeighbors(4);
  ASSERT_TRUE(out4.ok());
  EXPECT_EQ(out4.value(), std::vector<uint64_t>({5, 6, 7}));
  EXPECT_EQ(rep.value()->query_stats().shard_faults, 2u);
}

TEST(LazyOpenTest, MmapOpenFaultsLazilyThroughTheCodecApi) {
  auto compressed = CompressTwoClique();
  auto wrapped = api::WrapCodecPayload(
      "sharded:grepair", AsSharded(compressed.get())->SerializeV2());
  std::string path = TempPath("open.bin");
  ASSERT_TRUE(WriteFileBytes(path, wrapped).ok());

  auto rep = api::OpenCompressedFile(path);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value()->inner_name(), "grepair");
  ASSERT_NE(AsSharded(rep.value().get()), nullptr);

  auto out = rep.value()->OutNeighbors(5);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), std::vector<uint64_t>({4, 6, 7}));
  EXPECT_EQ(rep.value()->query_stats().shard_faults, 1u);

  // A fresh open stays lazy: nothing is faulted before a query.
  auto reopened = api::OpenCompressedFile(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->query_stats().shard_faults, 0u);

  // The frame is the only way in: the same payload without the
  // backend tag is refused, not guessed at.
  std::string bare = TempPath("bare.bin");
  ASSERT_TRUE(
      WriteFileBytes(bare, AsSharded(compressed.get())->SerializeV2()).ok());
  auto untagged = api::OpenCompressedFile(bare);
  ASSERT_FALSE(untagged.ok());
  EXPECT_EQ(untagged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(untagged.status().message().find("not a backend-tagged"),
            std::string::npos)
      << untagged.status().ToString();
  std::remove(path.c_str());
  std::remove(bare.c_str());
}

TEST(LazyOpenTest, CompressedAndReopenedRepsAgree) {
  GeneratedGraph gg = BarabasiAlbert(80, 3, 7);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto compressed = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(compressed.ok());
  auto* compressed_sharded = AsSharded(compressed.value().get());

  auto lazy = shard::ShardedRep::Deserialize(compressed_sharded->SerializeV2());
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();

  // Both serialize to the same GRSHARD2 bytes — without faulting a
  // single shard.
  EXPECT_EQ(lazy.value()->Serialize(), compressed_sharded->Serialize());
  EXPECT_EQ(lazy.value()->query_stats().shard_faults, 0u);
  EXPECT_EQ(lazy.value()->ByteSize(), compressed_sharded->ByteSize());

  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    auto a = compressed.value()->OutNeighbors(v);
    auto b = lazy.value()->OutNeighbors(v);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value()) << "node " << v;
    auto ai = compressed.value()->InNeighbors(v);
    auto bi = lazy.value()->InNeighbors(v);
    ASSERT_TRUE(ai.ok() && bi.ok());
    EXPECT_EQ(ai.value(), bi.value()) << "node " << v;
  }
  auto ga = compressed.value()->Decompress();
  auto gb = lazy.value()->Decompress();
  ASSERT_TRUE(ga.ok() && gb.ok());
  EXPECT_TRUE(ga.value().EqualUpToEdgeOrder(gb.value()));
}

TEST(LazyOpenTest, EvictionThenRefaultIsByteIdentical) {
  auto compressed = CompressTwoClique();
  auto rep = shard::ShardedRep::Deserialize(
      AsSharded(compressed.get())->SerializeV2());
  ASSERT_TRUE(rep.ok());

  // Ground truth from the compressed rep.
  std::vector<std::vector<uint64_t>> truth(8);
  for (uint64_t v = 0; v < 8; ++v) {
    auto r = compressed->OutNeighbors(v);
    ASSERT_TRUE(r.ok());
    truth[v] = r.value();
  }

  // Measure each clique shard's decoded size on a probe rep: a batch
  // over one shard's nodes decodes exactly that shard into the cache.
  auto probe = shard::ShardedRep::Deserialize(
      AsSharded(compressed.get())->SerializeV2());
  ASSERT_TRUE(probe.ok());
  size_t largest_shard = 0;
  for (size_t i = 0; i < probe.value()->num_shards(); ++i) {
    if (!probe.value()->entry(i).has_payload()) continue;
    const auto& nodes = probe.value()->entry(i).nodes;
    size_t before = probe.value()->query_stats().cache_bytes_used;
    ASSERT_TRUE(probe.value()
                    ->OutNeighborsBatch(
                        std::vector<uint64_t>(nodes.begin(), nodes.end()))
                    .ok());
    size_t after = probe.value()->query_stats().cache_bytes_used;
    ASSERT_GT(after, before) << "shard " << i << " was not decoded";
    largest_shard = std::max(largest_shard, after - before);
  }

  // A budget of the largest decoded shard fits either clique shard
  // alone but never both, so the sweep forces decoded-neighborhood
  // evictions between queries; every re-fault must reproduce the same
  // answers.
  rep.value()->set_query_cache_bytes(largest_shard);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t v = 0; v < 8; ++v) {
      auto r = rep.value()->OutNeighbors(v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), truth[v]) << "round " << round << " node " << v;
    }
  }
  // The two clique shards cannot both stay resident once promoted,
  // so the sweep above must have evicted.
  auto stats = rep.value()->query_stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_GT(stats.shard_decodes, 1u);
}

TEST(LazyOpenTest, PayloadCorruptionFailsClosedAtFaultTime) {
  auto compressed = CompressTwoClique();
  auto v2 = AsSharded(compressed.get())->SerializeV2();
  auto parsed = shard::ParseContainer(SpanOf(v2));
  ASSERT_TRUE(parsed.ok());
  // Corrupt one byte inside shard 0's payload: the open (directory
  // only) must still succeed, the first touch of shard 0 must fail
  // with a checksum error, and shard 1 must stay fully queryable.
  v2[parsed.value().dir.rows[0].offset] ^= 0x01;
  auto rep = shard::ShardedRep::Deserialize(v2);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto bad = rep.value()->OutNeighbors(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
      << bad.status().ToString();
  auto good = rep.value()->OutNeighbors(4);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value(), std::vector<uint64_t>({5, 6, 7}));
  EXPECT_FALSE(rep.value()->Decompress().ok());
}

TEST(LazyOpenTest, PrefetchWarmsShardsAheadOfQueries) {
  auto compressed = CompressTwoClique();
  auto rep = shard::ShardedRep::Deserialize(
      AsSharded(compressed.get())->SerializeV2());
  ASSERT_TRUE(rep.ok());

  // PrefetchAll returns once every shard is resident: no wait.
  rep.value()->set_threads(2);
  rep.value()->PrefetchAll();
  auto stats = rep.value()->query_stats();
  EXPECT_EQ(stats.shard_faults, 2u);       // both data shards warmed
  EXPECT_EQ(stats.shards_prefetched, 2u);  // ...by Prefetch

  // Queries find everything resident: no further faults.
  for (uint64_t v = 0; v < 8; ++v) {
    ASSERT_TRUE(rep.value()->OutNeighbors(v).ok());
  }
  EXPECT_EQ(rep.value()->query_stats().shard_faults, 2u);
}

TEST(LazyOpenTest, PrefetchedMmapFileDecompressesAndAnswers) {
  auto compressed = CompressTwoClique();
  auto wrapped = api::WrapCodecPayload(
      "sharded:grepair", AsSharded(compressed.get())->SerializeV2());
  std::string path = TempPath("prefetched.bin");
  ASSERT_TRUE(WriteFileBytes(path, wrapped).ok());

  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  bool mapped = file.value()->is_mapped();

  auto rep = api::OpenCompressedFile(path);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* sharded = AsSharded(rep.value().get());
  EXPECT_STREQ(sharded->store().source_kind(),
               mapped ? "local-mmap" : "local-heap");

  // Decompress after a prefetch has faulted every shard; point
  // queries still answer from the same store afterwards.
  sharded->PrefetchAll();
  ASSERT_TRUE(rep.value()->Decompress().ok());
  auto out = rep.value()->OutNeighbors(0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), std::vector<uint64_t>({1, 2, 3}));
  std::remove(path.c_str());
}

TEST(LazyOpenTest, ConcurrentQueriesAndPrefetchesAreRaceFree) {
  GeneratedGraph gg = BarabasiAlbert(120, 3, 11);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "4");
  auto compressed = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(compressed.ok());
  auto* compressed_sharded = AsSharded(compressed.value().get());

  std::vector<std::vector<uint64_t>> truth(gg.graph.num_nodes());
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    auto r = compressed.value()->OutNeighbors(v);
    ASSERT_TRUE(r.ok());
    truth[v] = r.value();
  }

  auto lazy = shard::ShardedRep::Deserialize(compressed_sharded->SerializeV2());
  ASSERT_TRUE(lazy.ok());
  lazy.value()->set_threads(4);

  // 8 threads race single queries, batches and a prefetch fanned out
  // on the rep's threads over one cold mapping; every shard fault is
  // contended.
  std::vector<uint64_t> all_nodes(gg.graph.num_nodes());
  for (uint64_t v = 0; v < all_nodes.size(); ++v) all_nodes[v] = v;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      if (t == 0) lazy.value()->PrefetchAll();
      if (t % 2 == 0) {
        auto batch = lazy.value()->OutNeighborsBatch(all_nodes);
        if (!batch.ok()) {
          ++failures;
          return;
        }
        for (uint64_t v = 0; v < all_nodes.size(); ++v) {
          if (batch.value()[v] != truth[v]) ++failures;
        }
      } else {
        for (uint64_t v = t; v < all_nodes.size(); v += 3) {
          auto r = lazy.value()->OutNeighbors(v);
          if (!r.ok() || r.value() != truth[v]) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Each shard faulted at most once no matter how many threads raced.
  auto stats = lazy.value()->query_stats();
  EXPECT_LE(stats.shard_faults, lazy.value()->num_shards());
}

// Serves a container's payloads, but holds the fetch of shard `gated`
// until `release` is set, so a test can land a delta mid-fault.
struct GatedSource : shard::ShardSource {
  std::vector<uint8_t> container;
  std::vector<shard::ShardDirEntry> rows;
  size_t gated = 0;
  std::promise<void> entered;
  std::promise<void> release;

  const char* kind() const override { return "gated"; }

  Result<ByteSpan> FetchShard(size_t shard,
                              std::vector<uint8_t>* owned) override {
    (void)owned;
    if (shard == gated) {
      entered.set_value();
      release.get_future().wait();
    }
    return SpanOf(container).subspan(rows[shard].offset, rows[shard].length);
  }
};

TEST(LazyOpenTest, DecodeRacingADeltaIsNotCached) {
  // A batch decodes shard 0 while a delta replaces that shard: the
  // pre-delta decode must not be cached, or later batches would keep
  // answering from the old grammar.
  auto compressed = CompressTwoClique();
  const std::vector<uint8_t> bytes = AsSharded(compressed.get())->Serialize();

  // The delta: drop 0->1 and 0->2, folded into shard 0's grammar.
  auto editor = shard::ShardedRep::Deserialize(bytes);
  ASSERT_TRUE(editor.ok()) << editor.status().ToString();
  ASSERT_TRUE(editor.value()
                  ->ApplyEdits({shard::EdgeEdit::Delete(0, 1),
                                shard::EdgeEdit::Delete(0, 2)})
                  .ok());
  ASSERT_TRUE(editor.value()->FoldOverlay().ok());
  ASSERT_EQ(editor.value()->query_stats().shard_folds, 1u);
  auto delta = editor.value()->BuildDelta(0, 0);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta.value().shards.size(), 1u);
  ASSERT_EQ(delta.value().shards[0].index, 0u);

  auto parsed = shard::ParseContainer(SpanOf(bytes)).ValueOrDie();
  auto source = std::make_shared<GatedSource>();
  source->container = bytes;
  source->rows = parsed.dir.rows;
  std::future<void> entered = source->entered.get_future();
  auto rep = shard::ShardedRep::OpenFromSource(source, parsed.dir);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const std::vector<uint64_t> nodes = {0, 1};  // two queries: decode now

  std::thread reader([&] {
    auto answers = rep.value()->OutNeighborsBatch(nodes);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  });
  entered.wait();  // the batch's decode is blocked in the fetch
  EXPECT_TRUE(rep.value()->ApplyDelta(delta.value()).ok());
  source->release.set_value();
  reader.join();

  auto after = rep.value()->OutNeighborsBatch(nodes);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value()[0], std::vector<uint64_t>({3}));
  EXPECT_EQ(after.value()[1], std::vector<uint64_t>({0, 2, 3}));
}

TEST(LazyOpenTest, HugeClaimedNodeCountAllocatesByTheMapsOnly) {
  // One real 3-node shard (a -> b -> c) under a header claiming 2^32-1
  // nodes; its map puts a, b and c at globals 7, 2^20 and 2^32-3. Every
  // query, edit and fold must answer from the map, with no allocation
  // sized by the claimed node count.
  constexpr uint64_t kA = 7, kB = 1u << 20, kC = 0xFFFFFFFDull;
  constexpr uint64_t kUnmapped = 0xFFFFFFFEull;  // valid, in no map
  Hypergraph path(3);
  path.AddSimpleEdge(0, 1, 0);
  path.AddSimpleEdge(1, 2, 0);
  auto inner = api::CodecRegistry::Create("grepair").ValueOrDie();
  auto shard_rep = inner->Compress(path, OneLabel(), api::CodecOptions());
  ASSERT_TRUE(shard_rep.ok()) << shard_rep.status().ToString();
  const std::vector<uint8_t> payload = shard_rep.value()->Serialize();
  shard::V2Encoder encoder(/*num_nodes=*/0xFFFFFFFFull, 1);
  encoder.AddShard({kA, kB, kC}, SpanOf(payload),
                   HashBytes(payload.data(), payload.size()));
  const std::vector<uint8_t> bytes = std::move(encoder).Finish();

  g_largest_allocation.store(0);
  auto rep = shard::ShardedRep::Deserialize(bytes);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  shard::ShardedRep& sharded = *rep.value();
  ASSERT_EQ(sharded.num_nodes(), 0xFFFFFFFFull);
  using Ids = std::vector<uint64_t>;
  auto out = [&](uint64_t v) { return sharded.OutNeighbors(v).ValueOrDie(); };
  auto in = [&](uint64_t v) { return sharded.InNeighbors(v).ValueOrDie(); };
  EXPECT_EQ(out(kA), Ids({kB}));
  EXPECT_EQ(in(kB), Ids({kA}));
  EXPECT_EQ(out(kB), Ids({kC}));
  EXPECT_EQ(out(kUnmapped), Ids());
  EXPECT_EQ(in(kUnmapped), Ids());
  auto batch = sharded.OutNeighborsBatch({kUnmapped, kA, kUnmapped, kB});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value(),
            std::vector<Ids>({Ids(), Ids({kB}), Ids(), Ids({kC})}));

  // a -> c and a kill of a -> b fold into the shard; the edge from the
  // unmapped id stays in the overlay.
  ASSERT_TRUE(sharded
                  .ApplyEdits({shard::EdgeEdit::Add(kA, kC),
                               shard::EdgeEdit::Delete(kA, kB),
                               shard::EdgeEdit::Add(kUnmapped, kA)})
                  .ok());
  EXPECT_EQ(out(kA), Ids({kC}));
  EXPECT_EQ(in(kA), Ids({kUnmapped}));
  sharded.set_overlay_budget_bytes(0);
  ASSERT_TRUE(sharded.FoldOverlay().ok());
  EXPECT_EQ(sharded.query_stats().shard_folds, 1u);
  EXPECT_EQ(sharded.query_stats().overlay_edits, 1u);
  EXPECT_EQ(out(kA), Ids({kC}));
  EXPECT_EQ(in(kB), Ids());
  EXPECT_EQ(in(kC), Ids({kA, kB}));
  EXPECT_EQ(out(kUnmapped), Ids({kA}));
  batch = sharded.OutNeighborsBatch({kA, kUnmapped, kB});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value(), std::vector<Ids>({Ids({kC}), Ids({kA}), Ids({kC})}));
  EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20);
}

TEST(MmapFileTest, ErrorsNameThePath) {
  auto missing = MmapFile::Open("/nonexistent/grepair-no-such-file");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("grepair-no-such-file"),
            std::string::npos);

  std::string path = TempPath("bytes.bin");
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(WriteFileBytes(path, payload).ok());
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value()->span().ToVector(), payload);
  EXPECT_EQ(file.value()->path(), path);

  // Empty files open cleanly with an empty span.
  ASSERT_TRUE(WriteFileBytes(path, {}).ok());
  auto empty = MmapFile::Open(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value()->size(), 0u);
  std::remove(path.c_str());

  auto bad_read = ReadFileBytes("/nonexistent/grepair-no-such-file");
  ASSERT_FALSE(bad_read.ok());
  EXPECT_EQ(bad_read.status().code(), StatusCode::kNotFound);
}

TEST(OpenCompressedFileTest, RejectsNonContainersWithCleanStatus) {
  std::string path = TempPath("raw.bin");
  ASSERT_TRUE(WriteFileBytes(path, {0x01, 0x02, 0x03}).ok());
  auto rep = api::OpenCompressedFile(path);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rep.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace grepair
