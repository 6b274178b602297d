// The batch query engine and the store's one query cache (the
// decoded-shard cache behind ShardStore::Answer), end to end:
//
//   * cached (warm) and batched answers are byte-identical to fresh
//     uncached single-call answers, against ground truth,
//   * for every thread count (1 vs 8) and cache configuration
//     (default, tiny-budget eviction path, disabled),
//   * the grammar-direct memo tables (grepair) change nothing about
//     answers while filling their counters,
//   * batches reject invalid input as a whole and handle empties,
//   * the owner index routes every id to exactly the shards whose node
//     maps hold it.
//
// Everything here runs on small generated graphs so the suite stays
// fast under TSan; the `query` gate of bench/gates.cc owns the timing
// claims.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/util/rng.h"

namespace grepair {
namespace api {
namespace {

// Ground-truth sorted unique out/in neighbors from the input graph.
std::vector<uint64_t> TruthNeighbors(const Hypergraph& g, uint64_t node,
                                     bool out) {
  std::vector<uint64_t> result;
  for (const HEdge& e : g.edges()) {
    if (e.att.size() != 2) continue;
    if (out && e.att[0] == node) result.push_back(e.att[1]);
    if (!out && e.att[1] == node) result.push_back(e.att[0]);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::unique_ptr<CompressedRep> MakeSharded(const GeneratedGraph& gg,
                                           const char* backend = "sharded:grepair",
                                           int shards = 4) {
  auto codec = CodecRegistry::Create(backend).ValueOrDie();
  CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  // Coverage guard: every test here queries most nodes, so some node
  // sitting in two or more shards' node maps keeps the multi-owner
  // merge of OutNeighborsBatch/RoutedNeighbors under test.
  const auto& sharded = dynamic_cast<const shard::ShardedRep&>(*rep.value());
  size_t max_owners = 0;
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    size_t owners = 0;
    for (size_t k = 0; k < sharded.num_shards(); ++k) {
      const auto& nodes = sharded.entry(k).nodes;
      owners += std::binary_search(nodes.begin(), nodes.end(), v);
    }
    max_owners = std::max(max_owners, owners);
  }
  EXPECT_GE(max_owners, 2u) << gg.name;
  return std::move(rep).ValueOrDie();
}

shard::ShardedRep* AsSharded(CompressedRep* rep) {
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep);
  EXPECT_NE(sharded, nullptr);
  return sharded;
}

TEST(QueryCacheTest, WarmAnswersIdenticalToColdAndGroundTruth) {
  GeneratedGraph gg = BarabasiAlbert(150, 3, 5);
  auto rep = MakeSharded(gg);
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
      auto out = rep->OutNeighbors(v);
      auto in = rep->InNeighbors(v);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_TRUE(in.ok()) << in.status().ToString();
      EXPECT_EQ(out.value(), TruthNeighbors(gg.graph, v, true))
          << "pass " << pass << " node " << v;
      EXPECT_EQ(in.value(), TruthNeighbors(gg.graph, v, false))
          << "pass " << pass << " node " << v;
    }
  }
  // Three full passes over every node must have warmed the cache.
  QueryStats stats = rep->query_stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.single_queries, 0u);
}

TEST(QueryCacheTest, BatchMatchesSinglesAndIsThreadCountInvariant) {
  GeneratedGraph gg = CoAuthorship(200, 260, 17);
  auto rep_single = MakeSharded(gg);
  auto rep_t1 = MakeSharded(gg);
  auto rep_t8 = MakeSharded(gg);
  AsSharded(rep_t1.get())->set_threads(1);
  AsSharded(rep_t8.get())->set_threads(8);

  std::vector<uint64_t> nodes;
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) {
    nodes.push_back(v);
    if (v % 3 == 0) nodes.push_back(v);  // repeats exercise the dedup
  }
  auto b1 = rep_t1->OutNeighborsBatch(nodes);
  auto b8 = rep_t8->OutNeighborsBatch(nodes);
  ASSERT_TRUE(b1.ok()) << b1.status().ToString();
  ASSERT_TRUE(b8.ok()) << b8.status().ToString();
  EXPECT_EQ(b1.value(), b8.value());
  for (size_t j = 0; j < nodes.size(); ++j) {
    auto single = rep_single->OutNeighbors(nodes[j]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(b1.value()[j], single.value()) << "batch index " << j;
    EXPECT_EQ(b1.value()[j], TruthNeighbors(gg.graph, nodes[j], true));
  }
  QueryStats stats = rep_t8->query_stats();
  EXPECT_EQ(stats.batch_calls, 1u);
  EXPECT_EQ(stats.batch_items, nodes.size());
}

TEST(QueryCacheTest, DisabledAndTinyCachesStayCorrect) {
  GeneratedGraph gg = ErdosRenyi(120, 360, 23);
  auto rep_default = MakeSharded(gg);
  auto rep_disabled = MakeSharded(gg);
  auto rep_tiny = MakeSharded(gg);
  AsSharded(rep_disabled.get())->set_query_cache_bytes(0);
  // A budget that fits roughly one decoded shard forces the eviction
  // path on every shard change.
  AsSharded(rep_tiny.get())->set_query_cache_bytes(4096);

  std::vector<uint64_t> nodes;
  for (uint64_t v = 0; v < gg.graph.num_nodes(); ++v) nodes.push_back(v);
  for (int pass = 0; pass < 2; ++pass) {
    auto d = rep_default->OutNeighborsBatch(nodes);
    auto off = rep_disabled->OutNeighborsBatch(nodes);
    auto tiny = rep_tiny->OutNeighborsBatch(nodes);
    ASSERT_TRUE(d.ok() && off.ok() && tiny.ok());
    EXPECT_EQ(d.value(), off.value());
    EXPECT_EQ(d.value(), tiny.value());
  }
  // Disabled means disabled: no decodes, no hits, no footprint.
  QueryStats off_stats = rep_disabled->query_stats();
  EXPECT_EQ(off_stats.shard_decodes, 0u);
  EXPECT_EQ(off_stats.cache_hits, 0u);
  EXPECT_EQ(off_stats.cache_bytes_used, 0u);
  QueryStats tiny_stats = rep_tiny->query_stats();
  EXPECT_LE(tiny_stats.cache_bytes_used, 4096u);
}

TEST(QueryCacheTest, ReachableBatchMatchesSinglesAcrossThreads) {
  GeneratedGraph gg = BarabasiAlbert(90, 2, 31);
  auto rep_single = MakeSharded(gg);
  auto rep_batch = MakeSharded(gg);
  AsSharded(rep_batch.get())->set_threads(8);

  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t v = 0; v < gg.graph.num_nodes(); v += 2) {
    pairs.push_back({v, (v * 7 + 3) % gg.graph.num_nodes()});
  }
  auto batch = rep_batch->ReachableBatch(pairs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    auto single = rep_single->Reachable(pairs[k].first, pairs[k].second);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch.value()[k] != 0, single.value()) << "pair " << k;
  }
}

TEST(QueryCacheTest, ConcurrentMixedQueriesAgreeWithTruth) {
  GeneratedGraph gg = BarabasiAlbert(120, 3, 41);
  auto rep = MakeSharded(gg);
  AsSharded(rep.get())->set_threads(4);
  // Hammer one shared rep from several threads mixing batch and
  // single calls; the shard cache fills concurrently underneath.
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint64_t> nodes;
      for (uint64_t v = t; v < gg.graph.num_nodes(); v += 2) {
        nodes.push_back(v % gg.graph.num_nodes());
      }
      for (int round = 0; round < 3; ++round) {
        auto batch = rep->OutNeighborsBatch(nodes);
        if (!batch.ok()) {
          ++failures;
          return;
        }
        for (size_t j = 0; j < nodes.size(); ++j) {
          if (batch.value()[j] != TruthNeighbors(gg.graph, nodes[j], true)) {
            ++failures;
            return;
          }
        }
        for (uint64_t v : {uint64_t(t), uint64_t(t + 11)}) {
          auto single = rep->OutNeighbors(v % gg.graph.num_nodes());
          if (!single.ok()) ++failures;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

// Rent or buy: each grammar-direct single lookup charges its shard one
// plus its answer size, and only a shard whose charge reached its
// node-map size is decoded into the cache.
TEST(QueryCacheTest, ColdSinglesStayOnTheGrammarUntilTheyPayForADecode) {
  GeneratedGraph gg = RdfTypes(600, 9, 77);
  auto rep = MakeSharded(gg, "sharded:grepair", 2);
  const shard::ShardedRep& sharded = *AsSharded(rep.get());
  const uint64_t n = gg.graph.num_nodes();

  // The sweep: nodes in id order, each asked for its out- and then its
  // in-neighbors, kept while every owning shard's charge stays below
  // its node-map size. A shard's charge per lookup is at most one plus
  // the node's whole answer.
  std::vector<uint64_t> charge(sharded.num_shards(), 0);
  std::vector<uint64_t> lookups(sharded.num_shards(), 0);
  std::vector<uint64_t> sweep;
  for (uint64_t v = 0; v < n; ++v) {
    uint64_t cost = 2 + TruthNeighbors(gg.graph, v, true).size() +
                    TruthNeighbors(gg.graph, v, false).size();
    std::vector<size_t> owners;
    bool fits = true;
    for (size_t k = 0; k < sharded.num_shards(); ++k) {
      if (sharded.entry(k).LocalId(v) == kInvalidNode) continue;
      owners.push_back(k);
      fits = fits && charge[k] + cost < sharded.entry(k).nodes.size();
    }
    if (owners.empty() || !fits) continue;
    for (size_t k : owners) {
      charge[k] += cost;
      lookups[k] += 2;
    }
    sweep.push_back(v);
  }
  // At least 8 lookups per shard, so a rule that promotes a shard after
  // a fixed handful of misses would decode every one of them.
  for (size_t k = 0; k < sharded.num_shards(); ++k) {
    if (!sharded.entry(k).has_payload()) continue;
    EXPECT_GE(lookups[k], 8u) << "shard " << k;
  }
  for (uint64_t v : sweep) {
    auto out = rep->OutNeighbors(v);
    auto in = rep->InNeighbors(v);
    ASSERT_TRUE(out.ok() && in.ok());
    EXPECT_EQ(out.value(), TruthNeighbors(gg.graph, v, true)) << v;
    EXPECT_EQ(in.value(), TruthNeighbors(gg.graph, v, false)) << v;
  }
  QueryStats cold = rep->query_stats();
  EXPECT_EQ(cold.shard_decodes, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.memo_hits, 0u);

  // One node of one shard, asked again and again: its lookups reach
  // the node-map size (each costs at least one), the shard is decoded
  // once, and every later lookup is a cache hit.
  auto hot_rep = MakeSharded(gg, "sharded:grepair", 2);
  const shard::ShardedRep& hot = *AsSharded(hot_rep.get());
  uint64_t node = n;
  size_t owner = 0;
  for (uint64_t v = 0; v < n && node == n; ++v) {
    std::vector<size_t> owners;
    for (size_t k = 0; k < hot.num_shards(); ++k) {
      if (hot.entry(k).LocalId(v) != kInvalidNode) owners.push_back(k);
    }
    if (owners.size() == 1 && !TruthNeighbors(gg.graph, v, true).empty()) {
      node = v;
      owner = owners[0];
    }
  }
  ASSERT_LT(node, n);
  const std::vector<uint64_t> truth = TruthNeighbors(gg.graph, node, true);
  const size_t rent_calls = hot.entry(owner).nodes.size();
  for (size_t call = 0; call < rent_calls + 1; ++call) {
    auto out = hot_rep->OutNeighbors(node);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value(), truth) << "call " << call;
  }
  QueryStats bought = hot_rep->query_stats();
  EXPECT_EQ(bought.shard_decodes, 1u);
  for (int call = 0; call < 5; ++call) {
    auto out = hot_rep->OutNeighbors(node);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), truth);
  }
  QueryStats warm = hot_rep->query_stats();
  EXPECT_EQ(warm.shard_decodes, 1u);
  EXPECT_EQ(warm.cache_hits - bought.cache_hits, 5u);
  EXPECT_EQ(warm.cache_misses, bought.cache_misses);
}

// Hits and misses count per owning shard: a node two shards hold costs
// two misses while both are cold and two hits once a batch decoded
// both.
TEST(QueryCacheTest, HitsAndMissesCountPerOwningShard) {
  GeneratedGraph gg = BarabasiAlbert(150, 3, 5);
  auto rep = MakeSharded(gg);
  const shard::ShardedRep& sharded = *AsSharded(rep.get());
  const uint64_t n = gg.graph.num_nodes();
  uint64_t node = n;
  for (uint64_t v = 0; v < n && node == n; ++v) {
    if (sharded.store().owner_index().Owners(v).size() == 2) node = v;
  }
  ASSERT_LT(node, n);
  const std::vector<uint64_t> truth = TruthNeighbors(gg.graph, node, true);

  ASSERT_EQ(rep->OutNeighbors(node).ValueOrDie(), truth);
  QueryStats cold = rep->query_stats();
  EXPECT_EQ(cold.cache_misses, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);

  std::vector<uint64_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  ASSERT_TRUE(rep->OutNeighborsBatch(all).ok());
  QueryStats batched = rep->query_stats();
  ASSERT_EQ(rep->OutNeighbors(node).ValueOrDie(), truth);
  QueryStats warm = rep->query_stats();
  EXPECT_EQ(warm.cache_hits - batched.cache_hits, 2u);
  EXPECT_EQ(warm.cache_misses, batched.cache_misses);
  EXPECT_EQ(warm.shard_decodes, batched.shard_decodes);
}

TEST(QueryCacheTest, GrepairMemoTablesAreTransparent) {
  GeneratedGraph gg = RdfTypes(300, 9, 77);
  auto codec = CodecRegistry::Create("grepair").ValueOrDie();
  auto rep_a = codec->Compress(gg.graph, gg.alphabet).ValueOrDie();
  for (int pass = 0; pass < 2; ++pass) {
    // A fresh rep per pass: its first-touch answers are the memo-free
    // reference for rep_a's warmed tables.
    auto rep_fresh = codec->Compress(gg.graph, gg.alphabet).ValueOrDie();
    for (uint64_t v = 0; v < gg.graph.num_nodes(); v += 5) {
      auto warmed = rep_a->OutNeighbors(v);
      auto fresh = rep_fresh->OutNeighbors(v);
      ASSERT_TRUE(warmed.ok() && fresh.ok());
      EXPECT_EQ(warmed.value(), fresh.value()) << "node " << v;
      EXPECT_EQ(warmed.value(), TruthNeighbors(gg.graph, v, true));
    }
  }
  QueryStats stats = rep_a->query_stats();
  EXPECT_GT(stats.single_queries, 0u);
  // Star-shaped RDF grammars force descents through nonterminals, so
  // tables must have been built and re-used across the two passes.
  EXPECT_GT(stats.memo_entries, 0u);
  EXPECT_GT(stats.memo_hits, 0u);
}

TEST(QueryCacheTest, BatchRejectsInvalidInputWholesale) {
  GeneratedGraph gg = BarabasiAlbert(40, 2, 3);
  auto rep = MakeSharded(gg);
  uint64_t n = gg.graph.num_nodes();
  auto bad = rep->OutNeighborsBatch({0, 1, n});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto bad_pairs = rep->ReachableBatch({{0, 1}, {1, n}});
  EXPECT_EQ(bad_pairs.status().code(), StatusCode::kInvalidArgument);
  // Nothing should have been answered or cached for a failed batch.
  EXPECT_EQ(rep->query_stats().batch_calls, 0u);
}

TEST(QueryCacheTest, EmptyBatchesSucceed) {
  GeneratedGraph gg = BarabasiAlbert(40, 2, 3);
  auto rep = MakeSharded(gg);
  auto out = rep->OutNeighborsBatch({});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
  auto reach = rep->ReachableBatch({});
  ASSERT_TRUE(reach.ok());
  EXPECT_TRUE(reach.value().empty());
}

TEST(QueryCacheTest, BareCodecBatchMatchesSingles) {
  // The bare grepair rep answers a batch (repeats included) exactly
  // like hand-looped singles.
  GeneratedGraph gg = ErdosRenyi(80, 200, 9);
  auto codec = CodecRegistry::Create("grepair").ValueOrDie();
  auto rep = codec->Compress(gg.graph, gg.alphabet).ValueOrDie();
  std::vector<uint64_t> nodes = {0, 5, 5, 17, 79};
  auto batch = rep->OutNeighborsBatch(nodes);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t j = 0; j < nodes.size(); ++j) {
    auto single = rep->OutNeighbors(nodes[j]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch.value()[j], single.value());
  }
}

TEST(QueryCacheTest, OptionErrorsListAcceptedKeys) {
  GeneratedGraph gg = BarabasiAlbert(30, 2, 1);
  auto codec = CodecRegistry::Create("grepair").ValueOrDie();
  CodecOptions options;
  options.Set("max-rnak", "3");  // typo'd key
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
  // The error must name the offender and list what is accepted.
  EXPECT_NE(rep.status().message().find("'max-rnak'"), std::string::npos)
      << rep.status().message();
  EXPECT_NE(rep.status().message().find(
                "accepted keys: max-rank, order, seed, virtual, prune"),
            std::string::npos)
      << rep.status().message();
}


// The owner index against a brute-force LocalId scan of every map:
// overlapping and disjoint maps, a map with an id far above the rest
// (so buckets span many ids and hold several shards' entries), an
// edgeless shard whose map must be ignored, and ids above every map.
TEST(OwnerIndexTest, AgreesWithEveryMapsLocalId) {
  std::vector<shard::ShardEntry> entries(6);
  Rng rng(17);
  for (size_t k = 0; k < entries.size(); ++k) {
    for (NodeId v = 0; v < 400; ++v) {
      if (v < 8 || rng.UniformBounded(4) == 0) entries[k].nodes.push_back(v);
    }
    entries[k].length = 1;
  }
  entries[1].nodes.push_back(1u << 20);  // sparse top: shift > 0
  entries[4].length = 0;                 // edgeless: owns nothing
  entries[5].nodes.assign({500, 501, 503});
  const shard::OwnerIndex index(entries);
  std::vector<uint64_t> probes(600);
  std::iota(probes.begin(), probes.end(), 0);
  for (uint64_t v : {(1ull << 20) - 1, 1ull << 20, (1ull << 20) + 1,
                     0xFFFFFFFFull, 1ull << 40}) {
    probes.push_back(v);
  }
  size_t multi_owner = 0;
  for (uint64_t v : probes) {
    std::vector<std::pair<uint32_t, NodeId>> expected, got;
    for (size_t k = 0; k < entries.size(); ++k) {
      NodeId local = entries[k].LocalId(v);
      if (local != kInvalidNode) {
        expected.emplace_back(static_cast<uint32_t>(k), local);
      }
    }
    for (const shard::ShardOwner& owner : index.Owners(v)) {
      EXPECT_EQ(owner.global, v);
      got.emplace_back(owner.shard, owner.local);
    }
    EXPECT_EQ(got, expected) << "id " << v;
    multi_owner += expected.size() > 1;
  }
  EXPECT_GT(multi_owner, 100u);
  // No map at all: every id is ownerless.
  EXPECT_EQ(shard::OwnerIndex({}).Owners(0).size(), 0u);
}

}  // namespace
}  // namespace api
}  // namespace grepair
