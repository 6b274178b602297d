// Dynamic-corpus differential suite: the overlay/fold/delta write
// path of the sharded stack (MutableCorpus, src/shard/mutable_corpus.h,
// through ShardedRep::ApplyEdits/FoldOverlay/ApplyDelta/BuildDelta,
// plus src/shard/delta_overlay.h and api::OpenVersioned) proven
// equivalent to recompressing the mutated graph from scratch.
//
// A random edit stream applied through the overlay must answer every
// query — singles, batches, reachability, full Decompress —
// identically to a fresh sharded:grepair compression of the mutated
// graph, single-threaded
// and under 8 concurrent query threads, before and after folding the
// overlay into the shard grammars. The GRSHARD3 chain tests prove a
// written delta file reproduces the same corpus through
// api::OpenVersioned (and over a served base through
// api::ApplyDeltaChain), that lineage tampering fails closed, that a
// SIGKILL mid-fold never damages the base container, and that the
// atomic write path leaves no torn or stray files. The FoldParityTest
// cases pin the byte-parity fold rule (which shards a fold
// recompresses, what stays residual, what a delta carries). Two race
// tests hold readers to every add whose ApplyEdits returned while
// folds publish, one of them while some shards fold and others stay
// residual. Runs under the ASan/UBSan and TSan CI legs.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace {

using shard::EdgeEdit;

// Ground truth for a mutated corpus: the rank-2 edge list under the
// overlay's set-based semantics (delete kills every copy of the pair,
// an add lands only when the exact triple is absent).
struct TruthCorpus {
  uint32_t num_nodes = 0;
  std::vector<std::array<uint32_t, 3>> edges;  // (u, v, label)

  static TruthCorpus FromGraph(const Hypergraph& g) {
    TruthCorpus truth;
    truth.num_nodes = g.num_nodes();
    for (const HEdge& e : g.edges()) {
      if (e.att.size() == 2) {
        truth.edges.push_back({e.att[0], e.att[1], e.label});
      }
    }
    return truth;
  }

  bool HasTriple(uint32_t u, uint32_t v, uint32_t label) const {
    for (const auto& e : edges) {
      if (e[0] == u && e[1] == v && e[2] == label) return true;
    }
    return false;
  }

  bool HasPair(uint32_t u, uint32_t v) const {
    for (const auto& e : edges) {
      if (e[0] == u && e[1] == v) return true;
    }
    return false;
  }

  void Apply(const EdgeEdit& edit) {
    if (edit.kind == EdgeEdit::kDelete) {
      edges.erase(std::remove_if(edges.begin(), edges.end(),
                                 [&](const std::array<uint32_t, 3>& e) {
                                   return e[0] == edit.u && e[1] == edit.v;
                                 }),
                  edges.end());
      return;
    }
    if (!HasTriple(edit.u, edit.v, edit.label)) {
      edges.push_back({edit.u, edit.v, edit.label});
      num_nodes = std::max(num_nodes, std::max(edit.u, edit.v) + 1);
    }
  }

  Hypergraph ToHypergraph() const {
    Hypergraph g(num_nodes);
    for (const auto& e : edges) g.AddSimpleEdge(e[0], e[1], e[2]);
    return g;
  }

  std::vector<uint64_t> OutOf(uint32_t u) const {
    std::vector<uint64_t> out;
    for (const auto& e : edges) {
      if (e[0] == u) out.push_back(e[1]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

// A deterministic mixed edit stream: ~60% adds of absent pairs, ~30%
// kills of live pairs, ~10% kill-then-re-add (the resurrection case).
// Mutates `truth` in step so it stays the ground truth.
std::vector<EdgeEdit> MakeEdits(TruthCorpus* truth, std::mt19937* rng,
                                size_t count,
                                const std::vector<uint32_t>& labels) {
  std::vector<EdgeEdit> edits;
  uint32_t n = truth->num_nodes;
  auto random_label = [&]() -> uint32_t {
    return labels[(*rng)() % labels.size()];
  };
  while (edits.size() < count) {
    uint32_t roll = (*rng)() % 10;
    if (roll < 6 || truth->edges.empty()) {
      uint32_t u = (*rng)() % n, v = (*rng)() % n;
      if (u == v) continue;
      edits.push_back(EdgeEdit::Add(u, v, random_label()));
    } else {
      const auto& victim = truth->edges[(*rng)() % truth->edges.size()];
      edits.push_back(EdgeEdit::Delete(victim[0], victim[1]));
      if (roll == 9) {
        edits.push_back(
            EdgeEdit::Add(victim[0], victim[1], random_label()));
      }
    }
  }
  for (const EdgeEdit& e : edits) truth->Apply(e);
  return edits;
}

std::vector<uint32_t> LabelsOf(const Hypergraph& g) {
  std::vector<uint32_t> labels;
  for (const HEdge& e : g.edges()) labels.push_back(e.label);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  if (labels.empty()) labels.push_back(0);
  return labels;
}

using LabeledEdge = std::pair<Label, Attachments>;

std::vector<LabeledEdge> LabeledEdgeSet(const Hypergraph& g) {
  std::vector<LabeledEdge> edges;
  for (const HEdge& e : g.edges()) edges.push_back({e.label, e.att});
  std::sort(edges.begin(), edges.end());
  return edges;
}

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(::testing::TempDir() + "grepair_dyn_" + tag) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Compares every query surface of the sharded rep `edited` (the
// overlay path) against `fresh` (a from-scratch compression of the
// mutated graph): out/in-neighbor singles over all nodes, one full
// batch, a reachability sweep, with `threads` workers issuing the
// singles concurrently when threads > 1.
void ExpectQueriesAgree(api::CompressedRep* edited,
                        api::CompressedRep* fresh, int threads,
                        const std::string& tag) {
  ASSERT_EQ(edited->num_nodes(), fresh->num_nodes()) << tag;
  uint64_t n = edited->num_nodes();

  std::atomic<int> failures{0};
  auto sweep = [&](int stride) {
    for (uint64_t v = static_cast<uint64_t>(stride); v < n;
         v += static_cast<uint64_t>(threads)) {
      auto eo = edited->OutNeighbors(v);
      auto fo = fresh->OutNeighbors(v);
      if (!eo.ok() || !fo.ok() || eo.value() != fo.value()) {
        ++failures;
        continue;
      }
      auto ei = edited->InNeighbors(v);
      auto fi = fresh->InNeighbors(v);
      if (!ei.ok() || !fi.ok() || ei.value() != fi.value()) ++failures;
    }
  };
  if (threads <= 1) {
    sweep(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) workers.emplace_back(sweep, t);
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(failures.load(), 0) << tag << " (singles)";

  std::vector<uint64_t> all(n);
  for (uint64_t v = 0; v < n; ++v) all[v] = v;
  auto eb = edited->OutNeighborsBatch(all);
  auto fb = fresh->OutNeighborsBatch(all);
  ASSERT_TRUE(eb.ok()) << tag << ": " << eb.status().ToString();
  ASSERT_TRUE(fb.ok()) << tag << ": " << fb.status().ToString();
  EXPECT_EQ(eb.value(), fb.value()) << tag << " (batch)";

  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t i = 0; i < 40 && n > 1; ++i) {
    pairs.push_back({(i * 7) % n, (i * 13 + 1) % n});
  }
  for (const auto& p : pairs) {
    auto er = edited->Reachable(p.first, p.second);
    auto fr = fresh->Reachable(p.first, p.second);
    ASSERT_TRUE(er.ok()) << tag << ": " << er.status().ToString();
    ASSERT_TRUE(fr.ok()) << tag << ": " << fr.status().ToString();
    EXPECT_EQ(er.value(), fr.value())
        << tag << " reach " << p.first << "->" << p.second;
  }
  auto erb = edited->ReachableBatch(pairs);
  auto frb = fresh->ReachableBatch(pairs);
  ASSERT_TRUE(erb.ok()) << tag << ": " << erb.status().ToString();
  ASSERT_TRUE(frb.ok()) << tag << ": " << frb.status().ToString();
  EXPECT_EQ(erb.value(), frb.value()) << tag << " (reach batch)";
}

void ExpectDecompressAgrees(api::CompressedRep* edited,
                            api::CompressedRep* fresh,
                            const std::string& tag) {
  auto eg = edited->Decompress();
  auto fg = fresh->Decompress();
  ASSERT_TRUE(eg.ok()) << tag << ": " << eg.status().ToString();
  ASSERT_TRUE(fg.ok()) << tag << ": " << fg.status().ToString();
  EXPECT_EQ(eg.value().num_nodes(), fg.value().num_nodes()) << tag;
  EXPECT_EQ(LabeledEdgeSet(eg.value()), LabeledEdgeSet(fg.value())) << tag;
}

// The tentpole property: overlay edits == recompress.
class DynamicDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(DynamicDifferential, EditStreamMatchesRecompress) {
  auto sharded = api::CodecRegistry::Create("sharded:" + GetParam());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  std::vector<std::pair<std::string, GeneratedGraph>> datasets;
  datasets.push_back({"er", ErdosRenyi(80, 240, 17)});
  datasets.push_back({"rdf", RdfEntities(40, 6, 12, 19)});  // labeled

  api::CodecOptions options;
  options.Set("shards", "4");
  options.Set("threads", "2");

  for (auto& [name, gg] : datasets) {
    SCOPED_TRACE(name);
    auto rep = sharded.value()->Compress(gg.graph, gg.alphabet, options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    auto* edited = dynamic_cast<shard::ShardedRep*>(rep.value().get());
    ASSERT_NE(edited, nullptr);

    TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
    std::vector<uint32_t> labels = LabelsOf(gg.graph);
    std::mt19937 rng(4242);
    // Three chunks so later edits stack on an existing overlay.
    for (int chunk = 0; chunk < 3; ++chunk) {
      auto edits = MakeEdits(&truth, &rng, 30, labels);
      auto applied = edited->ApplyEdits(edits);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
    ASSERT_GT(edited->query_stats().overlay_edits, 0u);

    auto fresh = sharded.value()->Compress(truth.ToHypergraph(),
                                           gg.alphabet, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    ExpectQueriesAgree(edited, fresh.value().get(), 1, name + "/overlay/1t");
    ExpectQueriesAgree(edited, fresh.value().get(), 8, name + "/overlay/8t");
    ExpectDecompressAgrees(edited, fresh.value().get(), name + "/overlay");
    // Triangulate the out-neighbor answers against the raw edge list.
    for (uint32_t v = 0; v < truth.num_nodes; v += 9) {
      auto out = edited->OutNeighbors(v);
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(out.value(), truth.OutOf(v)) << name << " node " << v;
    }

    // Fold the overlay into the shard grammars and re-prove all of it:
    // folded answers must be indistinguishable from overlay answers.
    auto folded = edited->FoldOverlay();
    ASSERT_TRUE(folded.ok()) << folded.ToString();
    ExpectQueriesAgree(edited, fresh.value().get(), 1, name + "/folded/1t");
    ExpectQueriesAgree(edited, fresh.value().get(), 8, name + "/folded/8t");
    ExpectDecompressAgrees(edited, fresh.value().get(), name + "/folded");
  }
}

INSTANTIATE_TEST_SUITE_P(BaseCodecs, DynamicDifferential,
                         ::testing::Values("grepair"),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Edits may reference nodes past the base corpus: num_nodes grows,
// queries on fresh nodes answer, and recompress still agrees.
TEST(DynamicCorpusTest, FreshNodeAddsGrowTheCorpus) {
  GeneratedGraph gg = BarabasiAlbert(60, 3, 23);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* edited = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  uint32_t n = gg.graph.num_nodes();

  TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
  std::vector<EdgeEdit> edits = {EdgeEdit::Add(5, n + 4),
                                 EdgeEdit::Add(n + 4, n + 9),
                                 EdgeEdit::Add(n + 9, 0)};
  for (const auto& e : edits) truth.Apply(e);
  ASSERT_TRUE(edited->ApplyEdits(edits).ok());
  EXPECT_EQ(edited->num_nodes(), n + 10);

  auto fresh = codec->Compress(truth.ToHypergraph(), gg.alphabet, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectQueriesAgree(edited, fresh.value().get(), 1, "fresh-nodes");
  EXPECT_EQ(edited->OutNeighbors(n + 9).ValueOrDie(),
            (std::vector<uint64_t>{0}));
  // Folding keeps fresh-node edges residual (no shard owns them) but
  // must not lose them.
  ASSERT_TRUE(edited->FoldOverlay().ok());
  EXPECT_EQ(edited->OutNeighbors(n + 4).ValueOrDie(),
            (std::vector<uint64_t>{static_cast<uint64_t>(n) + 9}));
}

// Folds keep the overlay's set semantics: an add that repeats a base
// edge the fold keeps (same pair, same label) leaves a single copy in
// the recompressed shard, beside a kill and a genuinely new add.
TEST(DynamicCorpusTest, FoldAddsNoCopyOfASurvivingEdge) {
  GeneratedGraph gg = BarabasiAlbert(60, 3, 23);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* edited = dynamic_cast<shard::ShardedRep*>(rep.value().get());

  TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
  const std::array<uint32_t, 3> kept = truth.edges[0];
  const std::array<uint32_t, 3> killed = truth.edges.back();
  ASSERT_FALSE(kept[0] == killed[0] && kept[1] == killed[1]);
  ASSERT_FALSE(truth.HasPair(1, 40));
  const std::vector<EdgeEdit> edits = {
      EdgeEdit::Add(kept[0], kept[1], kept[2]),
      EdgeEdit::Delete(killed[0], killed[1]), EdgeEdit::Add(1, 40)};
  for (const auto& e : edits) truth.Apply(e);
  ASSERT_TRUE(edited->ApplyEdits(edits).ok());
  edited->set_overlay_budget_bytes(0);  // fold every eligible edit
  ASSERT_TRUE(edited->FoldOverlay().ok());
  EXPECT_GT(edited->query_stats().shard_folds, 0u);

  auto decompressed = edited->Decompress();
  ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
  EXPECT_EQ(LabeledEdgeSet(decompressed.value()),
            LabeledEdgeSet(truth.ToHypergraph()));
}

// A batch lands whole or not at all. Its fifth edit is a self-loop
// add, so ApplyEdits refuses it: the four edits before it (a fresh
// node, a kill of a base edge, an add, and a delete of the earlier
// add) stay invisible, and the overlay keeps its edit count.
TEST(DynamicCorpusTest, SelfLoopBatchPublishesNothing) {
  GeneratedGraph gg = BarabasiAlbert(60, 3, 23);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* edited = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  const uint32_t n = gg.graph.num_nodes();

  TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
  const EdgeEdit first = EdgeEdit::Add(1, 40);
  ASSERT_FALSE(truth.HasPair(1, 40));
  truth.Apply(first);
  ASSERT_TRUE(edited->ApplyEdits({first}).ok());
  const uint64_t overlay_edits = edited->query_stats().overlay_edits;
  ASSERT_EQ(overlay_edits, 1u);

  const std::array<uint32_t, 3>& base_edge = truth.edges.front();
  Status refused = edited->ApplyEdits(
      {EdgeEdit::Add(2, n + 5), EdgeEdit::Delete(base_edge[0], base_edge[1]),
       EdgeEdit::Add(3, 50), EdgeEdit::Delete(1, 40), EdgeEdit::Add(7, 7)});
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("self-loop edge 7 -> 7"),
            std::string::npos)
      << refused.ToString();
  EXPECT_EQ(edited->query_stats().overlay_edits, overlay_edits);
  EXPECT_EQ(edited->num_nodes(), n);

  auto fresh = codec->Compress(truth.ToHypergraph(), gg.alphabet, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectQueriesAgree(edited, fresh.value().get(), 1, "self-loop batch");
}

// ApplyEdits folds automatically once the overlay outgrows the byte
// budget; with a single shard every in-range edit is fold-eligible, so
// the overlay must drain to empty and the fold counters move.
TEST(DynamicCorpusTest, BudgetTriggersAutomaticFold) {
  GeneratedGraph gg = ErdosRenyi(70, 210, 31);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "1");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* edited = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  edited->set_overlay_budget_bytes(1);

  TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
  std::mt19937 rng(777);
  std::vector<uint32_t> labels = LabelsOf(gg.graph);
  for (int chunk = 0; chunk < 4; ++chunk) {
    auto edits = MakeEdits(&truth, &rng, 10, labels);
    ASSERT_TRUE(edited->ApplyEdits(edits).ok());
  }
  auto stats = edited->query_stats();
  EXPECT_GT(stats.shard_folds, 0u);
  EXPECT_GT(stats.folded_edits, 0u);
  EXPECT_EQ(stats.overlay_edits, 0u) << "single-shard fold must drain";

  auto fresh = codec->Compress(truth.ToHypergraph(), gg.alphabet, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectQueriesAgree(edited, fresh.value().get(), 4, "auto-fold");
}

// Where a fold routes edits of the pair (u, v): `first` is the first
// shard whose node map holds both endpoints (num_shards() when none
// does), `shared` tells whether a later shard holds them too, and
// `held_after` whether such a later shard has the pair in its grammar.
// A kill folds into `first` unless the pair is shared; an add unless a
// later shard holds the pair or the pair's kill stays residual.
struct FoldRoute {
  size_t first;
  bool shared = false;
  bool held_after = false;
};

FoldRoute RouteOf(const shard::ShardedRep& rep, uint32_t u, uint32_t v) {
  FoldRoute route{rep.num_shards()};
  for (size_t i = 0; i < rep.num_shards(); ++i) {
    const auto& entry = rep.entry(i);
    const NodeId lu = entry.LocalId(u), lv = entry.LocalId(v);
    if (lu == kInvalidNode || lv == kInvalidNode) continue;
    if (route.first == rep.num_shards()) {
      route.first = i;
      continue;
    }
    route.shared = true;
    auto graph = rep.store().Graph(i);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok() || graph.value() == nullptr) continue;
    const std::vector<uint64_t> out = graph.value()->OutNeighbors(lu);
    if (std::binary_search(out.begin(), out.end(), lv)) {
      route.held_after = true;
    }
  }
  return route;
}

// `count` pairs (lower id first) that a fold routes to `shard` and
// that `taken` does not hold yet; each is inserted into `taken`.
std::vector<std::pair<uint32_t, uint32_t>> PairsRoutedTo(
    const shard::ShardedRep& rep, size_t shard, size_t count,
    std::set<std::pair<uint32_t, uint32_t>>* taken, std::mt19937* rng) {
  const auto& nodes = rep.entry(shard).nodes;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t tries = 0; pairs.size() < count && tries < 100000; ++tries) {
    uint32_t a = nodes[(*rng)() % nodes.size()];
    uint32_t b = nodes[(*rng)() % nodes.size()];
    if (a == b) continue;
    std::pair<uint32_t, uint32_t> pair{std::min(a, b), std::max(a, b)};
    FoldRoute route = RouteOf(rep, pair.first, pair.second);
    if (route.first != shard || route.held_after) continue;
    if (taken->insert(pair).second) pairs.push_back(pair);
  }
  EXPECT_EQ(pairs.size(), count) << "shard " << shard << " ran out of pairs";
  return pairs;
}

// Adds of `count` absent pairs that a fold routes to `shard`.
std::vector<EdgeEdit> AddsRoutedTo(const shard::ShardedRep& rep, size_t shard,
                                   size_t count, const TruthCorpus& truth,
                                   std::mt19937* rng) {
  std::set<std::pair<uint32_t, uint32_t>> taken;
  for (const auto& e : truth.edges) taken.insert({e[0], e[1]});
  std::vector<EdgeEdit> adds;
  for (const auto& [u, v] : PairsRoutedTo(rep, shard, count, &taken, rng)) {
    adds.push_back(EdgeEdit::Add(u, v));
  }
  return adds;
}

// How many adds routed to `shard` weigh as much as its payload: the
// fewest that make a fold recompress it.
size_t ParityAdds(const shard::ShardedRep& rep, size_t shard) {
  const size_t add_bytes = 2 * sizeof(shard::DeltaEdge);
  return (rep.store().PayloadSize(shard) + add_bytes - 1) / add_bytes;
}

// The residual overlay's bytes per fold target, counted as
// DeltaOverlay::ByteSize counts them: slot i < num_shards() holds the
// residual edits shard i may take, the last slot those no shard may
// take (see FoldRoute).
std::vector<uint64_t> ResidualBytes(const shard::ShardedRep& rep) {
  const size_t none = rep.num_shards();
  std::vector<uint64_t> bytes(none + 1, 0);
  auto delta = rep.BuildDelta(0, 0);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  if (!delta.ok()) return bytes;
  std::set<std::pair<uint32_t, uint32_t>> shared_kills;
  for (const shard::DeltaPair& kill : delta.value().kills) {
    FoldRoute route = RouteOf(rep, kill.u, kill.v);
    if (route.shared) shared_kills.insert({kill.u, kill.v});
    bytes[route.shared ? none : route.first] += 2 * sizeof(shard::DeltaPair);
  }
  for (const shard::DeltaEdge& add : delta.value().adds) {
    FoldRoute route = RouteOf(rep, add.u, add.v);
    bool stays = route.held_after || shared_kills.count({add.u, add.v});
    bytes[stays ? none : route.first] += 2 * sizeof(shard::DeltaEdge);
  }
  return bytes;
}

// Folds under the byte-parity rule (MutableCorpus::FoldOverlay): a
// 4-shard corpus with ApplyEdits' automatic fold off, so each fold is
// an explicit FoldOverlay. Every case checks the answers against the
// truth and a fresh recompress before and after its folds.
class FoldParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gg_ = ErdosRenyi(90, 270, 37);
    codec_ = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
    options_.Set("shards", "4");
    auto rep = codec_->Compress(gg_.graph, gg_.alphabet, options_);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    owned_ = std::move(rep).ValueOrDie();
    rep_ = dynamic_cast<shard::ShardedRep*>(owned_.get());
    ASSERT_NE(rep_, nullptr);
    rep_->set_overlay_budget_bytes(~0ull);
    truth_ = TruthCorpus::FromGraph(gg_.graph);
    data_shards_.clear();
    for (size_t i = 0; i < rep_->num_shards(); ++i) {
      if (rep_->entry(i).has_payload()) data_shards_.push_back(i);
    }
    ASSERT_EQ(data_shards_.size(), 4u);
  }

  void Apply(const std::vector<EdgeEdit>& edits) {
    for (const EdgeEdit& e : edits) truth_.Apply(e);
    Status applied = rep_->ApplyEdits(edits);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
  }

  std::vector<EdgeEdit> AddsTo(size_t shard, size_t count) {
    return AddsRoutedTo(*rep_, shard, count, truth_, &rng_);
  }

  // A delete of a base pair a fold routes to `shard`.
  EdgeEdit KillIn(size_t shard) {
    for (const auto& e : truth_.edges) {
      FoldRoute route = RouteOf(*rep_, e[0], e[1]);
      if (route.first == shard && !route.shared) {
        return EdgeEdit::Delete(e[0], e[1]);
      }
    }
    ADD_FAILURE() << "shard " << shard << " owns no pair alone";
    return EdgeEdit::Delete(0, 1);
  }

  void ExpectAgrees(const std::string& tag) {
    auto fresh = codec_->Compress(truth_.ToHypergraph(), gg_.alphabet,
                                  options_);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ExpectQueriesAgree(rep_, fresh.value().get(), 1, tag);
    ExpectDecompressAgrees(rep_, fresh.value().get(), tag);
    for (uint32_t v = 0; v < truth_.num_nodes; ++v) {
      auto out = rep_->OutNeighbors(v);
      ASSERT_TRUE(out.ok()) << tag << ": " << out.status().ToString();
      EXPECT_EQ(out.value(), truth_.OutOf(v)) << tag << " node " << v;
    }
  }

  void Fold(const std::string& tag) {
    ExpectAgrees(tag + "/before fold");
    Status folded = rep_->FoldOverlay();
    ASSERT_TRUE(folded.ok()) << folded.ToString();
    ExpectAgrees(tag + "/after fold");
  }

  std::vector<uint32_t> FoldedShards() const {
    auto delta = rep_->BuildDelta(0, 0);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    std::vector<uint32_t> shards;
    if (!delta.ok()) return shards;
    for (const auto& cs : delta.value().shards) shards.push_back(cs.index);
    return shards;
  }

  api::QueryStats Stats() const { return rep_->query_stats(); }

  GeneratedGraph gg_;
  std::unique_ptr<api::GraphCodec> codec_;
  api::CodecOptions options_;
  std::unique_ptr<api::CompressedRep> owned_;
  shard::ShardedRep* rep_ = nullptr;
  TruthCorpus truth_;
  std::vector<size_t> data_shards_;
  std::mt19937 rng_{2024};
};

// One add short of parity stays residual; the add that reaches parity
// makes the next fold recompress the shard.
TEST_F(FoldParityTest, ShardFoldsOnceItsEditsReachItsPayload) {
  const size_t shard = data_shards_[1];
  const size_t parity = ParityAdds(*rep_, shard);
  ASSERT_GT(parity, 1u);
  Apply(AddsTo(shard, parity - 1));
  Fold("short of parity");
  EXPECT_EQ(Stats().shard_folds, 0u);
  EXPECT_EQ(Stats().overlay_edits, parity - 1);
  EXPECT_TRUE(FoldedShards().empty());

  Apply(AddsTo(shard, 1));
  Fold("at parity");
  EXPECT_EQ(Stats().shard_folds, 1u);
  EXPECT_EQ(Stats().folded_edits, parity);
  EXPECT_EQ(Stats().overlay_edits, 0u);
}

// A few edits on each shard leave the fold with nothing to do.
TEST_F(FoldParityTest, LightShardsStayResidual) {
  for (size_t shard : data_shards_) Apply(AddsTo(shard, 1));
  Apply({KillIn(data_shards_[2])});
  const api::QueryStats before = Stats();
  Fold("light");
  EXPECT_EQ(Stats().shard_folds, before.shard_folds);
  EXPECT_EQ(Stats().overlay_edits, before.overlay_edits);
  EXPECT_EQ(Stats().overlay_edits, data_shards_.size() + 1);
}

// The delta carries exactly the shard that folded; the deferred
// shard's kill and re-add of one pair ride in the residual runs and
// still answer correctly, then fold together under budget 0.
TEST_F(FoldParityTest, DeferredKillAndReAddBesideAFold) {
  const size_t heavy = data_shards_[0];
  const size_t light = data_shards_[2];
  const EdgeEdit kill = KillIn(light);
  const EdgeEdit other_kill = KillIn(data_shards_[3]);
  Apply({kill, EdgeEdit::Add(kill.u, kill.v), other_kill});
  Apply(AddsTo(heavy, ParityAdds(*rep_, heavy)));
  Fold("parity");
  EXPECT_EQ(FoldedShards(), std::vector<uint32_t>{uint32_t(heavy)});
  EXPECT_EQ(Stats().shard_folds, 1u);
  auto delta = rep_->BuildDelta(0, 0);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  std::vector<shard::DeltaPair> kills = {{kill.u, kill.v},
                                         {other_kill.u, other_kill.v}};
  std::sort(kills.begin(), kills.end(), [](const auto& a, const auto& b) {
    return std::make_pair(a.u, a.v) < std::make_pair(b.u, b.v);
  });
  EXPECT_EQ(delta.value().kills, kills);
  EXPECT_EQ(delta.value().adds,
            (std::vector<shard::DeltaEdge>{{kill.u, kill.v, 0}}));
  EXPECT_TRUE(truth_.HasPair(kill.u, kill.v));
  EXPECT_FALSE(truth_.HasPair(other_kill.u, other_kill.v));

  rep_->set_overlay_budget_bytes(0);
  Fold("drain");
  EXPECT_EQ(Stats().shard_folds, 3u);
  EXPECT_EQ(Stats().overlay_edits, 0u);
}

// Budget b bounds the residual to b plus what no shard can take; the
// heaviest deferred shards fold first.
TEST_F(FoldParityTest, BudgetBoundsTheResidual) {
  const uint32_t n = truth_.num_nodes;
  // Shard k gets k + 1 adds: all below parity, each heavier than the
  // one before.
  for (size_t k = 0; k < data_shards_.size(); ++k) {
    ASSERT_LT(k + 1, ParityAdds(*rep_, data_shards_[k]));
    Apply(AddsTo(data_shards_[k], k + 1));
  }
  Apply({EdgeEdit::Add(3, n + 2), EdgeEdit::Add(n + 2, 5)});
  const uint64_t add_bytes = 2 * sizeof(shard::DeltaEdge);
  const uint64_t budget = 3 * add_bytes;
  rep_->set_overlay_budget_bytes(budget);
  Fold("budget");
  // A residual of 12 adds over a budget of 3: shards 3, 2 and 1 fold
  // (4, 3 and 2 adds), leaving shard 0's add and the 2 fresh-node adds.
  EXPECT_EQ(FoldedShards(), (std::vector<uint32_t>{uint32_t(data_shards_[1]),
                                                   uint32_t(data_shards_[2]),
                                                   uint32_t(data_shards_[3])}));
  const std::vector<uint64_t> bytes = ResidualBytes(*rep_);
  EXPECT_EQ(bytes.back(), 2 * add_bytes);
  uint64_t residual = 0;
  for (uint64_t b : bytes) residual += b;
  EXPECT_LE(residual, budget + bytes.back());
  EXPECT_EQ(Stats().overlay_edits, 3u);
}

// Budget 0 drains every eligible edit; only what no shard can take
// stays residual.
TEST_F(FoldParityTest, ZeroBudgetDrainsEveryEligibleEdit) {
  const uint32_t n = truth_.num_nodes;
  std::mt19937 rng(555);
  std::vector<uint32_t> labels = {0};
  TruthCorpus next = truth_;
  std::vector<EdgeEdit> edits = MakeEdits(&next, &rng, 40, labels);
  edits.push_back(EdgeEdit::Add(n + 1, 2));
  Apply(edits);
  rep_->set_overlay_budget_bytes(0);
  Fold("drain");
  EXPECT_GT(Stats().shard_folds, 0u);
  const std::vector<uint64_t> bytes = ResidualBytes(*rep_);
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], 0u) << "shard " << i;
  }
  EXPECT_GE(bytes.back(), 2 * sizeof(shard::DeltaEdge));
}

// Re-adding base edges whose pair a later shard's grammar holds: the
// first shard holding both endpoints must not take them, or a
// decompression would carry the edge twice. They stay residual even
// under budget 0, beside a shard that folds.
TEST_F(FoldParityTest, AddOfAPairALaterShardHoldsStaysResidual) {
  std::vector<EdgeEdit> re_adds;
  for (const auto& e : truth_.edges) {
    if (RouteOf(*rep_, e[0], e[1]).held_after) {
      re_adds.push_back(EdgeEdit::Add(e[0], e[1], e[2]));
    }
  }
  ASSERT_FALSE(re_adds.empty());
  Apply(re_adds);
  Apply(AddsTo(data_shards_[0], 1));
  rep_->set_overlay_budget_bytes(0);
  Fold("re-adds");
  EXPECT_GT(Stats().shard_folds, 0u);
  EXPECT_EQ(Stats().overlay_edits, re_adds.size());
}

// Property: over random edit streams with automatic folds off, every
// fold leaves each shard's residual bytes below its payload size. Each
// round mixes a MakeEdits batch with up to a parity's worth of adds on
// one random shard.
TEST_F(FoldParityTest, ResidualStaysBelowEachPayload) {
  std::vector<uint32_t> labels = LabelsOf(gg_.graph);
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    SetUp();
    std::mt19937 rng(seed);
    for (int round = 0; round < 6; ++round) {
      const std::string tag =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      TruthCorpus next = truth_;
      Apply(MakeEdits(&next, &rng, 20, labels));
      const size_t shard = data_shards_[rng() % data_shards_.size()];
      Apply(AddsTo(shard, 1 + rng() % ParityAdds(*rep_, shard)));
      Fold(tag);
      const std::vector<uint64_t> bytes = ResidualBytes(*rep_);
      for (size_t i : data_shards_) {
        EXPECT_LT(bytes[i], rep_->store().PayloadSize(i))
            << tag << " shard " << i;
      }
    }
    EXPECT_GT(Stats().shard_folds, 0u) << "seed " << seed;
    EXPECT_GT(Stats().overlay_edits, 0u) << "seed " << seed;
  }
}

// A 3-shard corpus of 300 random pairs over 120 nodes, each pointing
// from a lower to a higher id, so the reverse of an add between two
// of its nodes is never reachable.
struct RaceCorpus {
  std::set<std::pair<uint32_t, uint32_t>> base_pairs;
  std::unique_ptr<api::CompressedRep> owned;
  shard::ShardedRep* rep = nullptr;
  std::vector<size_t> data_shards;  // shards with two or more nodes
};

void MakeRaceCorpus(std::mt19937* rng, RaceCorpus* out) {
  constexpr uint32_t kNodes = 120;
  while (out->base_pairs.size() < 300) {
    uint32_t u = (*rng)() % kNodes, v = (*rng)() % kNodes;
    if (u != v) out->base_pairs.insert({std::min(u, v), std::max(u, v)});
  }
  Hypergraph base(kNodes);
  for (const auto& [u, v] : out->base_pairs) base.AddSimpleEdge(u, v, 0);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto compressed = codec->Compress(base, InferAlphabet(base), options);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  out->owned = std::move(compressed).ValueOrDie();
  out->rep = dynamic_cast<shard::ShardedRep*>(out->owned.get());
  ASSERT_NE(out->rep, nullptr);
  for (size_t i = 0; i < out->rep->num_shards(); ++i) {
    if (out->rep->entry(i).has_payload() &&
        out->rep->entry(i).nodes.size() >= 2) {
      out->data_shards.push_back(i);
    }
  }
  ASSERT_FALSE(out->data_shards.empty());
}

// Edits race readers. A writer applies `adds` (absent lower-to-higher
// pairs of `corpus`) in batches, batch b ending before adds[ends[b]],
// calls FoldOverlay after each, and publishes how many adds have
// returned. Four readers loop over OutNeighbors, OutNeighborsBatch and
// Reachable: every answer must hold each add published before the
// query began, and nothing outside the base edges plus the writer's
// adds.
void RaceReadersAgainstWriter(
    const RaceCorpus& corpus,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds,
    const std::vector<size_t>& ends) {
  constexpr int kReaders = 4;
  shard::ShardedRep* rep = corpus.rep;
  std::set<std::pair<uint32_t, uint32_t>> allowed = corpus.base_pairs;
  allowed.insert(adds.begin(), adds.end());
  std::vector<uint64_t> sources;
  for (const auto& add : adds) sources.push_back(add.first);

  std::atomic<size_t> published{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> failures{0};
  std::mutex first_failure_mu;
  std::string first_failure;
  auto fail = [&](const std::string& what) {
    if (failures.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(first_failure_mu);
      first_failure = what;
    }
  };
  // `answer` is u's out-neighbor list from a query that began after
  // `seen` adds had returned.
  auto check_out = [&](uint32_t u, const std::vector<uint64_t>& answer,
                       size_t seen, const char* surface) {
    for (uint64_t v : answer) {
      if (!allowed.count({u, static_cast<uint32_t>(v)})) {
        fail(std::string(surface) + ": foreign edge " + std::to_string(u) +
             "->" + std::to_string(v));
      }
    }
    for (size_t k = 0; k < seen; ++k) {
      if (adds[k].first != u) continue;
      if (!std::binary_search(answer.begin(), answer.end(), adds[k].second)) {
        fail(std::string(surface) + ": add " + std::to_string(k) + " " +
             std::to_string(u) + "->" + std::to_string(adds[k].second) +
             " missing after it returned");
      }
    }
  };
  auto reader = [&](int id) {
    std::mt19937 r(static_cast<uint32_t>(id));
    while (!done.load(std::memory_order_acquire)) {
      size_t seen = published.load(std::memory_order_acquire);
      size_t k = r() % adds.size();
      auto [u, v] = adds[k];
      switch (r() % 3) {
        case 0: {
          auto out = rep->OutNeighbors(u);
          if (!out.ok()) {
            fail(out.status().ToString());
          } else {
            check_out(u, out.value(), seen, "single");
          }
          break;
        }
        case 1: {
          auto batch = rep->OutNeighborsBatch(sources);
          if (!batch.ok()) {
            fail(batch.status().ToString());
            break;
          }
          for (size_t j = 0; j < sources.size(); ++j) {
            check_out(static_cast<uint32_t>(sources[j]), batch.value()[j],
                      seen, "batch");
          }
          break;
        }
        default: {
          auto forward = rep->Reachable(u, v);
          auto backward = rep->Reachable(v, u);
          if (!forward.ok() || !backward.ok()) {
            fail("reachability query failed");
          } else if (k < seen && !forward.value()) {
            fail("add " + std::to_string(k) +
                 " not reachable after it returned");
          } else if (backward.value()) {
            fail("reverse of add " + std::to_string(k) + " reachable");
          }
          break;
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader, t);
  size_t begin = 0;
  for (size_t end : ends) {
    std::vector<EdgeEdit> batch;
    for (size_t k = begin; k < end; ++k) {
      batch.push_back(EdgeEdit::Add(adds[k].first, adds[k].second));
    }
    Status applied = rep->ApplyEdits(batch);
    if (applied.ok()) applied = rep->FoldOverlay();
    if (!applied.ok()) {
      fail(applied.ToString());
      break;
    }
    published.store(end, std::memory_order_release);
    begin = end;
    // Let every reader run a few queries against this corpus version.
    uint64_t target = reads.load() + 8 * kReaders;
    while (reads.load() < target) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u) << "first: " << first_failure;
  EXPECT_GT(reads.load(), 0u);
  for (size_t k = 0; k < adds.size(); ++k) {
    auto out = rep->OutNeighbors(adds[k].first);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(std::binary_search(out.value().begin(), out.value().end(),
                                   adds[k].second))
        << "add " << k;
  }
}

// One add per ApplyEdits between nodes that share a shard, with a
// 1-byte overlay budget so every call folds.
TEST(DynamicCorpusTest, ReadersRacingEditsSeeEveryReturnedAdd) {
  constexpr size_t kAdds = 48;
  std::mt19937 rng(4711);
  RaceCorpus corpus;
  ASSERT_NO_FATAL_FAILURE(MakeRaceCorpus(&rng, &corpus));
  corpus.rep->set_overlay_budget_bytes(1);

  // Absent pairs inside one shard's node map, round-robin over shards.
  std::vector<std::pair<uint32_t, uint32_t>> adds;
  std::set<std::pair<uint32_t, uint32_t>> taken = corpus.base_pairs;
  for (size_t k = 0; adds.size() < kAdds; ++k) {
    const auto& nodes =
        corpus.rep->entry(corpus.data_shards[k % corpus.data_shards.size()])
            .nodes;
    uint32_t a = nodes[rng() % nodes.size()];
    uint32_t b = nodes[rng() % nodes.size()];
    if (a == b) continue;
    std::pair<uint32_t, uint32_t> pair{std::min(a, b), std::max(a, b)};
    if (taken.insert(pair).second) adds.push_back(pair);
  }
  std::vector<size_t> ends;
  for (size_t k = 1; k <= kAdds; ++k) ends.push_back(k);
  RaceReadersAgainstWriter(corpus, adds, ends);
  auto stats = corpus.rep->query_stats();
  EXPECT_EQ(stats.shard_folds, kAdds) << "every ApplyEdits must fold";
  EXPECT_EQ(stats.overlay_edits, 0u);
}

// Partial folds race readers: with automatic folds off, batches of
// parity-sized adds on one shard fold it while single adds on the
// other shards stay residual, so readers merge a residual that still
// holds fold-eligible edits over freshly published shards.
TEST(DynamicCorpusTest, ReadersRacingPartialFoldsSeeEveryReturnedAdd) {
  std::mt19937 rng(4712);
  RaceCorpus corpus;
  ASSERT_NO_FATAL_FAILURE(MakeRaceCorpus(&rng, &corpus));
  ASSERT_GE(corpus.data_shards.size(), 2u);
  shard::ShardedRep* rep = corpus.rep;
  rep->set_overlay_budget_bytes(~0ull);

  const size_t heavy = corpus.data_shards[0];
  for (size_t k = 1; k < corpus.data_shards.size(); ++k) {
    ASSERT_GT(ParityAdds(*rep, corpus.data_shards[k]), 4u);
  }
  // Twice the base parity, so a batch still outweighs the payload its
  // predecessor's fold grew.
  const size_t heavy_batch = 2 * ParityAdds(*rep, heavy);
  std::vector<std::pair<uint32_t, uint32_t>> adds;
  std::vector<size_t> ends;
  std::set<std::pair<uint32_t, uint32_t>> taken = corpus.base_pairs;
  for (int round = 0; round < 4; ++round) {
    for (size_t k = 1; k < corpus.data_shards.size(); ++k) {
      auto light = PairsRoutedTo(*rep, corpus.data_shards[k], 1, &taken, &rng);
      adds.insert(adds.end(), light.begin(), light.end());
      ends.push_back(adds.size());
    }
    auto batch = PairsRoutedTo(*rep, heavy, heavy_batch, &taken, &rng);
    adds.insert(adds.end(), batch.begin(), batch.end());
    ends.push_back(adds.size());
  }
  RaceReadersAgainstWriter(corpus, adds, ends);
  auto stats = rep->query_stats();
  EXPECT_EQ(stats.shard_folds, 4u) << "each heavy batch folds its shard";
  EXPECT_EQ(stats.overlay_edits, 4 * (corpus.data_shards.size() - 1))
      << "the light adds stay residual";
}

// GRSHARD3 files end to end: a two-link chain written to disk reopens
// through api::OpenVersioned onto the same corpus; every lineage or
// payload tamper fails closed; a delta is far smaller than the base.
TEST(DynamicCorpusTest, DeltaChainRoundTripsThroughFiles) {
  ScratchDir scratch("chain");
  GeneratedGraph gg = ErdosRenyi(90, 270, 37);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "4");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto* base_rep = dynamic_cast<shard::ShardedRep*>(rep.value().get());

  std::string base_path = scratch.path + "/base.grc";
  auto container =
      api::WrapCodecPayload("sharded:grepair", base_rep->SerializeV2());
  ASSERT_TRUE(WriteFileBytesAtomic(base_path, SpanOf(container)).ok());

  auto hash_of = [](const std::string& path) {
    auto file = MmapFile::Open(path);
    EXPECT_TRUE(file.ok());
    ByteSpan span = file.value()->span();
    return std::make_pair(HashBytes(span.data, span.size),
                          static_cast<uint64_t>(span.size));
  };

  TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
  std::mt19937 rng(91);
  std::vector<uint32_t> labels = LabelsOf(gg.graph);

  // Link 1: open the base file, edit, write d1.
  std::string d1 = scratch.path + "/v1.grs3";
  {
    auto opened = api::OpenVersioned(base_path, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto* sharded = dynamic_cast<shard::ShardedRep*>(opened.value().get());
    auto edits = MakeEdits(&truth, &rng, 25, labels);
    ASSERT_TRUE(sharded->ApplyEdits(edits).ok());
    auto [h, s] = hash_of(base_path);
    auto delta = sharded->BuildDelta(h, s);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    auto bytes = shard::EncodeDeltaContainer(delta.value());
    ASSERT_TRUE(WriteFileBytesAtomic(d1, SpanOf(bytes)).ok());
    // Shipping the diff must beat re-shipping the whole base.
    EXPECT_LT(bytes.size(), container.size() / 2);
  }

  // Link 2: open base+d1 (forcing a fold first so d1 carries shards),
  // edit again, write d2.
  std::string d2 = scratch.path + "/v2.grs3";
  {
    auto opened = api::OpenVersioned(base_path, {d1});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto* sharded = dynamic_cast<shard::ShardedRep*>(opened.value().get());
    ASSERT_TRUE(sharded->FoldOverlay().ok());
    auto edits = MakeEdits(&truth, &rng, 25, labels);
    ASSERT_TRUE(sharded->ApplyEdits(edits).ok());
    auto [h, s] = hash_of(d1);
    auto delta = sharded->BuildDelta(h, s);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(WriteFileBytesAtomic(
                    d2, SpanOf(shard::EncodeDeltaContainer(delta.value())))
                    .ok());
  }

  // The full chain reproduces the mutated corpus exactly.
  auto chained = api::OpenVersioned(base_path, {d1, d2});
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();
  auto fresh = codec->Compress(truth.ToHypergraph(), gg.alphabet, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectQueriesAgree(chained.value().get(), fresh.value().get(), 8, "chain");
  ExpectDecompressAgrees(chained.value().get(), fresh.value().get(), "chain");

  // Lineage violations fail closed: a skipped link, a tampered delta,
  // a delta aimed at a non-sharded base.
  auto skipped = api::OpenVersioned(base_path, {d2});
  EXPECT_EQ(skipped.status().code(), StatusCode::kCorruption);

  auto d1_bytes = ReadFileBytes(d1).ValueOrDie();
  d1_bytes[d1_bytes.size() / 2] ^= 0x20;
  std::string d1_bad = scratch.path + "/v1_bad.grs3";
  ASSERT_TRUE(WriteFileBytesAtomic(d1_bad, SpanOf(d1_bytes)).ok());
  auto tampered = api::OpenVersioned(base_path, {d1_bad, d2});
  EXPECT_EQ(tampered.status().code(), StatusCode::kCorruption);

  auto plain = api::CodecRegistry::Create("grepair").ValueOrDie();
  auto plain_rep = plain->Compress(gg.graph, gg.alphabet);
  ASSERT_TRUE(plain_rep.ok());
  std::string plain_path = scratch.path + "/plain.grc";
  ASSERT_TRUE(WriteFileBytesAtomic(
                  plain_path,
                  SpanOf(api::WrapCodecPayload(
                      "grepair", plain_rep.value()->Serialize())))
                  .ok());
  auto not_sharded = api::OpenVersioned(plain_path, {d1});
  EXPECT_EQ(not_sharded.status().code(), StatusCode::kInvalidArgument);
}

// The same lineage walk over a served base (`query --remote --delta`):
// the base file lives on the server, so api::ApplyDeltaChain anchors
// the first link by the directory checksum inside ApplyDelta alone;
// later links still chain hash-to-hash through the local delta files.
TEST(DynamicCorpusTest, DeltaChainOverServedBase) {
  ScratchDir scratch("served_chain");
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "4");
  auto write_base = [&](const GeneratedGraph& gg, const std::string& path) {
    auto rep = codec->Compress(gg.graph, gg.alphabet, options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    auto bytes = api::WrapCodecPayload(
        "sharded:grepair",
        dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2());
    ASSERT_TRUE(WriteFileBytesAtomic(path, SpanOf(bytes)).ok());
  };
  // Opens `base` + `chain`, applies a fresh edit batch and writes the
  // next link to `out`, chained to the newest existing file.
  auto extend = [&](const std::string& base, TruthCorpus* truth,
                    std::mt19937* rng, const std::vector<std::string>& chain,
                    const std::string& out) {
    auto opened = api::OpenVersioned(base, chain);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto* sharded = dynamic_cast<shard::ShardedRep*>(opened.value().get());
    std::vector<uint32_t> labels = {0};
    ASSERT_TRUE(sharded->ApplyEdits(MakeEdits(truth, rng, 20, labels)).ok());
    auto prev = ReadFileBytes(chain.empty() ? base : chain.back());
    ASSERT_TRUE(prev.ok()) << prev.status().ToString();
    auto delta = sharded->BuildDelta(
        HashBytes(prev.value().data(), prev.value().size()),
        prev.value().size());
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(
        WriteFileBytesAtomic(
            out, SpanOf(shard::EncodeDeltaContainer(delta.value())))
            .ok());
  };

  GeneratedGraph gg = ErdosRenyi(90, 270, 43);
  ASSERT_EQ(LabelsOf(gg.graph), std::vector<uint32_t>{0});
  std::string base_path = scratch.path + "/base.grc";
  write_base(gg, base_path);
  TruthCorpus truth = TruthCorpus::FromGraph(gg.graph);
  std::mt19937 rng(97);
  std::string d1 = scratch.path + "/v1.grs3";
  std::string d2 = scratch.path + "/v2.grs3";
  std::string d3 = scratch.path + "/v3.grs3";
  extend(base_path, &truth, &rng, {}, d1);
  extend(base_path, &truth, &rng, {d1}, d2);
  extend(base_path, &truth, &rng, {d1, d2}, d3);

  // A delta built against another base (same shape, other edges).
  GeneratedGraph other = ErdosRenyi(90, 270, 44);
  std::string other_path = scratch.path + "/other.grc";
  write_base(other, other_path);
  TruthCorpus other_truth = TruthCorpus::FromGraph(other.graph);
  std::string foreign = scratch.path + "/foreign.grs3";
  extend(other_path, &other_truth, &rng, {}, foreign);

  serve::CorpusRegistry registry;
  ASSERT_TRUE(registry.AddFile("base", base_path).ok());
  auto server = serve::ShardServer::Start(std::move(registry));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string target = server.value()->host_port() + "/base";
  auto served_with = [&](const std::vector<std::string>& chain,
                         std::unique_ptr<shard::ShardedRep>* rep) {
    auto opened = api::OpenRemote(target);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return opened.status();
    *rep = std::move(opened).ValueOrDie();
    return api::ApplyDeltaChain(rep->get(), "", chain);
  };

  // A correct two-link chain answers like the local versioned open.
  std::unique_ptr<shard::ShardedRep> served;
  auto chained = served_with({d1, d2}, &served);
  ASSERT_TRUE(chained.ok()) << chained.ToString();
  auto local = api::OpenVersioned(base_path, {d1, d2});
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ExpectQueriesAgree(served.get(), local.value().get(), 4, "served chain");
  ExpectDecompressAgrees(served.get(), local.value().get(), "served chain");
  auto edited = served->Decompress();
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_NE(LabeledEdgeSet(edited.value()), LabeledEdgeSet(gg.graph))
      << "the chain's edits must be visible";

  // A skipped or swapped link fails closed.
  std::unique_ptr<shard::ShardedRep> skipped_rep, swapped_rep;
  auto skipped = served_with({d1, d3}, &skipped_rep);
  EXPECT_EQ(skipped.code(), StatusCode::kCorruption) << skipped.ToString();
  auto swapped = served_with({d2, d1}, &swapped_rep);
  EXPECT_EQ(swapped.code(), StatusCode::kCorruption) << swapped.ToString();

  // A delta against another base fails on the directory checksum.
  std::unique_ptr<shard::ShardedRep> foreign_rep;
  auto wrong_base = served_with({foreign}, &foreign_rep);
  EXPECT_EQ(wrong_base.code(), StatusCode::kCorruption)
      << wrong_base.ToString();
  EXPECT_NE(wrong_base.message().find("directory checksum"),
            std::string::npos)
      << wrong_base.ToString();
}

// A process killed mid-fold must never damage the base container:
// folds are in-memory swaps and delta writes are tmp+rename, so the
// base file reopens bit-identical afterwards.
TEST(DynamicCorpusTest, KillMidFoldLeavesBaseIntact) {
  ScratchDir scratch("crash");
  GeneratedGraph gg = ErdosRenyi(80, 240, 41);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "3");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  std::string base_path = scratch.path + "/base.grc";
  ASSERT_TRUE(
      WriteFileBytesAtomic(
          base_path,
          SpanOf(api::WrapCodecPayload(
              "sharded:grepair",
              dynamic_cast<shard::ShardedRep*>(rep.value().get())
                  ->SerializeV2())))
          .ok());
  auto before = ReadFileBytes(base_path).ValueOrDie();

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: fold continuously against the mapped base until killed.
    auto opened = api::OpenVersioned(base_path, {});
    if (!opened.ok()) _exit(3);
    auto* sharded = dynamic_cast<shard::ShardedRep*>(opened.value().get());
    sharded->set_overlay_budget_bytes(1);  // every ApplyEdits folds
    uint32_t n = static_cast<uint32_t>(sharded->num_nodes());
    for (uint32_t i = 0;; ++i) {
      std::vector<EdgeEdit> edits = {
          EdgeEdit::Add(i % n, (i * 7 + 1) % n),
          EdgeEdit::Delete((i * 3) % n, (i * 5 + 2) % n)};
      if (edits[0].u == edits[0].v) edits[0].v = (edits[0].v + 1) % n;
      if (edits[0].u == edits[0].v) continue;
      (void)sharded->ApplyEdits(edits);
    }
    _exit(0);  // unreachable
  }
  // Give the child time to get folds in flight, then kill it cold.
  usleep(60 * 1000);
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  auto after = ReadFileBytes(base_path).ValueOrDie();
  EXPECT_EQ(before, after) << "fold mutated the base container";
  auto reopened = api::OpenVersioned(base_path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->OutNeighbors(0).ok());
}

// Torn-write regression for the atomic file writer every container and
// sidecar write funnels through: overwrites are all-or-nothing with no
// stray temp files, and a failed write never creates the target.
TEST(DynamicCorpusTest, AtomicWritesLeaveNoTornOrStrayFiles) {
  ScratchDir scratch("atomic");
  std::string target = scratch.path + "/c.bin";
  std::vector<uint8_t> old_bytes(1024, 0xAA);
  ASSERT_TRUE(WriteFileBytesAtomic(target, SpanOf(old_bytes)).ok());
  std::vector<uint8_t> new_bytes(4096, 0xBB);
  ASSERT_TRUE(WriteFileBytesAtomic(target, SpanOf(new_bytes)).ok());
  EXPECT_EQ(ReadFileBytes(target).ValueOrDie(), new_bytes);
  // The directory holds exactly the target — no .tmp leftovers.
  size_t entries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "c.bin");
  }
  EXPECT_EQ(entries, 1u);

  // Failure path: a write into a missing directory errors and leaves
  // nothing behind (in particular no half-written target to mistake
  // for a container later).
  std::string missing = scratch.path + "/nodir/c.bin";
  EXPECT_FALSE(WriteFileBytesAtomic(missing, SpanOf(new_bytes)).ok());
  EXPECT_FALSE(std::filesystem::exists(scratch.path + "/nodir"));

  // The legacy entry point routes through the same atomic path.
  ASSERT_TRUE(WriteFileBytes(target, old_bytes).ok());
  EXPECT_EQ(ReadFileBytes(target).ValueOrDie(), old_bytes);
}

// The rename at the end of an atomic write replaces whatever node the
// path names, so a target that is not a regular file (a FIFO, or a
// symlink — the same holds for a device node) must fail closed and be
// left as it was, with no temporary left behind.
TEST(DynamicCorpusTest, AtomicWritesRefuseNonRegularTargets) {
  namespace fs = std::filesystem;
  ScratchDir scratch("atomic_nonregular");
  std::string fifo = scratch.path + "/out.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  std::string real = scratch.path + "/real.bin";
  std::vector<uint8_t> real_bytes(64, 0xCC);
  ASSERT_TRUE(WriteFileBytesAtomic(real, SpanOf(real_bytes)).ok());
  std::string link = scratch.path + "/link.bin";
  fs::create_symlink(real, link);

  std::vector<uint8_t> bytes(379, 0xDD);
  for (const std::string& target : {fifo, link}) {
    Status status = WriteFileBytesAtomic(target, SpanOf(bytes));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << target;
    EXPECT_NE(status.ToString().find(target), std::string::npos)
        << status.ToString();
  }
  EXPECT_TRUE(fs::is_fifo(fs::symlink_status(fifo)));
  EXPECT_TRUE(fs::is_symlink(fs::symlink_status(link)));
  EXPECT_EQ(fs::read_symlink(link), fs::path(real));
  EXPECT_EQ(ReadFileBytes(real).ValueOrDie(), real_bytes);
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names,
            (std::set<std::string>{"out.fifo", "real.bin", "link.bin"}));
}

// A freshly compressed rep is the rep its own GRSHARD2 bytes open to:
// it anchors deltas by the same directory checksum, builds the same
// delta for the same edits, and still refuses a delta bound to another
// base.
TEST(DynamicCorpusTest, CompressedRepAnchorsDeltasLikeItsBytes) {
  GeneratedGraph gg = BarabasiAlbert(50, 3, 43);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "2");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok());
  auto* compressed = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  auto opened = shard::ShardedRep::Deserialize(compressed->SerializeV2());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_NE(compressed->directory_checksum(), 0u);
  EXPECT_EQ(compressed->directory_checksum(),
            opened.value()->directory_checksum());

  std::vector<EdgeEdit> edits = {EdgeEdit::Add(0, 49), EdgeEdit::Add(7, 3),
                                 EdgeEdit::Delete(1, 0)};
  for (shard::ShardedRep* r : {compressed, opened.value().get()}) {
    ASSERT_TRUE(r->ApplyEdits(edits).ok());
    ASSERT_TRUE(r->FoldOverlay().ok());
  }
  auto from_compressed = compressed->BuildDelta(1, 2);
  auto from_opened = opened.value()->BuildDelta(1, 2);
  ASSERT_TRUE(from_compressed.ok()) << from_compressed.status().ToString();
  ASSERT_TRUE(from_opened.ok()) << from_opened.status().ToString();
  EXPECT_EQ(shard::EncodeDeltaContainer(from_compressed.value()),
            shard::EncodeDeltaContainer(from_opened.value()));

  shard::DeltaContainer foreign;
  foreign.base_dir_checksum = compressed->directory_checksum() ^ 1;
  foreign.num_nodes = gg.graph.num_nodes();
  EXPECT_EQ(compressed->ApplyDelta(foreign).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace grepair
