// Differential property suite over the whole codec registry.
//
// Two properties, checked for every registered codec (the sharded
// meta-variants included) across every dataset generator at several
// sizes and seeds:
//
//   1. Round-trip: Decompress(Deserialize(Serialize(Compress(G)))) is
//      labeled-edge-multiset-identical to G with the node count
//      preserved.
//   2. Differential: sharded:<inner> (the ShardedRep router) reproduces
//      exactly the graph <inner> reproduces — the replacement-strategy
//      variants MR-RePair-style systems get subtly wrong are exactly
//      what this cross-check catches.
//
// The router's own answers are then checked against its Decompress:
// per node, on ground truth, and where shard node maps overlap.
//
// Codecs that reject a dataset up front (e.g. k2 on hyperedges) must do
// so with kInvalidArgument, which the suite treats as a verified skip,
// not a pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/api/grepair_api.h"

namespace grepair {
namespace api {
namespace {

struct Dataset {
  std::string label;
  GeneratedGraph gg;
};

// Every generator family, two scales, two seeds (kept small enough
// that the full codec sweep stays fast under TSan).
const std::vector<Dataset>& AllDatasets() {
  static const std::vector<Dataset>* datasets = [] {
    auto* out = new std::vector<Dataset>();
    for (uint32_t n : {48u, 160u}) {
      for (uint64_t seed : {1ull, 5ull}) {
        std::string tag =
            "_n" + std::to_string(n) + "_s" + std::to_string(seed);
        out->push_back({"er" + tag, ErdosRenyi(n, n * 3, seed)});
        out->push_back({"ba" + tag, BarabasiAlbert(n, 3, seed)});
        out->push_back({"coauth" + tag, CoAuthorship(n, n, seed)});
        out->push_back({"rdf_types" + tag, RdfTypes(n * 3, 12, seed)});
        out->push_back({"rdf_entities" + tag,
                        RdfEntities(n, 6, 12, seed)});  // labeled
        out->push_back(
            {"dblp" + tag, DblpVersions(3, n / 4, n / 8, seed, "dblp")});
      }
    }
    out->push_back(
        {"copies", DisjointCopies(CycleWithDiagonal(), 40, "copies")});
    return out;
  }();
  return *datasets;
}

using LabeledEdge = std::pair<Label, Attachments>;

// Sorted multisets, deliberately NOT deduplicated: the format
// supports parallel edges, so a codec that silently collapses
// multiplicity must fail these comparisons.
std::vector<LabeledEdge> LabeledEdgeSet(const Hypergraph& g) {
  std::vector<LabeledEdge> edges;
  for (const HEdge& e : g.edges()) edges.push_back({e.label, e.att});
  std::sort(edges.begin(), edges.end());
  return edges;
}

class DifferentialRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialRoundTrip, EveryDatasetRoundTripsExactly) {
  auto codec = CodecRegistry::Create(GetParam());
  ASSERT_TRUE(codec.ok()) << codec.status().ToString();
  bool compressed_any = false;
  for (const Dataset& dataset : AllDatasets()) {
    SCOPED_TRACE(dataset.label);
    auto rep = codec.value()->Compress(dataset.gg.graph,
                                       dataset.gg.alphabet);
    if (!rep.ok()) {
      // A capability mismatch must be a clean, typed rejection.
      EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument)
          << rep.status().ToString();
      continue;
    }
    compressed_any = true;
    EXPECT_EQ(rep.value()->num_nodes(), dataset.gg.graph.num_nodes());

    auto bytes = rep.value()->Serialize();
    ASSERT_FALSE(bytes.empty());
    auto back = codec.value()->Deserialize(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    auto decompressed = back.value()->Decompress();
    ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();

    EXPECT_EQ(decompressed.value().num_nodes(), dataset.gg.graph.num_nodes());
    EXPECT_EQ(LabeledEdgeSet(decompressed.value()),
              LabeledEdgeSet(dataset.gg.graph));
  }
  EXPECT_TRUE(compressed_any)
      << GetParam() << " rejected every dataset in the suite";
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, DifferentialRoundTrip,
                         ::testing::ValuesIn(CodecRegistry::Names()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           std::replace(name.begin(), name.end(), ':', '_');
                           return name;
                         });

class ShardedAgreesWithInner : public ::testing::TestWithParam<std::string> {
};

TEST_P(ShardedAgreesWithInner, SameGraph) {
  auto inner = CodecRegistry::Create(GetParam()).ValueOrDie();
  auto sharded = CodecRegistry::Create("sharded:" + GetParam());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (const Dataset& dataset : AllDatasets()) {
    SCOPED_TRACE(dataset.label);
    auto inner_rep =
        inner->Compress(dataset.gg.graph, dataset.gg.alphabet);
    CodecOptions options;
    options.Set("shards", "3");
    options.Set("threads", "2");
    auto sharded_rep = sharded.value()->Compress(
        dataset.gg.graph, dataset.gg.alphabet, options);
    // Sharding must not change which inputs a codec accepts.
    ASSERT_EQ(inner_rep.ok(), sharded_rep.ok())
        << "inner=" << inner_rep.status().ToString()
        << " sharded=" << sharded_rep.status().ToString();
    if (!inner_rep.ok()) continue;

    auto inner_graph = inner_rep.value()->Decompress();
    auto sharded_graph = sharded_rep.value()->Decompress();
    ASSERT_TRUE(inner_graph.ok()) << inner_graph.status().ToString();
    ASSERT_TRUE(sharded_graph.ok()) << sharded_graph.status().ToString();
    EXPECT_EQ(sharded_graph.value().num_nodes(),
              inner_graph.value().num_nodes());
    EXPECT_EQ(LabeledEdgeSet(sharded_graph.value()),
              LabeledEdgeSet(inner_graph.value()));
  }
}

INSTANTIATE_TEST_SUITE_P(BaseCodecs, ShardedAgreesWithInner,
                         ::testing::Values("grepair", "k2"),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Every codec must reject out-of-range node ids the same way:
// kInvalidArgument when it answers the query kind at all (CheckNodeId
// contract; every codec answers neighbor queries), kUnimplemented
// otherwise (plain k2 has no reachability) — never silence, never a
// crash, and never a divergent code per backend. Swept over ids at and past
// the boundary, including UINT64_MAX (which would truncate to a valid
// id if any codec narrowed before checking).
class AdversarialIdSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversarialIdSweep, OutOfRangeIdsRejectUniformly) {
  GeneratedGraph gg = BarabasiAlbert(60, 3, 11);
  auto codec = CodecRegistry::Create(GetParam()).ValueOrDie();
  CodecOptions options;
  if (GetParam().rfind("sharded:", 0) == 0) {
    options.Set("shards", "3");
  }
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  uint64_t n = rep.value()->num_nodes();
  ASSERT_EQ(n, gg.graph.num_nodes());

  ASSERT_TRUE(codec->capabilities() & kNeighborQueries);
  bool reach = codec->capabilities() & kReachabilityQueries;
  auto expect_code = [&](const Status& status, bool supported,
                         const std::string& what) {
    EXPECT_EQ(status.code(), supported ? StatusCode::kInvalidArgument
                                       : StatusCode::kUnimplemented)
        << what << ": " << status.ToString();
  };

  for (uint64_t bad : {n, n + 1, std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE("id=" + std::to_string(bad));
    expect_code(rep.value()->OutNeighbors(bad).status(), true, "out");
    expect_code(rep.value()->InNeighbors(bad).status(), true, "in");
    expect_code(rep.value()->Reachable(0, bad).status(), reach,
                "reach-to");
    expect_code(rep.value()->Reachable(bad, 0).status(), reach,
                "reach-from");
    // A bad id poisons the whole batch, valid neighbors included.
    expect_code(rep.value()->OutNeighborsBatch({0, bad}).status(), true,
                "batch");
    expect_code(rep.value()->ReachableBatch({{0, 0}, {bad, 0}}).status(),
                reach, "reach-batch");
    // Even from == to must validate before the trivial-true answer.
    expect_code(rep.value()->Reachable(bad, bad).status(), reach,
                "reach-self");
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, AdversarialIdSweep,
                         ::testing::ValuesIn(CodecRegistry::Names()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           std::replace(name.begin(), name.end(), ':', '_');
                           return name;
                         });

// Sharded neighbor queries must agree with the ground-truth adjacency
// of the input graph, across shard boundaries.
TEST(ShardedQueryDifferentialTest, NeighborsMatchGroundTruth) {
  GeneratedGraph gg = BarabasiAlbert(220, 3, 29);
  for (const char* backend : {"sharded:grepair", "sharded:k2"}) {
    auto codec = CodecRegistry::Create(backend).ValueOrDie();
    CodecOptions options;
    options.Set("shards", "4");
    auto rep = codec->Compress(gg.graph, gg.alphabet, options);
    ASSERT_TRUE(rep.ok()) << backend << ": " << rep.status().ToString();
    // Coverage guard: some queried node must sit in two or more
    // shards' node maps, so the multi-owner merge is exercised.
    const auto& sharded = dynamic_cast<const shard::ShardedRep&>(*rep.value());
    size_t max_owners = 0;
    for (NodeId v = 0; v < gg.graph.num_nodes(); v += 7) {
      size_t owners = 0;
      for (size_t k = 0; k < sharded.num_shards(); ++k) {
        const auto& nodes = sharded.entry(k).nodes;
        owners += std::binary_search(nodes.begin(), nodes.end(), v);
      }
      max_owners = std::max(max_owners, owners);
    }
    EXPECT_GE(max_owners, 2u) << backend;
    for (NodeId v = 0; v < gg.graph.num_nodes(); v += 7) {
      std::vector<uint64_t> expected_out, expected_in;
      for (const HEdge& e : gg.graph.edges()) {
        if (e.att[0] == v) expected_out.push_back(e.att[1]);
        if (e.att[1] == v) expected_in.push_back(e.att[0]);
      }
      for (auto* vec : {&expected_out, &expected_in}) {
        std::sort(vec->begin(), vec->end());
        vec->erase(std::unique(vec->begin(), vec->end()), vec->end());
      }
      auto out = rep.value()->OutNeighbors(v);
      auto in = rep.value()->InNeighbors(v);
      ASSERT_TRUE(out.ok()) << backend;
      ASSERT_TRUE(in.ok()) << backend;
      EXPECT_EQ(out.value(), expected_out) << backend << " node " << v;
      EXPECT_EQ(in.value(), expected_in) << backend << " node " << v;
    }
  }
}

// The out and in adjacency of `rep`'s Decompress (rank-2 edges, sorted
// and deduplicated per node) over its num_nodes() ids.
struct Adjacency {
  std::vector<std::vector<uint64_t>> out, in;
};

Adjacency DecompressedAdjacency(const shard::ShardedRep& rep) {
  auto graph = rep.Decompress();
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  Adjacency adj;
  adj.out.resize(rep.num_nodes());
  adj.in.resize(rep.num_nodes());
  if (!graph.ok()) return adj;
  for (const HEdge& e : graph.value().edges()) {
    if (e.att.size() != 2) continue;
    adj.out[e.att[0]].push_back(e.att[1]);
    adj.in[e.att[1]].push_back(e.att[0]);
  }
  for (auto* lists : {&adj.out, &adj.in}) {
    for (auto& list : *lists) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }
  return adj;
}

// Every node's OutNeighbors and InNeighbors, and one all-node
// OutNeighborsBatch at 1 and at 4 threads, equal the Decompress
// adjacency. Returns that adjacency.
Adjacency ExpectRoutingMatchesDecompress(shard::ShardedRep* rep) {
  Adjacency adj = DecompressedAdjacency(*rep);
  const uint64_t n = rep->num_nodes();
  Adjacency routed;
  for (uint64_t v = 0; v < n; ++v) {
    routed.out.push_back(rep->OutNeighbors(v).ValueOrDie());
    routed.in.push_back(rep->InNeighbors(v).ValueOrDie());
  }
  EXPECT_TRUE(routed.out == adj.out);
  EXPECT_TRUE(routed.in == adj.in);
  std::vector<uint64_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (int threads : {1, 4}) {
    rep->set_threads(threads);
    auto batch = rep->OutNeighborsBatch(all);
    EXPECT_TRUE(batch.ok() && batch.value() == adj.out)
        << "threads " << threads;
  }
  rep->set_threads(1);
  return adj;
}

TEST(ShardedQueryDifferentialTest, OverlappingNodeMapsRouteEveryNode) {
  // RDF entity graphs put their shared pool ids first and every entity
  // points into them, so each of the 6 edge-range shards' node maps
  // spans the pool ids: most ids lie inside several maps' ranges, and
  // the pool ids have an owner in every shard.
  GeneratedGraph gg = RdfEntities(300, 8, 12, 1);
  auto codec = CodecRegistry::Create("sharded:grepair").ValueOrDie();
  CodecOptions options;
  options.Set("shards", "6");
  auto compressed = codec->Compress(gg.graph, gg.alphabet, options);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  const std::vector<uint8_t> base = compressed.value()->Serialize();
  auto opened = shard::ShardedRep::Deserialize(base);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  shard::ShardedRep& rep = *opened.value();
  const uint64_t n = rep.num_nodes();

  // Coverage guard: some id has an owner in every data shard.
  size_t data_shards = 0;
  for (size_t k = 0; k < rep.num_shards(); ++k) {
    data_shards += rep.entry(k).has_payload();
  }
  ASSERT_GE(data_shards, 4u);
  uint64_t hub = 0;
  size_t max_owners = 0;
  for (uint64_t v = 0; v < n; ++v) {
    const size_t owners = rep.store().owner_index().Owners(v).size();
    if (owners > max_owners) {
      max_owners = owners;
      hub = v;
    }
  }
  EXPECT_EQ(max_owners, data_shards);

  Adjacency base_adj;
  {
    SCOPED_TRACE("base");
    base_adj = ExpectRoutingMatchesDecompress(&rep);
  }

  // Edits: reversed copies of some base edges (foldable), deletes of
  // others, and adds on three ids past the base node count.
  std::vector<shard::EdgeEdit> edits;
  const auto& edges = gg.graph.edges();
  for (size_t i = 0; i + 5 < edges.size() && i < 400; i += 10) {
    const HEdge& e = edges[i];
    edits.push_back(shard::EdgeEdit::Add(e.att[1], e.att[0], e.label));
    const HEdge& d = edges[i + 5];
    edits.push_back(shard::EdgeEdit::Delete(d.att[0], d.att[1]));
  }
  const uint32_t fresh = static_cast<uint32_t>(n);
  edits.push_back(shard::EdgeEdit::Add(fresh, 0));
  edits.push_back(shard::EdgeEdit::Add(1, fresh + 1));
  edits.push_back(shard::EdgeEdit::Add(fresh + 2, fresh));
  rep.set_overlay_budget_bytes(~0ull);
  ASSERT_TRUE(rep.ApplyEdits(edits).ok());
  ASSERT_EQ(rep.num_nodes(), n + 3);
  {
    SCOPED_TRACE("overlay");
    ExpectRoutingMatchesDecompress(&rep);
  }

  rep.set_overlay_budget_bytes(0);
  ASSERT_TRUE(rep.FoldOverlay().ok());
  ASSERT_GT(rep.query_stats().shard_folds, 0u);
  Adjacency folded;
  {
    SCOPED_TRACE("folded");
    folded = ExpectRoutingMatchesDecompress(&rep);
  }

  auto delta = rep.BuildDelta(0, 0);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  const std::vector<uint8_t> delta_bytes =
      shard::EncodeDeltaContainer(delta.value());
  auto decoded = shard::DecodeDeltaContainer(SpanOf(delta_bytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto reopened = shard::ShardedRep::Deserialize(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(reopened.value()->ApplyDelta(decoded.value()).ok());
  {
    SCOPED_TRACE("delta on a fresh open");
    Adjacency applied = ExpectRoutingMatchesDecompress(reopened.value().get());
    EXPECT_TRUE(applied.out == folded.out);
    EXPECT_TRUE(applied.in == folded.in);
  }

  // Eight threads race the first routed lookups of a fresh rep (they
  // build its owner index and fault its shards): singles and batches
  // on the hub, which every data shard holds, and on ids 0 to 3.
  auto raced = shard::ShardedRep::Deserialize(base);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  std::vector<std::vector<uint64_t>> got(8);
  auto node_of = [&](size_t t) { return t < 4 ? hub : t - 4; };
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      const uint64_t v = node_of(t);
      if (t % 3 == 0) {
        got[t] = raced.value()->InNeighbors(v).ValueOrDie();
      } else if (t % 3 == 1) {
        got[t] = raced.value()->OutNeighbors(v).ValueOrDie();
      } else {
        got[t] = raced.value()->OutNeighborsBatch({v, 0}).ValueOrDie()[0];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < got.size(); ++t) {
    const uint64_t v = node_of(t);
    EXPECT_EQ(got[t], t % 3 == 0 ? base_adj.in[v] : base_adj.out[v]) << t;
  }
}

}  // namespace
}  // namespace api
}  // namespace grepair
