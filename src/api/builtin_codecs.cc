// Built-in GraphCodec adapters: the two file backends, each wrapped
// behind the polymorphic API so the CLI, benches and tests can treat
// them uniformly. Both answer neighbor queries on their own bytes.
// CodecRegistry's closed table of them is defined at the end.
//
//   grepair     SL-HR grammar compression with neighborhood and
//               reachability queries (the paper's contribution)
//   k2          per-label k^2-trees (Brisaboa, Ladra & Navarro)
//
// The paper's size-only baselines (HN, LM, adjacency-list RePair) are
// not codecs: no file or socket reaches them. bench/bench_util.h runs
// their encoders directly for the size tables.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "src/api/codec_registry.h"
#include "src/api/graph_codec.h"
#include "src/baselines/k2_compressor.h"
#include "src/graph/node_order.h"
#include "src/query/compressed_graph.h"
#include "src/shard/sharded_codec.h"
#include "src/util/byte_io.h"

namespace grepair {
namespace api {
namespace {

Status RequireRank2(const Hypergraph& graph, const char* codec) {
  for (const auto& e : graph.edges()) {
    if (e.rank() != 2) {
      return Status::InvalidArgument(
          std::string(codec) + " requires a simple graph (rank-2 edges)");
    }
  }
  return Status::OK();
}

// Integer option with loud range validation: the codecs narrow to
// int/uint32, so out-of-range values must fail, not wrap.
Result<int64_t> GetIntInRange(const CodecOptions& options,
                              const std::string& key, int64_t def,
                              int64_t min, int64_t max) {
  auto value = options.GetInt(key, def);
  if (!value.ok()) return value.status();
  if (value.value() < min || value.value() > max) {
    return Status::InvalidArgument(
        "option " + key + "=" + std::to_string(value.value()) +
        " out of range [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  return value.value();
}

// ---------------------------------------------------------------------------
// grepair

class GrepairRep : public CompressedRep {
 public:
  explicit GrepairRep(CompressedGraph g) : graph_(std::move(g)) {}

  std::vector<uint8_t> Serialize() const override { return graph_.Serialize(); }
  size_t ByteSize() const override { return graph_.SerializedSize(); }
  Result<Hypergraph> Decompress() const override {
    return graph_.Decompress();
  }
  uint64_t num_nodes() const override { return graph_.num_nodes(); }
  Status ForEachRank2Edge(const Rank2EdgeSink& sink) const override {
    return graph_.ForEachRank2Edge(sink);
  }

  Result<std::vector<uint64_t>> OutNeighbors(uint64_t node) const override {
    GREPAIR_RETURN_IF_ERROR(CheckNodeId(node, graph_.num_nodes()));
    singles_.fetch_add(1, std::memory_order_relaxed);
    return graph_.OutNeighbors(node);
  }
  Result<std::vector<uint64_t>> InNeighbors(uint64_t node) const override {
    GREPAIR_RETURN_IF_ERROR(CheckNodeId(node, graph_.num_nodes()));
    singles_.fetch_add(1, std::memory_order_relaxed);
    return graph_.InNeighbors(node);
  }
  Result<bool> Reachable(uint64_t from, uint64_t to) const override {
    GREPAIR_RETURN_IF_ERROR(CheckNodeId(from, graph_.num_nodes()));
    GREPAIR_RETURN_IF_ERROR(CheckNodeId(to, graph_.num_nodes()));
    singles_.fetch_add(1, std::memory_order_relaxed);
    return graph_.Reachable(from, to);
  }

  Result<std::vector<std::vector<uint64_t>>> OutNeighborsBatch(
      const std::vector<uint64_t>& nodes) const override {
    // Validate the whole batch up front so no answer is computed for a
    // batch that fails; the memo tables make repeats within the batch
    // cheap without extra bookkeeping here.
    for (uint64_t node : nodes) {
      GREPAIR_RETURN_IF_ERROR(CheckNodeId(node, graph_.num_nodes()));
    }
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    batch_items_.fetch_add(nodes.size(), std::memory_order_relaxed);
    std::vector<std::vector<uint64_t>> results;
    results.reserve(nodes.size());
    for (uint64_t node : nodes) {
      results.push_back(graph_.OutNeighbors(node));
    }
    return results;
  }

  Result<std::vector<uint8_t>> ReachableBatch(
      const std::vector<std::pair<uint64_t, uint64_t>>& pairs)
      const override {
    for (const auto& [from, to] : pairs) {
      GREPAIR_RETURN_IF_ERROR(CheckNodeId(from, graph_.num_nodes()));
      GREPAIR_RETURN_IF_ERROR(CheckNodeId(to, graph_.num_nodes()));
    }
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    batch_items_.fetch_add(pairs.size(), std::memory_order_relaxed);
    std::vector<uint8_t> results;
    results.reserve(pairs.size());
    for (const auto& [from, to] : pairs) {
      results.push_back(graph_.Reachable(from, to) ? 1 : 0);
    }
    return results;
  }

  QueryStats query_stats() const override {
    QueryStats stats;
    stats.single_queries = singles_.load(std::memory_order_relaxed);
    stats.batch_calls = batch_calls_.load(std::memory_order_relaxed);
    stats.batch_items = batch_items_.load(std::memory_order_relaxed);
    stats.memo_entries = graph_.memo_entries();
    stats.memo_hits = graph_.memo_hits();
    return stats;
  }

  const CompressedGraph& graph() const { return graph_; }

 private:
  CompressedGraph graph_;
  mutable std::atomic<uint64_t> singles_{0};
  mutable std::atomic<uint64_t> batch_calls_{0};
  mutable std::atomic<uint64_t> batch_items_{0};
};

class GrepairCodec : public GraphCodec {
 public:
  const char* name() const override { return "grepair"; }
  uint32_t capabilities() const override {
    return kSupportsLabels | kSupportsHyperedges | kNeighborQueries |
           kReachabilityQueries;
  }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    GREPAIR_RETURN_IF_ERROR(options.ExpectKeys(
        {"max-rank", "order", "seed", "virtual", "prune"}));
    CompressOptions opts;
    auto max_rank = GetIntInRange(options, "max-rank", opts.max_rank, 2, 255);
    if (!max_rank.ok()) return max_rank.status();
    opts.max_rank = static_cast<int>(max_rank.value());
    std::string order = options.GetString("order", "");
    if (!order.empty() && !ParseNodeOrderKind(order, &opts.node_order)) {
      return Status::InvalidArgument("unknown node order '" + order + "'");
    }
    auto seed = GetIntInRange(options, "seed",
                              static_cast<int64_t>(opts.order_seed), 0,
                              INT64_MAX);
    if (!seed.ok()) return seed.status();
    opts.order_seed = static_cast<uint64_t>(seed.value());
    auto virt = options.GetBool("virtual", opts.connect_components);
    if (!virt.ok()) return virt.status();
    opts.connect_components = virt.value();
    auto prune = options.GetBool("prune", opts.prune);
    if (!prune.ok()) return prune.status();
    opts.prune = prune.value();

    auto compressed = CompressedGraph::FromGraph(graph, alphabet, opts);
    if (!compressed.ok()) return compressed.status();
    return std::unique_ptr<CompressedRep>(
        new GrepairRep(std::move(compressed).ValueOrDie()));
  }

  Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override {
    return DeserializeSpan(SpanOf(bytes));
  }

  // Span-native: the grammar coder decodes straight out of the view,
  // so a lazily faulted shard payload never gets copied on its way in.
  // Compress always keeps psi', and a shard's answers are read as
  // shard-local ids, which only psi' gives back: a payload without it
  // would answer in val(G) ids, so it is refused.
  Result<std::unique_ptr<CompressedRep>> DeserializeSpan(
      ByteSpan bytes) const override {
    auto graph = CompressedGraph::Deserialize(bytes);
    if (!graph.ok()) return graph.status();
    if (!graph.value().has_original_ids() && graph.value().num_nodes() > 0) {
      return Status::Corruption(
          "grepair payload carries no node mapping (psi'); recompress it");
    }
    return std::unique_ptr<CompressedRep>(
        new GrepairRep(std::move(graph).ValueOrDie()));
  }
};

// ---------------------------------------------------------------------------
// k2

class K2Rep : public CompressedRep {
 public:
  explicit K2Rep(K2GraphRepresentation rep) : rep_(std::move(rep)) {}

  std::vector<uint8_t> Serialize() const override { return rep_.Serialize(); }
  size_t ByteSize() const override { return rep_.Serialize().size(); }
  Result<Hypergraph> Decompress() const override { return rep_.ToGraph(); }
  uint64_t num_nodes() const override { return rep_.num_nodes(); }

  Result<std::vector<uint64_t>> OutNeighbors(uint64_t node) const override {
    return Union(node, /*out=*/true);
  }
  Result<std::vector<uint64_t>> InNeighbors(uint64_t node) const override {
    return Union(node, /*out=*/false);
  }

 private:
  Result<std::vector<uint64_t>> Union(uint64_t node, bool out) const {
    GREPAIR_RETURN_IF_ERROR(CheckNodeId(node, rep_.num_nodes()));
    std::vector<uint64_t> all;
    auto v = static_cast<uint32_t>(node);
    for (Label l = 0; l < rep_.num_labels(); ++l) {
      auto part = out ? rep_.OutNeighbors(v, l) : rep_.InNeighbors(v, l);
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  }

  K2GraphRepresentation rep_;
};

class K2Codec : public GraphCodec {
 public:
  const char* name() const override { return "k2"; }
  uint32_t capabilities() const override {
    return kSupportsLabels | kNeighborQueries;
  }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    GREPAIR_RETURN_IF_ERROR(options.ExpectKeys({"k"}));
    auto k = GetIntInRange(options, "k", 2, 2, 16);  // K2Tree's arity cap
    if (!k.ok()) return k.status();
    GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
    GREPAIR_RETURN_IF_ERROR(RequireRank2(graph, name()));
    return std::unique_ptr<CompressedRep>(new K2Rep(
        K2GraphRepresentation::Build(graph, alphabet,
                                     static_cast<int>(k.value()))));
  }

  Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override {
    auto rep = K2GraphRepresentation::Deserialize(bytes);
    if (!rep.ok()) return rep.status();
    return std::unique_ptr<CompressedRep>(
        new K2Rep(std::move(rep).ValueOrDie()));
  }
};

// The closed codec table: the two file backends, sorted by name. Every
// other name a file or flag can carry is "sharded:" plus one of them.
struct BuiltinCodec {
  const char* name;
  std::unique_ptr<GraphCodec> (*make)();
};

constexpr BuiltinCodec kBuiltinCodecs[] = {
    {"grepair", [] { return std::unique_ptr<GraphCodec>(new GrepairCodec()); }},
    {"k2", [] { return std::unique_ptr<GraphCodec>(new K2Codec()); }},
};

constexpr char kShardedPrefix[] = "sharded:";

}  // namespace

Result<std::unique_ptr<GraphCodec>> CodecRegistry::Create(
    const std::string& name) {
  const bool sharded = name.rfind(kShardedPrefix, 0) == 0;
  const std::string base =
      sharded ? name.substr(sizeof(kShardedPrefix) - 1) : name;
  for (const BuiltinCodec& codec : kBuiltinCodecs) {
    if (base != codec.name) continue;
    if (!sharded) return codec.make();
    return std::unique_ptr<GraphCodec>(
        new shard::ShardedCodec(base, codec.make()));
  }
  // One level of nesting only: a sharded shard would just pay the
  // container tax twice.
  if (sharded && base.rfind(kShardedPrefix, 0) == 0) {
    return Status::InvalidArgument(
        "a sharded inner codec cannot itself be sharded ('" + name + "')");
  }
  std::string known;
  for (const auto& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("no codec named '" + base + "' (known: " + known +
                          ")");
}

std::vector<std::string> CodecRegistry::Names() {
  std::vector<std::string> names;
  for (const BuiltinCodec& codec : kBuiltinCodecs) names.push_back(codec.name);
  // "sharded:" sorts after both base names, so the list stays sorted.
  for (const BuiltinCodec& codec : kBuiltinCodecs) {
    names.push_back(kShardedPrefix + std::string(codec.name));
  }
  return names;
}

}  // namespace api
}  // namespace grepair
