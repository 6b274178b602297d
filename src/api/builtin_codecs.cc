// Built-in GraphCodec adapters: gRePair and every baseline the paper
// compares against, each wrapped behind the polymorphic API so the
// CLI, benches and tests can treat them uniformly.
//
//   grepair     SL-HR grammar compression with neighborhood and
//               reachability queries (the paper's contribution)
//   k2          per-label k^2-trees (Brisaboa, Ladra & Navarro)
//   hn          dense-substructure virtual nodes + k^2 (Hernandez &
//               Navarro); unlabeled graphs only
//   lm          list merging + Deflate (Grabowski & Bieniecki);
//               unlabeled graphs only
//   repair-adj  adjacency-list string RePair (Claude & Navarro);
//               unlabeled graphs only
//   deflate     Elias-delta edge stream + zlib, the "just gzip it"
//               strawman (supports labels and hyperedges)
//
// The unlabeled baselines reject multi-label alphabets up front
// instead of silently dropping labels — the paper likewise only runs
// them on unlabeled graphs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/api/codec_registry.h"
#include "src/api/graph_codec.h"
#include "src/baselines/deflate.h"
#include "src/baselines/hn.h"
#include "src/baselines/k2_compressor.h"
#include "src/baselines/lm.h"
#include "src/baselines/string_repair.h"
#include "src/graph/node_order.h"
#include "src/query/compressed_graph.h"
#include "src/shard/sharded_codec.h"
#include "src/util/byte_io.h"
#include "src/util/elias.h"

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

Status RequireUnlabeled(const Alphabet& alphabet, const char* codec) {
  if (alphabet.size() > 1) {
    return Status::InvalidArgument(
        std::string(codec) +
        " is an unlabeled baseline (alphabet must have at most 1 label)");
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

  std::vector<uint8_t> Serialize() const override {
    if (!serialized_) serialized_ = graph_.Serialize();
    return *serialized_;
  }
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
  mutable std::optional<std::vector<uint8_t>> serialized_;
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
        {"max-rank", "order", "seed", "virtual", "prune", "extra-passes",
         "original-ids"}));
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
    auto passes = GetIntInRange(options, "extra-passes",
                                opts.extra_recount_passes, 0, 1000000);
    if (!passes.ok()) return passes.status();
    opts.extra_recount_passes = static_cast<int>(passes.value());
    auto original_ids = options.GetBool("original-ids", true);
    if (!original_ids.ok()) return original_ids.status();

    auto compressed = CompressedGraph::FromGraph(graph, alphabet, opts,
                                                 original_ids.value());
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
  Result<std::unique_ptr<CompressedRep>> DeserializeSpan(
      ByteSpan bytes) const override {
    auto graph = CompressedGraph::Deserialize(bytes);
    if (!graph.ok()) return graph.status();
    return std::unique_ptr<CompressedRep>(
        new GrepairRep(std::move(graph).ValueOrDie()));
  }
};

// ---------------------------------------------------------------------------
// k2

class K2Rep : public CompressedRep {
 public:
  explicit K2Rep(K2GraphRepresentation rep) : rep_(std::move(rep)) {}

  std::vector<uint8_t> Serialize() const override {
    if (!serialized_) serialized_ = rep_.Serialize();
    return *serialized_;
  }
  size_t ByteSize() const override { return Serialize().size(); }
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
  mutable std::optional<std::vector<uint8_t>> serialized_;
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

// ---------------------------------------------------------------------------
// hn

class HnRep : public CompressedRep {
 public:
  explicit HnRep(HnCompressed c) : compressed_(std::move(c)) {}

  std::vector<uint8_t> Serialize() const override {
    return HnSerialize(compressed_);
  }
  size_t ByteSize() const override { return compressed_.SizeBytes(); }
  Result<Hypergraph> Decompress() const override {
    return HnDecompress(compressed_);
  }
  uint64_t num_nodes() const override { return compressed_.original_nodes; }

 private:
  HnCompressed compressed_;
};

class HnCodec : public GraphCodec {
 public:
  const char* name() const override { return "hn"; }
  uint32_t capabilities() const override { return 0; }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    GREPAIR_RETURN_IF_ERROR(options.ExpectKeys(
        {"iterations", "min-rows", "min-saving", "k", "seed"}));
    HnOptions opts;
    auto iterations =
        GetIntInRange(options, "iterations", opts.iterations, 1, 1000000);
    if (!iterations.ok()) return iterations.status();
    opts.iterations = static_cast<int>(iterations.value());
    auto min_rows =
        GetIntInRange(options, "min-rows", opts.min_rows, 1, 0xFFFFFFFFll);
    if (!min_rows.ok()) return min_rows.status();
    opts.min_rows = static_cast<uint32_t>(min_rows.value());
    auto min_saving = options.GetInt("min-saving", opts.min_saving);
    if (!min_saving.ok()) return min_saving.status();
    opts.min_saving = min_saving.value();
    auto k = GetIntInRange(options, "k", opts.k, 2, 16);
    if (!k.ok()) return k.status();
    opts.k = static_cast<int>(k.value());
    auto seed = GetIntInRange(options, "seed",
                              static_cast<int64_t>(opts.seed), 0,
                              INT64_MAX);
    if (!seed.ok()) return seed.status();
    opts.seed = static_cast<uint64_t>(seed.value());

    GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
    GREPAIR_RETURN_IF_ERROR(RequireUnlabeled(alphabet, name()));
    GREPAIR_RETURN_IF_ERROR(RequireRank2(graph, name()));
    return std::unique_ptr<CompressedRep>(
        new HnRep(HnCompress(graph, opts)));
  }

  Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override {
    auto c = HnDeserialize(bytes);
    if (!c.ok()) return c.status();
    return std::unique_ptr<CompressedRep>(
        new HnRep(std::move(c).ValueOrDie()));
  }
};

// ---------------------------------------------------------------------------
// lm

class LmRep : public CompressedRep {
 public:
  explicit LmRep(LmCompressed c) : compressed_(std::move(c)) {}

  std::vector<uint8_t> Serialize() const override {
    return LmSerialize(compressed_);
  }
  size_t ByteSize() const override { return compressed_.SizeBytes(); }
  Result<Hypergraph> Decompress() const override {
    return LmDecompress(compressed_);
  }
  uint64_t num_nodes() const override { return compressed_.num_nodes; }

 private:
  LmCompressed compressed_;
};

class LmCodec : public GraphCodec {
 public:
  const char* name() const override { return "lm"; }
  uint32_t capabilities() const override { return 0; }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    GREPAIR_RETURN_IF_ERROR(options.ExpectKeys({"chunk-size"}));
    auto chunk = GetIntInRange(options, "chunk-size", 64, 1, 64);
    if (!chunk.ok()) return chunk.status();
    GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
    GREPAIR_RETURN_IF_ERROR(RequireUnlabeled(alphabet, name()));
    GREPAIR_RETURN_IF_ERROR(RequireRank2(graph, name()));
    return std::unique_ptr<CompressedRep>(new LmRep(
        LmCompress(graph, static_cast<uint32_t>(chunk.value()))));
  }

  Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override {
    auto c = LmDeserialize(bytes);
    if (!c.ok()) return c.status();
    return std::unique_ptr<CompressedRep>(
        new LmRep(std::move(c).ValueOrDie()));
  }
};

// ---------------------------------------------------------------------------
// repair-adj

class AdjRePairRep : public CompressedRep {
 public:
  explicit AdjRePairRep(AdjRePairCompressed c) : compressed_(std::move(c)) {}

  std::vector<uint8_t> Serialize() const override {
    if (!serialized_) serialized_ = AdjRePairSerialize(compressed_);
    return *serialized_;
  }
  size_t ByteSize() const override { return Serialize().size(); }
  Result<Hypergraph> Decompress() const override {
    return AdjListRePairDecompress(compressed_);
  }
  uint64_t num_nodes() const override { return compressed_.num_nodes; }

 private:
  AdjRePairCompressed compressed_;
  mutable std::optional<std::vector<uint8_t>> serialized_;
};

class AdjRePairCodec : public GraphCodec {
 public:
  const char* name() const override { return "repair-adj"; }
  uint32_t capabilities() const override { return 0; }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    GREPAIR_RETURN_IF_ERROR(options.ExpectKeys({}));
    GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
    GREPAIR_RETURN_IF_ERROR(RequireUnlabeled(alphabet, name()));
    GREPAIR_RETURN_IF_ERROR(RequireRank2(graph, name()));
    return std::unique_ptr<CompressedRep>(
        new AdjRePairRep(AdjListRePairCompress(graph)));
  }

  Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override {
    auto c = AdjRePairDeserialize(bytes);
    if (!c.ok()) return c.status();
    return std::unique_ptr<CompressedRep>(
        new AdjRePairRep(std::move(c).ValueOrDie()));
  }
};

// ---------------------------------------------------------------------------
// deflate

// Raw Elias-delta edge stream passed through zlib: num_nodes, label
// ranks, then per edge its label and attachments. Exact and fully
// general (labels, hyperedges) — the baseline every smarter codec has
// to beat.
class DeflateRep : public CompressedRep {
 public:
  DeflateRep(uint32_t num_nodes, size_t raw_size,
             std::vector<uint8_t> deflated)
      : num_nodes_(num_nodes),
        raw_size_(raw_size),
        deflated_(std::move(deflated)) {}

  std::vector<uint8_t> Serialize() const override {
    std::vector<uint8_t> out;
    PutU32LE(num_nodes_, &out);
    PutU64LE(raw_size_, &out);
    out.insert(out.end(), deflated_.begin(), deflated_.end());
    return out;
  }
  size_t ByteSize() const override { return deflated_.size() + 12; }
  uint64_t num_nodes() const override { return num_nodes_; }

  Result<Hypergraph> Decompress() const override {
    auto raw = InflateBytes(deflated_, raw_size_);
    if (!raw.ok()) return raw.status();
    BitReader r(raw.value());
    uint64_t num_nodes = 0, num_labels = 0, num_edges = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_nodes));
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_labels));
    if (num_nodes == 0 || num_labels == 0 ||
        num_nodes - 1 > 0xFFFFFFFFull) {
      return Status::Corruption("bad deflate-codec header");
    }
    std::vector<uint64_t> ranks;
    for (uint64_t l = 0; l + 1 < num_labels; ++l) {
      uint64_t rank = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &rank));
      if (rank == 0 || rank > 255) {  // Alphabet ranks are uint8
        return Status::Corruption("label rank out of range");
      }
      ranks.push_back(rank);
    }
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_edges));
    if (num_edges == 0) return Status::Corruption("bad edge count");
    Hypergraph g(static_cast<uint32_t>(num_nodes - 1));
    for (uint64_t e = 0; e + 1 < num_edges; ++e) {
      uint64_t label = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &label));
      if (label == 0 || label >= num_labels) {
        return Status::Corruption("edge label out of range");
      }
      Attachments att;
      for (uint64_t i = 0; i < ranks[label - 1]; ++i) {
        uint64_t v = 0;
        GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &v));
        if (v == 0 || v > num_nodes - 1) {
          return Status::Corruption("attachment out of range");
        }
        att.push_back(static_cast<NodeId>(v - 1));
      }
      g.AddEdge(static_cast<Label>(label - 1), std::move(att));
    }
    return g;
  }

 private:
  uint32_t num_nodes_ = 0;
  size_t raw_size_ = 0;
  std::vector<uint8_t> deflated_;
};

class DeflateCodec : public GraphCodec {
 public:
  const char* name() const override { return "deflate"; }
  uint32_t capabilities() const override {
    return kSupportsLabels | kSupportsHyperedges;
  }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    GREPAIR_RETURN_IF_ERROR(options.ExpectKeys({}));
    GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
    BitWriter w;
    EliasDeltaEncode(graph.num_nodes() + 1, &w);
    EliasDeltaEncode(alphabet.size() + 1, &w);
    for (Label l = 0; l < alphabet.size(); ++l) {
      EliasDeltaEncode(static_cast<uint64_t>(alphabet.rank(l)), &w);
    }
    EliasDeltaEncode(graph.num_edges() + 1, &w);
    for (const auto& e : graph.edges()) {
      EliasDeltaEncode(e.label + 1, &w);
      for (NodeId v : e.att) EliasDeltaEncode(v + 1, &w);
    }
    auto raw = w.TakeBytes();
    auto deflated = DeflateBytes(raw);
    return std::unique_ptr<CompressedRep>(
        new DeflateRep(graph.num_nodes(), raw.size(), std::move(deflated)));
  }

  Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override {
    size_t pos = 0;
    uint32_t num_nodes = 0;
    uint64_t raw_size = 0;
    GREPAIR_RETURN_IF_ERROR(GetU32LE(bytes, &pos, &num_nodes));
    GREPAIR_RETURN_IF_ERROR(GetU64LE(bytes, &pos, &raw_size));
    return std::unique_ptr<CompressedRep>(new DeflateRep(
        num_nodes, raw_size,
        std::vector<uint8_t>(bytes.begin() + pos, bytes.end())));
  }
};

}  // namespace

namespace internal {

void RegisterBuiltinCodecs() {
  CodecRegistry::Register("grepair", [] {
    return std::unique_ptr<GraphCodec>(new GrepairCodec());
  });
  CodecRegistry::Register("k2", [] {
    return std::unique_ptr<GraphCodec>(new K2Codec());
  });
  CodecRegistry::Register("hn", [] {
    return std::unique_ptr<GraphCodec>(new HnCodec());
  });
  CodecRegistry::Register("lm", [] {
    return std::unique_ptr<GraphCodec>(new LmCodec());
  });
  CodecRegistry::Register("repair-adj", [] {
    return std::unique_ptr<GraphCodec>(new AdjRePairCodec());
  });
  CodecRegistry::Register("deflate", [] {
    return std::unique_ptr<GraphCodec>(new DeflateCodec());
  });
  // Sharded meta-variants of every builtin, so Names() (and with it
  // `bench --backend all` and the parameterized round-trip tests)
  // covers them. Factories are function pointers, hence one literal
  // per name instead of a loop.
  CodecRegistry::Register("sharded:grepair", [] {
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec("grepair"));
  });
  CodecRegistry::Register("sharded:k2", [] {
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec("k2"));
  });
  CodecRegistry::Register("sharded:hn", [] {
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec("hn"));
  });
  CodecRegistry::Register("sharded:lm", [] {
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec("lm"));
  });
  CodecRegistry::Register("sharded:repair-adj", [] {
    return std::unique_ptr<GraphCodec>(
        new shard::ShardedCodec("repair-adj"));
  });
  CodecRegistry::Register("sharded:deflate", [] {
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec("deflate"));
  });
}

}  // namespace internal
}  // namespace api
}  // namespace grepair
