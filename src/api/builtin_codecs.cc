// The two codec names behind CodecRegistry::Create: "grepair", one
// SL-HR grammar with neighborhood and reachability queries (the
// paper's contribution), and "sharded:grepair", the GRSHARD2 container
// every file holds (shard::ShardedCodec).
//
// The paper's size-only baselines (k^2-trees, HN, LM, adjacency-list
// RePair) are not codecs: no file or socket reaches them.
// bench/bench_util.h runs their encoders directly for the size tables.

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/api/codec_registry.h"
#include "src/api/graph_codec.h"
#include "src/query/compressed_graph.h"
#include "src/shard/parallel_compressor.h"
#include "src/shard/sharded_codec.h"
#include "src/shard/shard_store.h"
#include "src/util/byte_io.h"

namespace grepair {
namespace api {
namespace {

class GrepairRep : public CompressedRep {
 public:
  explicit GrepairRep(CompressedGraph g) : graph_(std::move(g)) {}

  std::vector<uint8_t> Serialize() const override { return graph_.Serialize(); }
  size_t ByteSize() const override { return graph_.SerializedSize(); }
  Result<Hypergraph> Decompress() const override {
    return graph_.Decompress();
  }
  uint64_t num_nodes() const override { return graph_.num_nodes(); }

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

 private:
  CompressedGraph graph_;
  mutable std::atomic<uint64_t> singles_{0};
  mutable std::atomic<uint64_t> batch_calls_{0};
  mutable std::atomic<uint64_t> batch_items_{0};
};

class GrepairCodec : public GraphCodec {
 public:
  const char* name() const override { return "grepair"; }

  Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options) const override {
    auto opts = shard::ParseCompressOptions(options);
    if (!opts.ok()) return opts.status();
    auto compressed = CompressedGraph::FromGraph(graph, alphabet, opts.value());
    if (!compressed.ok()) return compressed.status();
    return std::unique_ptr<CompressedRep>(
        new GrepairRep(std::move(compressed).ValueOrDie()));
  }

  // Span-native: the grammar coder decodes straight out of the view.
  Result<std::unique_ptr<CompressedRep>> DeserializeSpan(
      ByteSpan bytes) const override {
    auto graph = shard::DecodeShardPayload(bytes);
    if (!graph.ok()) return graph.status();
    return std::unique_ptr<CompressedRep>(
        new GrepairRep(std::move(graph).ValueOrDie()));
  }
};

}  // namespace

Result<std::unique_ptr<GraphCodec>> CodecRegistry::Create(
    const std::string& name) {
  if (name == "grepair") return std::unique_ptr<GraphCodec>(new GrepairCodec());
  if (name == "sharded:grepair") {
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec());
  }
  return Status::NotFound("no codec named '" + name + "'");
}

}  // namespace api
}  // namespace grepair
