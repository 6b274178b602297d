// CompressedGraph: a graph-shaped facade over an SL-HR grammar.
//
// The paper's motivating applications include using the compressed
// graph "as in-memory representation" — this class bundles the grammar
// with the query indexes of Section V behind an adjacency-style
// interface, optionally carrying the psi' mapping so callers can keep
// using their original node ids. Nothing is ever decompressed; every
// method delegates to the grammar-side algorithms:
//
//   CompressedGraph g = CompressedGraph::FromGraph(input, alphabet);
//   g.OutNeighbors(v);        // Proposition 4
//   g.Reachable(u, v);        // Theorem 6
//   g.NumConnectedComponents(); // one bottom-up pass
//   g.SerializedSize();       // Section III-C2 format size

#ifndef GREPAIR_QUERY_COMPRESSED_GRAPH_H_
#define GREPAIR_QUERY_COMPRESSED_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/grepair/compressor.h"
#include "src/query/neighborhood.h"
#include "src/query/reachability.h"
#include "src/util/byte_io.h"

namespace grepair {

/// \brief Queryable compressed graph. Movable, not copyable (owns the
/// lazily built query indexes). The neighborhood and reachability
/// indexes are built on the first query that needs them (thread-safe,
/// exactly once), so compress/serialize/decompress paths never pay for
/// them.
class CompressedGraph {
 public:
  /// \brief Compresses `graph` and wraps the result. When
  /// `keep_original_ids` is set (default), all query entry points accept
  /// and return the input graph's node ids; otherwise they use val(G)
  /// numbering.
  static Result<CompressedGraph> FromGraph(const Hypergraph& graph,
                                           const Alphabet& alphabet,
                                           CompressOptions options = {},
                                           bool keep_original_ids = true);

  /// \brief Self-contained serialization: the paper's binary grammar
  /// format, framed together with the psi' mapping when one is carried
  /// (the paper keeps the mapping out of band; SerializedSize() still
  /// reports the grammar alone). Inverse of Deserialize.
  std::vector<uint8_t> Serialize() const;

  static Result<CompressedGraph> Deserialize(
      const std::vector<uint8_t>& bytes);

  /// \brief Zero-copy overload: parses straight out of a borrowed view
  /// (e.g. a shard payload inside an mmap'd container) without the
  /// grammar/mapping frame copies of the vector overload. The view is
  /// only read during the call.
  static Result<CompressedGraph> Deserialize(ByteSpan bytes);

  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }

  /// \brief Targets of edges leaving `node` (any label), sorted.
  std::vector<uint64_t> OutNeighbors(uint64_t node) const;

  /// \brief Sources of edges entering `node`, sorted.
  std::vector<uint64_t> InNeighbors(uint64_t node) const;

  /// \brief Directed reachability (Theorem 6).
  bool Reachable(uint64_t from, uint64_t to) const;

  /// \brief Connected components of the whole graph, one grammar pass.
  uint64_t NumConnectedComponents() const;

  /// \brief Size of the grammar in the paper's |.| metric.
  uint64_t GrammarSize() const { return grammar_->TotalSize(); }

  /// \brief Bytes of the grammar's binary serialization (encodes it on
  /// each call).
  size_t SerializedSize() const;

  /// \brief Materializes the graph (original ids when available).
  Result<Hypergraph> Decompress() const;

  /// \brief Calls sink(from, to) for each rank-2 edge of Decompress()'s
  /// graph, in the same ids and order, without materializing it.
  Status ForEachRank2Edge(
      const std::function<void(NodeId from, NodeId to)>& sink) const;

  const SlhrGrammar& grammar() const { return *grammar_; }
  const CompressStats& stats() const { return stats_; }

  /// \brief Memo-table counters of the query indexes built so far (they
  /// feed the api-level QueryStats surface). Reading them never builds
  /// an index: an index no query has needed yet counts zero.
  uint64_t memo_entries() const;
  uint64_t memo_hits() const;

  /// \brief True when queries and Decompress use original-graph ids.
  bool has_original_ids() const { return !to_original_.empty(); }

  /// \brief psi' as the flat origin array: origins()[val(G) id] is the
  /// original id, a permutation; empty without original ids.
  const std::vector<NodeId>& origins() const { return to_original_; }

 private:
  // One query index, built on first use. Heap-held (with its flag) by
  // the graph so that CompressedGraph stays movable.
  template <typename Index>
  struct LazyIndex {
    std::once_flag once;
    std::atomic<const Index*> built{nullptr};
    std::unique_ptr<Index> index;

    const Index& Get(const SlhrGrammar& grammar) {
      std::call_once(once, [&] {
        index = std::make_unique<Index>(grammar);
        built.store(index.get(), std::memory_order_release);
      });
      return *index;
    }
    // The index if some query built it, else null; never builds.
    const Index* IfBuilt() const {
      return built.load(std::memory_order_acquire);
    }
  };

  CompressedGraph() = default;
  // Wraps a grammar that already passed Validate(), whose val(G) has
  // `size` (within what ids can name), with `origins` as psi' (a
  // permutation of val(G)'s ids, or empty for val(G) ids).
  static CompressedGraph FromValidGrammar(SlhrGrammar grammar, ValSize size,
                                          std::vector<NodeId> origins);

  const NeighborhoodIndex& neighborhood() const {
    return neighborhood_->Get(*grammar_);
  }
  const ReachabilityIndex& reachability() const {
    return reachability_->Get(*grammar_);
  }

  uint64_t ToVal(uint64_t node) const {
    return to_val_.empty() ? node : to_val_[node];
  }
  uint64_t ToOriginal(uint64_t node) const {
    return to_original_.empty() ? node : to_original_[node];
  }

  // Heap-allocated so the query indexes' internal pointers stay valid
  // when the CompressedGraph itself is moved.
  std::unique_ptr<SlhrGrammar> grammar_;
  CompressStats stats_;
  uint64_t num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  // psi': val id -> original id, a permutation; empty when ids are
  // val(G) numbering.
  std::vector<NodeId> to_original_;
  std::vector<uint64_t> to_val_;  // original id -> val id
  std::unique_ptr<LazyIndex<NeighborhoodIndex>> neighborhood_;
  std::unique_ptr<LazyIndex<ReachabilityIndex>> reachability_;
};

}  // namespace grepair

#endif  // GREPAIR_QUERY_COMPRESSED_GRAPH_H_
