// GraphCodec: the one polymorphic compress/query/serialize interface
// the file backends (gRePair and the k^2-tree) sit behind.
//
// A codec takes a hypergraph, produces a compressed representation
// with a byte size, and answers neighborhood (and, for some,
// reachability) queries without decompression. This header abstracts
// exactly that contract so the CLI, the file openers, benches and
// examples iterate one registry instead of hand-rolling per-codec
// glue. The paper's size-only baselines (LM, HN, adjacency-list
// RePair) are not codecs; bench/bench_util.h runs them directly:
//
//   auto codec = CodecRegistry::Create("k2").ValueOrDie();
//   auto rep = codec->Compress(graph, alphabet, options).ValueOrDie();
//   rep->Serialize();               // round-trippable bytes
//   rep->ByteSize();                // the bench tables' size metric
//   rep->OutNeighbors(v);           // capability-gated, may be
//                                   //   Unimplemented for this codec
//   rep->Decompress();              // exact graph reconstruction
//
// Capability flags say up front what a codec can do (labels,
// hyperedges, queries); the query entry points additionally return
// Status::Unimplemented when unsupported, so callers may either check
// capabilities() or just handle the status.
//
// Codecs work on bytes in memory. A file on disk is always a GRSHARD2
// container of their payloads, opened by api::OpenCompressedFile
// (src/api/container.h) straight into a shard::ShardedRep.

#ifndef GREPAIR_API_GRAPH_CODEC_H_
#define GREPAIR_API_GRAPH_CODEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {
namespace api {

/// \brief String-keyed codec options ("k=4,prune=false"), parsed and
/// validated per codec. Unknown keys are rejected by the codec, not
/// silently dropped, so typos fail loudly.
class CodecOptions {
 public:
  CodecOptions() = default;

  /// \brief Parses a comma-separated "key=value,..." spec (the CLI's
  /// --options syntax). Empty spec yields empty options.
  static Result<CodecOptions> Parse(const std::string& spec);

  void Set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  bool empty() const { return values_.empty(); }
  const std::map<std::string, std::string>& entries() const {
    return values_;
  }

  /// \brief Integer option or `def` when absent; kInvalidArgument on a
  /// non-numeric value.
  Result<int64_t> GetInt(const std::string& key, int64_t def) const;

  /// \brief Boolean option ("true"/"false"/"1"/"0") or `def`.
  Result<bool> GetBool(const std::string& key, bool def) const;

  /// \brief String option or `def`.
  std::string GetString(const std::string& key,
                        const std::string& def) const;

  /// \brief kInvalidArgument if any present key is not in `allowed`
  /// (each codec calls this with its full key list).
  Status ExpectKeys(const std::vector<std::string>& allowed) const;

 private:
  std::map<std::string, std::string> values_;
};

/// \brief What a codec supports, beyond compress + serialize +
/// decompress (which every codec must provide).
enum CodecCapability : uint32_t {
  kSupportsLabels = 1u << 0,      ///< preserves edge labels
  kSupportsHyperedges = 1u << 1,  ///< accepts edges of rank != 2
  kNeighborQueries = 1u << 2,     ///< Out/InNeighbors without decompression
  kReachabilityQueries = 1u << 3, ///< Reachable without decompression
};

/// \brief Counters exposed by the query subsystem of a CompressedRep.
///
/// All counters are cumulative since construction. Codecs without
/// caches/memoization report zeros; the sharded meta-codec and gRePair
/// fill in what applies to them. Snapshots are cheap and safe to take
/// concurrently with queries.
struct QueryStats {
  uint64_t single_queries = 0;  ///< Out/InNeighbors + Reachable calls
  uint64_t batch_calls = 0;     ///< batch entry-point invocations
  uint64_t batch_items = 0;     ///< nodes/pairs answered through batches
  uint64_t cache_hits = 0;      ///< per-shard neighborhood cache hits
  uint64_t cache_misses = 0;    ///< per-shard neighborhood cache misses
  uint64_t shard_decodes = 0;   ///< shards decoded into the cache
  uint64_t cache_evictions = 0; ///< cached shards evicted by the budget
  uint64_t cache_bytes_used = 0;///< current cache footprint
  uint64_t memo_entries = 0;    ///< grammar memo-table entries built
  uint64_t memo_hits = 0;       ///< queries answered from memo tables
  uint64_t shard_faults = 0;    ///< lazy shards materialized on demand
  uint64_t shards_prefetched = 0; ///< shards faulted by Prefetch
  uint64_t remote_fetches = 0;  ///< shard payloads fetched over the network
  uint64_t remote_bytes = 0;    ///< payload bytes fetched over the network
  // Connection-pool counters (serve::RemoteShardSource).
  uint64_t pool_dials = 0;          ///< TCP connects (incl. redials)
  uint64_t pool_redials = 0;        ///< reconnects after a broken link
  uint64_t pool_peak_in_flight = 0; ///< max concurrent shard fetches
                                    ///< (at most pool_size)
  // Tiered SSD-cache counters (serve::TieredShardSource).
  uint64_t tier_warm_hits = 0;      ///< shards served from the SSD cache
  uint64_t tier_cold_fetches = 0;   ///< shards fetched from the inner
                                    ///< source: planned misses + unplanned
  uint64_t tier_evictions = 0;      ///< unplanned cache files deleted at
                                    ///< open
  uint64_t tier_corrupt_drops = 0;  ///< cache files failing verification
  // Mutable-corpus counters (shard::DeltaOverlay + folding).
  // overlay_edits is the *current* residual edit count (like
  // cache_bytes_used); the others are cumulative.
  uint64_t overlay_edits = 0;   ///< adds + kills resident in the overlay
  uint64_t overlay_merges = 0;  ///< answers merged through the overlay
  uint64_t shard_folds = 0;     ///< shard grammars recompressed by folds
  uint64_t folded_edits = 0;    ///< edits folded into shard grammars
};

/// \brief Every QueryStats counter by field name, in declaration
/// order, so a printer needs no per-counter code (the CLI's `stats:`
/// line). A field added without an entry here fails to compile.
struct QueryStatsField {
  const char* name;
  uint64_t QueryStats::*member;
};
inline constexpr QueryStatsField kQueryStatsFields[] = {
    {"single_queries", &QueryStats::single_queries},
    {"batch_calls", &QueryStats::batch_calls},
    {"batch_items", &QueryStats::batch_items},
    {"cache_hits", &QueryStats::cache_hits},
    {"cache_misses", &QueryStats::cache_misses},
    {"shard_decodes", &QueryStats::shard_decodes},
    {"cache_evictions", &QueryStats::cache_evictions},
    {"cache_bytes_used", &QueryStats::cache_bytes_used},
    {"memo_entries", &QueryStats::memo_entries},
    {"memo_hits", &QueryStats::memo_hits},
    {"shard_faults", &QueryStats::shard_faults},
    {"shards_prefetched", &QueryStats::shards_prefetched},
    {"remote_fetches", &QueryStats::remote_fetches},
    {"remote_bytes", &QueryStats::remote_bytes},
    {"pool_dials", &QueryStats::pool_dials},
    {"pool_redials", &QueryStats::pool_redials},
    {"pool_peak_in_flight", &QueryStats::pool_peak_in_flight},
    {"tier_warm_hits", &QueryStats::tier_warm_hits},
    {"tier_cold_fetches", &QueryStats::tier_cold_fetches},
    {"tier_evictions", &QueryStats::tier_evictions},
    {"tier_corrupt_drops", &QueryStats::tier_corrupt_drops},
    {"overlay_edits", &QueryStats::overlay_edits},
    {"overlay_merges", &QueryStats::overlay_merges},
    {"shard_folds", &QueryStats::shard_folds},
    {"folded_edits", &QueryStats::folded_edits},
};
static_assert(sizeof(kQueryStatsFields) / sizeof(kQueryStatsFields[0]) ==
                  sizeof(QueryStats) / sizeof(uint64_t),
              "every QueryStats field needs a kQueryStatsFields entry");

/// \brief Uniform out-of-range check for query entry points: every
/// query-capable codec rejects ids >= num_nodes with exactly this
/// kInvalidArgument status (codecs without query support stay
/// capability-gated behind Unimplemented instead).
Status CheckNodeId(uint64_t node, uint64_t num_nodes);

/// \brief A compressed graph representation produced by one codec.
///
/// Serialize() must round-trip through GraphCodec::Deserialize back to
/// an equivalent representation; Decompress() must reproduce the input
/// graph's node count and edge set (labels preserved only when the
/// codec has kSupportsLabels). ByteSize() is the size metric the bench
/// tables report; it may be smaller than Serialize().size() when a
/// codec excludes bookkeeping the paper's metric excludes (e.g. gRePair
/// excludes the optional psi' node mapping, as the paper does).
///
/// Query entry points are safe to call concurrently from multiple
/// threads on a shared rep (internal caches are synchronized), and any
/// node id >= num_nodes() yields kInvalidArgument on query-capable
/// codecs (see CheckNodeId).
class CompressedRep {
 public:
  virtual ~CompressedRep() = default;

  virtual std::vector<uint8_t> Serialize() const = 0;
  virtual size_t ByteSize() const = 0;
  virtual Result<Hypergraph> Decompress() const = 0;
  virtual uint64_t num_nodes() const = 0;

  /// \brief Receives one rank-2 edge from -> to of the decompressed graph.
  using Rank2EdgeSink = std::function<void(NodeId from, NodeId to)>;

  /// \brief Calls `sink` for every rank-2 edge of Decompress()'s graph,
  /// in Decompress()'s node ids and edge order; hyperedges are skipped.
  /// Default: Decompress() and walk its edges (Corruption when its node
  /// count disagrees with num_nodes()). Codecs that can produce edges
  /// without building a Hypergraph override it.
  virtual Status ForEachRank2Edge(const Rank2EdgeSink& sink) const;

  /// \brief Targets of edges leaving `node` (any label), sorted.
  /// Default: Unimplemented (codec lacks kNeighborQueries).
  virtual Result<std::vector<uint64_t>> OutNeighbors(uint64_t node) const;

  /// \brief Sources of edges entering `node`, sorted.
  virtual Result<std::vector<uint64_t>> InNeighbors(uint64_t node) const;

  /// \brief Directed reachability. Default: Unimplemented.
  virtual Result<bool> Reachable(uint64_t from, uint64_t to) const;

  /// \brief Out-neighbors of every node in `nodes`, result i for node
  /// i. Whole-batch failure on the first invalid id (so callers never
  /// see partial answers). Default: a loop over OutNeighbors;
  /// overridden where batching pays (the sharded codec amortizes
  /// shard decoding and fans out over its thread pool).
  virtual Result<std::vector<std::vector<uint64_t>>> OutNeighborsBatch(
      const std::vector<uint64_t>& nodes) const;

  /// \brief Reachability verdict per (from, to) pair, result i for
  /// pair i (1 = reachable). Same whole-batch failure contract as
  /// OutNeighborsBatch. Default: a loop over Reachable.
  virtual Result<std::vector<uint8_t>> ReachableBatch(
      const std::vector<std::pair<uint64_t, uint64_t>>& pairs) const;

  /// \brief Snapshot of this rep's query counters (zeros when the
  /// codec tracks nothing).
  virtual QueryStats query_stats() const { return QueryStats(); }
};

/// \brief A graph compression algorithm. Stateless; Compress may be
/// called concurrently from multiple threads.
class GraphCodec {
 public:
  virtual ~GraphCodec() = default;

  /// \brief Registry name ("grepair", "k2", ...).
  virtual const char* name() const = 0;

  /// \brief OR of CodecCapability flags.
  virtual uint32_t capabilities() const = 0;

  /// \brief Compresses `graph` (over `alphabet`). kInvalidArgument when
  /// the graph needs a capability this codec lacks (e.g. hyperedges
  /// into the k^2-tree) or when `options` has unknown/bad keys.
  virtual Result<std::unique_ptr<CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const CodecOptions& options = CodecOptions()) const = 0;

  /// \brief Reconstructs a representation from Serialize() output.
  virtual Result<std::unique_ptr<CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const = 0;

  /// \brief Zero-copy variant of Deserialize: parses a representation
  /// from a borrowed byte view. The default copies into an owned
  /// buffer and delegates to Deserialize; codecs with span-native
  /// parsers (grepair's grammar coder, the sharded container) override
  /// to read in place. `bytes` only needs to stay alive for the call —
  /// the returned rep owns (or re-derives) everything it keeps.
  virtual Result<std::unique_ptr<CompressedRep>> DeserializeSpan(
      ByteSpan bytes) const;
};

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_GRAPH_CODEC_H_
