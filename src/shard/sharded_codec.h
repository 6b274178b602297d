// The "sharded:grepair" codec and its rep, the query router.
//
// ShardedCodec::Compress partitions a graph into K data shards plus a
// cut shard, compresses each into a grepair grammar and opens the
// resulting GRSHARD2 bytes (container.h), so a fresh rep is exactly the
// rep its own bytes open to. Options: shards=K (default 4), threads=T
// (compression pool, default min(K, hw)), and the grepair options
// (ParseCompressOptions), all checked before the graph is partitioned.
//
// ShardedRep answers queries by routing: one lookup in the store's
// owner index gives every shard that holds a global node, with its
// local id there (vertex-cut shards share nodes), one
// ShardStore::Answer per shard gives that shard's part in global ids
// (from its decoded neighborhoods or grammar-direct, as the store
// decides), the parts are merged, and the corpus overlay is merged
// last (MutableCorpus, whose header states the reader protocol).
// Reachability is a BFS over routed neighbor queries, so it crosses
// shards. Batches group nodes by shard and fan out over the rep's
// thread pool; their answers are identical for every thread count.

#ifndef GREPAIR_SHARD_SHARDED_CODEC_H_
#define GREPAIR_SHARD_SHARDED_CODEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/graph_codec.h"
#include "src/graph/hypergraph.h"
#include "src/shard/container.h"
#include "src/shard/delta_overlay.h"
#include "src/shard/mutable_corpus.h"
#include "src/shard/shard_store.h"
#include "src/util/byte_io.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"

namespace grepair {
namespace shard {

/// \brief Multi-shard compressed representation. Implements the full
/// CompressedRep query surface by routing to the owning shards; every
/// shard is faulted in on first touch from the store's ShardSource,
/// transparently to every query path.
class ShardedRep : public api::CompressedRep {
 public:
  using Entry = ShardEntry;

  ~ShardedRep() override;

  /// \brief Same bytes as SerializeV2(): GRSHARD2 is the only layout.
  std::vector<uint8_t> Serialize() const override;

  /// \brief The GRSHARD2 container of the current shards (folded
  /// payloads included). Deterministic; never faults a shard (see
  /// ShardStore::EncodeShards); empty, which never parses, when a
  /// fetch fails.
  std::vector<uint8_t> SerializeV2() const;

  size_t ByteSize() const override;
  Result<Hypergraph> Decompress() const override;

  /// \brief Node count including nodes created by overlay adds.
  uint64_t num_nodes() const override { return corpus_.num_nodes(); }

  Result<std::vector<uint64_t>> OutNeighbors(uint64_t node) const override;
  Result<std::vector<uint64_t>> InNeighbors(uint64_t node) const override;
  Result<bool> Reachable(uint64_t from, uint64_t to) const override;

  /// \brief Batch neighbor queries: nodes grouped by owning shard, one
  /// store answer per shard (which decodes a shard the batch puts 2 or
  /// more nodes on), fanned out over the thread pool. Result order follows the input
  /// order and is identical for every thread count.
  Result<std::vector<std::vector<uint64_t>>> OutNeighborsBatch(
      const std::vector<uint64_t>& nodes) const override;

  /// \brief Batch reachability: pairs fanned out over the thread
  /// pool (each BFS shares the shard cache). Deterministic result
  /// order; on failures the lowest pair index's status wins.
  Result<std::vector<uint8_t>> ReachableBatch(
      const std::vector<std::pair<uint64_t, uint64_t>>& pairs)
      const override;

  /// \brief The router's counters plus what the store (and its
  /// source) and the corpus add.
  api::QueryStats query_stats() const override;

  /// \brief Parses a GRSHARD2 container: copies the bytes into an
  /// owned backing store (the rvalue overload adopts the buffer) and
  /// materializes shards lazily. Clean kCorruption on truncated,
  /// inconsistent or other-version input.
  static Result<std::unique_ptr<ShardedRep>> Deserialize(
      const std::vector<uint8_t>& bytes);
  static Result<std::unique_ptr<ShardedRep>> Deserialize(ByteSpan bytes);
  static Result<std::unique_ptr<ShardedRep>> Deserialize(
      std::vector<uint8_t>&& bytes);

  /// \brief Zero-copy open: `bytes` must be a view into `file`'s
  /// mapping (e.g. the payload of a backend-tagged frame). The
  /// container is opened in O(directory) time — shard payloads stay
  /// borrowed windows into the map until first touch — and `file` is
  /// retained for the rep's lifetime.
  static Result<std::unique_ptr<ShardedRep>> Open(
      std::shared_ptr<MmapFile> file, ByteSpan bytes);

  /// \brief Opens a lazy rep over an arbitrary payload source: shard
  /// metadata comes from `dir` (a parsed GRSHARD2 directory — local
  /// file or fetched over the network), and each shard's bytes are
  /// pulled from `source` on first touch, checksum-verified against
  /// the directory like any other fault.
  static Result<std::unique_ptr<ShardedRep>> OpenFromSource(
      std::shared_ptr<ShardSource> source, ParsedDirectory dir);

  /// \brief Thread-pool size for Decompress, batch queries, Prefetch
  /// and folds (default 1, clamped to [1, 256]). Safe to call while
  /// queries run.
  void set_threads(int threads);

  /// \brief The directory's inner codec name, always kInnerCodecName.
  std::string inner_name() const { return kInnerCodecName; }
  size_t num_shards() const { return store_.num_shards(); }
  const Entry& entry(size_t i) const { return store_.entry(i); }

  /// \brief The per-shard slots: faults, verified payloads, answers,
  /// prefetch.
  const ShardStore& store() const { return store_; }

  // Store knobs (see ShardStore); Prefetch faults on the thread pool.
  void Prefetch(const std::vector<size_t>& s) const {
    store_.Prefetch(s, threads());
  }
  void PrefetchAll() const { store_.PrefetchAll(threads()); }
  void set_query_cache_bytes(size_t b) { store_.set_query_cache_bytes(b); }

  // Mutable-corpus surface (see MutableCorpus); folds run on the rep's
  // thread pool. FoldOverlay recompresses a shard once its pending
  // edits reach its payload size, then the heaviest others while the
  // residual exceeds the overlay budget (set_overlay_budget_bytes: 0
  // drains every eligible edit, ~0ull never folds from ApplyEdits).
  Status ApplyEdits(const std::vector<EdgeEdit>& edits) {
    return corpus_.ApplyEdits(edits, threads());
  }
  Status FoldOverlay() { return corpus_.FoldOverlay(threads()); }
  Status ApplyDelta(const DeltaContainer& d) { return corpus_.ApplyDelta(d); }
  Result<DeltaContainer> BuildDelta(uint64_t base_hash,
                                    uint64_t base_size) const {
    return corpus_.BuildDelta(base_hash, base_size);
  }
  void set_overlay_budget_bytes(uint64_t bytes) {
    corpus_.set_overlay_budget_bytes(bytes);
  }
  uint64_t directory_checksum() const { return corpus_.directory_checksum(); }

 private:
  ShardedRep(std::shared_ptr<ShardSource> source, ParsedDirectory dir,
             const std::vector<ByteSpan>& views);

  /// Every rep is built here: validates `dir`, including its inner
  /// codec name. `views` are the locally resident payloads (empty =
  /// source-only).
  static Result<std::unique_ptr<ShardedRep>> Build(
      std::shared_ptr<ShardSource> source, ParsedDirectory dir,
      const std::vector<ByteSpan>& views);

  static Result<std::unique_ptr<ShardedRep>> OpenLocal(
      ByteSpan bytes, std::shared_ptr<MmapFile> file,
      std::shared_ptr<std::vector<uint8_t>> owned);

  int threads() const { return threads_.load(std::memory_order_relaxed); }

  Result<std::vector<uint64_t>> RoutedNeighbors(uint64_t node,
                                                bool out) const;
  Result<bool> ReachableImpl(uint64_t from, uint64_t to) const;

  uint64_t num_nodes_ = 0;  // the base container's
  std::atomic<int> threads_{1};
  ShardStore store_;
  MutableCorpus corpus_;  // publishes into store_

  mutable std::atomic<uint64_t> stat_singles_{0};
  mutable std::atomic<uint64_t> stat_batch_calls_{0};
  mutable std::atomic<uint64_t> stat_batch_items_{0};
};

/// \brief The "sharded:grepair" codec.
class ShardedCodec : public api::GraphCodec {
 public:
  const char* name() const override { return "sharded:grepair"; }

  Result<std::unique_ptr<api::CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const api::CodecOptions& options) const override;

  /// \brief Copies `bytes` into the rep's owned backing store.
  Result<std::unique_ptr<api::CompressedRep>> DeserializeSpan(
      ByteSpan bytes) const override;
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_SHARDED_CODEC_H_
