// ShardStore: every per-shard slot of a sharded rep, and each shard's
// answers; nothing about routing or edits.
//
// Per shard it keeps one Slot and one cache entry. The slot's base
// fault turns the shard's payload bytes, fetched from the ShardSource
// and checksum-verified, into the shard's CompressedGraph on first
// touch (under the slot's mutex, lock-free once published). That
// graph is what a fault builds and what stays resident: the rules,
// the start graph's terminal rank-2 edges as one two-way CSR decoded
// straight from the payload's k^2-trees, its few other start edges,
// and psi' both ways; the query indexes its first queries build stay
// with it. The slot's folded replacement is the payload and graph a
// fold or an applied delta installs through Publish; it supersedes
// the base wherever payload bytes or shard graphs are read. The cache
// entry is the shard's decoded neighborhood: its whole out/in
// adjacency in global ids, kept in one LRU cache under a byte budget
// (set_query_cache_bytes, 0 disables it) and evicted whole.
//
// Answer is the one way a query reads a shard, and it makes the
// rent-or-buy decision: it answers from the decoded cache, or buys
// the decode, or looks the nodes up grammar-direct and charges their
// cost to the shard's rent. The rep only routes ids to shards and
// merges. Prefetch faults shards ahead of demand on the caller's
// fan-out. Across shards the store keeps the owner index, which
// routes a global id to the shards holding it. Faulted and folded
// graphs are retained for the store's lifetime, and so is the owner
// index once the first routed lookup builds it (12 B per node-map
// entry plus at most 4 B per entry for its buckets); the byte budget
// governs decoded shards only. Answers never depend on what is
// resident or cached.

#ifndef GREPAIR_SHARD_SHARD_STORE_H_
#define GREPAIR_SHARD_SHARD_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/api/graph_codec.h"
#include "src/query/compressed_graph.h"
#include "src/shard/container.h"
#include "src/util/byte_io.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace grepair {
namespace shard {

/// \brief Default byte budget of the decoded-neighborhood cache.
inline constexpr size_t kDefaultQueryCacheBytes = 64ull << 20;

/// \brief Where a store's payload bytes come from — the seam the local
/// mmap backing store, the remote TCP client
/// (serve::RemoteShardSource) and the SSD tier in front of it
/// (serve::TieredShardSource) implement. A store holds exactly one
/// source for its lifetime; the source owns (or pins) whatever
/// storage its returned spans borrow from.
class ShardSource {
 public:
  virtual ~ShardSource() = default;

  /// \brief Human-readable backend kind ("local-mmap", "local-heap",
  /// "remote") for the CLI and logs.
  virtual const char* kind() const = 0;

  /// \brief Fetches shard `shard`'s payload bytes. Sources that must
  /// materialize a copy (remote) place it in *owned and return a view
  /// of it; sources whose storage outlives the rep (local mmap)
  /// return a borrowed view and leave *owned untouched. Must be safe
  /// to call concurrently for distinct shards (the caller serializes
  /// per-shard). Checksum verification stays with the caller
  /// (ShardStore), so every source gets it for free.
  virtual Result<ByteSpan> FetchShard(size_t shard,
                                      std::vector<uint8_t>* owned) = 0;

  /// \brief Folds this source's own counters (network fetches, pool
  /// dials, cache tiers) into *stats. Local sources are free: the
  /// default is a no-op. Layered sources (TieredShardSource) forward
  /// to their inner source so the whole stack reports through one
  /// call. Must be safe to call concurrently with FetchShard.
  virtual void AddStats(api::QueryStats* stats) const { (void)stats; }
};

/// \brief One shard's node map and directory row.
struct ShardEntry {
  std::vector<NodeId> nodes;  ///< sorted global IDs
  ByteSpan view;       ///< borrowed inner bytes when the source keeps
                       ///< them locally (the source pins the backing
                       ///< store alive); empty for remote sources
  uint64_t length = 0;    ///< directory payload length (0 = edgeless)
  uint64_t checksum = 0;  ///< directory payload checksum, verified at
                          ///< fault

  /// \brief The locally resident payload bytes (empty for
  /// source-only shards, whose bytes are fetched at fault time).
  ByteSpan payload_bytes() const { return view; }
  bool has_payload() const { return length != 0; }

  /// \brief `global`'s local id in this shard, or kInvalidNode when the
  /// shard is edgeless or does not hold it: a binary search of the
  /// map. For callers that already know the shard (a fold); routing a
  /// node to its shards goes through the OwnerIndex, because vertex-cut
  /// maps overlap (every RDF map spans the shared hub ids) and a range
  /// check rejects few of them.
  NodeId LocalId(uint64_t global) const {
    if (!has_payload() || nodes.empty() || global < nodes.front() ||
        global > nodes.back()) {
      return kInvalidNode;
    }
    auto it = std::lower_bound(nodes.begin(), nodes.end(),
                               static_cast<NodeId>(global));
    if (*it != static_cast<NodeId>(global)) return kInvalidNode;
    return static_cast<NodeId>(it - nodes.begin());
  }
};

/// \brief One node-map entry: global id `global` is local id `local`
/// of shard `shard`.
struct ShardOwner {
  NodeId global;
  uint32_t shard;
  NodeId local;
};

/// \brief The routing table of a store: for each global id, the shards
/// with a payload whose node maps hold it, as one contiguous run of
/// ShardOwner in shard order. Immutable once built.
///
/// The entries of every map sit in one array sorted by (global, shard),
/// bucketed by `global >> shift` with the shift chosen so that there
/// are at most (entries + 1) buckets: 12 B per map entry plus 4 B per
/// bucket, whatever the directory's node count claims. Ids above every
/// map, such as ids that overlay adds created, have no owners.
class OwnerIndex {
 public:
  struct Run {
    const ShardOwner* first = nullptr;
    const ShardOwner* last = nullptr;
    const ShardOwner* begin() const { return first; }
    const ShardOwner* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
  };

  /// Indexes the maps of `entries` with a payload; their entry count
  /// must fit 32 bits (ShardedRep::Build checks it).
  explicit OwnerIndex(const std::vector<ShardEntry>& entries);

  /// \brief `global`'s owners in shard order; empty when no map holds
  /// it.
  Run Owners(uint64_t global) const {
    // bucket_start_ holds one offset past the last bucket, or none.
    const uint64_t bucket = global >> shift_;
    if (bucket_start_.empty() || bucket >= bucket_start_.size() - 1) {
      return {};
    }
    const ShardOwner* owners = owners_.get();
    const ShardOwner* hi = owners + bucket_start_[bucket + 1];
    const ShardOwner* lo = std::lower_bound(
        owners + bucket_start_[bucket], hi, global,
        [](const ShardOwner& o, uint64_t id) { return o.global < id; });
    const ShardOwner* end = lo;
    while (end != hi && end->global == global) ++end;
    return {lo, end};
  }

 private:
  unsigned shift_ = 0;
  std::vector<uint32_t> bucket_start_;  // buckets + 1 offsets into owners_
  std::unique_ptr<ShardOwner[]> owners_;  // sorted by (global, shard)
};

/// \brief A shard's decoded adjacency: Out(local) / In(local) are the
/// shard's sorted, deduplicated global-id neighbor contributions for
/// the node at local index. Immutable once built.
///
/// Storage is a CSR layout (offsets + one flat id array per direction)
/// in one buffer sized by a counting pass, so a decode does one
/// allocation instead of one per node per direction. The spans point
/// into the buffer and share its lifetime.
struct ShardNeighborhoods {
  struct Span {
    const uint64_t* data = nullptr;
    size_t size = 0;
    const uint64_t* begin() const { return data; }
    const uint64_t* end() const { return data + size; }
  };

  Span Out(size_t local) const {
    return {out_data + out_off[local],
            static_cast<size_t>(out_off[local + 1] - out_off[local])};
  }
  Span In(size_t local) const {
    return {in_data + in_off[local],
            static_cast<size_t>(in_off[local + 1] - in_off[local])};
  }

  std::unique_ptr<uint64_t[]> words;  // out_off, in_off, out_data, in_data
  const uint64_t* out_off = nullptr;  // n + 1 entries
  const uint64_t* in_off = nullptr;   // n + 1 entries
  const uint64_t* out_data = nullptr;
  const uint64_t* in_data = nullptr;
  size_t bytes = 0;  ///< what the cache budget charges
};

/// \brief Decodes `graph` (a shard whose local node i is global id
/// `nodes[i]`) from its rank-2 edge stream into its neighborhood form;
/// null when its edges do not fit `nodes` or the stream fails.
std::shared_ptr<const ShardNeighborhoods> DecodeNeighborhoods(
    const std::vector<NodeId>& nodes, const CompressedGraph& graph);

/// \brief Decodes one shard payload: a grammar with its psi' node
/// mapping. A shard's answers are read as shard-local ids, which only
/// psi' gives back, so a payload without it is kCorruption
/// ("recompress it"). The one decode behind every fault, delta and
/// bare "grepair" payload.
Result<CompressedGraph> DecodeShardPayload(ByteSpan bytes);

/// \brief One shard's grammar after a fold or delta: the payload, its
/// checksum, and its graph. Immutable once published.
struct FoldedShard {
  std::vector<uint8_t> payload;
  uint64_t checksum = 0;
  std::shared_ptr<const CompressedGraph> graph;
};

/// \brief One shard's answers to one ShardStore::Answer call: at(k) is
/// the k-th requested local id's neighbors, sorted and unique global
/// ids. They point into the decoded cache when the shard is decoded,
/// else into the grammar-direct answers the call computed; either way
/// they live as long as the answer and the `locals` it was asked for.
class ShardAnswer {
 public:
  ShardNeighborhoods::Span at(size_t k) const {
    if (decoded_ != nullptr) {
      return out_ ? decoded_->Out(locals_[k]) : decoded_->In(locals_[k]);
    }
    const size_t begin = k == 0 ? 0 : ends_[k - 1];
    return {ids_.data() + begin, ends_[k] - begin};
  }

 private:
  friend class ShardStore;

  std::shared_ptr<const ShardNeighborhoods> decoded_;
  const NodeId* locals_ = nullptr;
  bool out_ = true;
  std::vector<uint64_t> ids_;  // grammar-direct lists, back to back
  std::vector<size_t> ends_;   // one past each list in ids_
};

class ShardStore {
 public:
  /// `source` serves the shards' payload bytes.
  ShardStore(std::shared_ptr<ShardSource> source,
             std::vector<ShardEntry> entries);

  size_t num_shards() const { return entries_.size(); }
  const ShardEntry& entry(size_t i) const { return entries_[i]; }
  const char* source_kind() const { return source_->kind(); }

  /// \brief The owner index of the node maps, built on the first call
  /// (once per store; never at open, so an open stays a directory
  /// parse) and immutable after it.
  const OwnerIndex& owner_index() const {
    std::call_once(owner_index_once_, [this] {
      owner_index_ = std::make_unique<const OwnerIndex>(entries_);
    });
    return *owner_index_;
  }

  /// \brief Shard `shard`'s payload bytes, checksum-verified exactly as
  /// a fault verifies them: a folded shard's bytes, else the resident
  /// view, else a source fetch into *owned (counted in the
  /// remote-fetch stats). Never faults a shard graph.
  Result<ByteSpan> VerifiedPayload(size_t shard,
                                   std::vector<uint8_t>* owned) const;

  /// \brief The shard's graph: the folded one, else the base graph,
  /// faulting it in on first touch. nullptr value = edgeless shard.
  /// `*faulted` (optional) tells whether this call did the fault.
  Result<const CompressedGraph*> Graph(size_t shard,
                                       bool* faulted = nullptr) const;

  /// \brief The current folded replacement of `shard`, or nullptr while
  /// it carries its base grammar (acquire-load, lock-free).
  const FoldedShard* Folded(size_t shard) const {
    return slots_[shard].folded.load(std::memory_order_acquire);
  }

  /// \brief Byte length of the shard's current payload.
  size_t PayloadSize(size_t shard) const;

  /// \brief Adds every shard's current payload to `out`, in order.
  /// Never faults; false when a source fetch or a verification fails.
  bool EncodeShards(V2Encoder* out) const;

  /// \brief Decompresses every shard on up to `threads` workers into
  /// one graph over `num_nodes` global ids.
  Result<Hypergraph> Decompress(uint64_t num_nodes, int threads) const;

  /// \brief Faults `shards` on up to `threads` workers and returns
  /// once each is resident or has failed; a fault error resurfaces on
  /// the query that needs the shard. Out-of-range indices are ignored.
  void Prefetch(const std::vector<size_t>& shards, int threads) const;
  void PrefetchAll(int threads) const;

  /// \brief Byte budget of the decoded cache; 0 disables it.
  void set_query_cache_bytes(size_t bytes);

  /// \brief The out (or in) neighbors of `count` local ids of `shard`,
  /// which must have a payload; `locals` must outlive the answer. They
  /// come from the decoded cache when it holds the shard or this call
  /// buys it: a call putting 2 or more nodes on the shard decodes it at
  /// once, and calls of fewer decode it once the rent they paid reaches
  /// its node-map size (rent or buy). Otherwise each is a grammar-direct
  /// lookup in the shard's graph, faulted in on first touch, that
  /// charges the rent one plus the ids it answered. Each node counts
  /// one cache hit or miss.
  Result<ShardAnswer> Answer(size_t shard, const NodeId* locals,
                             size_t count, bool out) const
      GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

  /// \brief Installs folded shards and invalidates their cache slots
  /// in one critical section. `replace_all` also reverts shards absent
  /// from `folds` to their base grammar. A decode that began before
  /// this call is not cached after it (the fold epoch moved).
  void Publish(
      std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
      bool replace_all) GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

  /// \brief Adds the answer (cache hit and miss), fault, prefetch,
  /// cache and source counters plus the resident shard graphs' memo
  /// counters. Never faults a shard.
  void AddStats(api::QueryStats* stats) const
      GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

 private:
  // One shard's fault and fold state. The base graph is written once,
  // under the slot's mutex, and then published for lock-free reads;
  // it is never reset, so a published pointer stays valid for the
  // store's lifetime. The folded pointer is written only inside
  // Publish.
  struct Slot {
    Mutex fault_mutex;  // also serializes the source's FetchShard
    std::unique_ptr<const CompressedGraph> base
        GREPAIR_GUARDED_BY(fault_mutex);
    std::atomic<const CompressedGraph*> published{nullptr};
    std::atomic<const FoldedShard*> folded{nullptr};
  };

  // One shard's decoded-cache state.
  struct CacheSlot {
    std::shared_ptr<const ShardNeighborhoods> decoded;
    uint64_t last_use = 0;  // LRU stamp
    // Grammar-direct lookup cost charged since the last decode, or
    // kUncacheable.
    uint64_t rent = 0;
  };

  /// Decodes `shard` and caches it under the budget; null when it
  /// cannot fit the budget or the decode fails (both mark it
  /// uncacheable) or the fault fails.
  std::shared_ptr<const ShardNeighborhoods> Buy(size_t shard) const
      GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

  /// LRU eviction of decoded shards down to `target` bytes.
  void EvictLocked(size_t target) const GREPAIR_REQUIRES(cache_mutex_);

  std::vector<ShardEntry> entries_;  // K data shards, then the cut shard
  std::shared_ptr<ShardSource> source_;  // non-null

  mutable std::once_flag owner_index_once_;
  mutable std::unique_ptr<const OwnerIndex> owner_index_;

  std::unique_ptr<Slot[]> slots_;  // one per entry

  // Guarded by cache_mutex_: folded_keep_, which retains every
  // published FoldedShard for the store's lifetime (the documented cost
  // of lock-free readers; a corpus folds a few times, not millions),
  // and the decoded cache, whose pointed-to data is immutable, so
  // readers only hold the lock for the lookup.
  std::atomic<size_t> cache_bytes_limit_{kDefaultQueryCacheBytes};
  mutable Mutex cache_mutex_;
  std::vector<std::shared_ptr<FoldedShard>> folded_keep_
      GREPAIR_GUARDED_BY(cache_mutex_);
  mutable std::vector<CacheSlot> cache_ GREPAIR_GUARDED_BY(cache_mutex_);
  mutable uint64_t cache_tick_ GREPAIR_GUARDED_BY(cache_mutex_) = 0;
  mutable size_t cache_bytes_used_ GREPAIR_GUARDED_BY(cache_mutex_) = 0;
  // Pairs an in-flight decode with the grammar it read: its cache
  // store is dropped when the epoch moved since the decode began.
  // Bumped and checked under cache_mutex_.
  mutable std::atomic<uint64_t> fold_epoch_{0};

  mutable std::atomic<uint64_t> stat_hits_{0};
  mutable std::atomic<uint64_t> stat_misses_{0};
  mutable std::atomic<uint64_t> stat_decodes_{0};
  mutable std::atomic<uint64_t> stat_evictions_{0};
  mutable std::atomic<uint64_t> stat_faults_{0};
  mutable std::atomic<uint64_t> stat_prefetched_{0};
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_SHARD_STORE_H_
