// ShardStore: every per-shard slot of a sharded rep, and nothing about
// routing or edits.
//
// Per shard it keeps three things. The base fault turns the shard's
// payload bytes, fetched from the ShardSource and checksum-verified,
// into an inner rep on first touch (per-shard mutex, lock-free once
// published). The folded replacement is the payload and rep a fold or
// an applied delta installs through Publish; it supersedes the base
// wherever payload bytes or inner reps are read. The decoded
// neighborhood is the shard's whole out/in adjacency in global ids,
// kept in one LRU cache under a byte budget (set_query_cache_bytes,
// 0 disables it) and evicted whole. Prefetch faults shards ahead of
// demand on the caller's fan-out. Across shards it keeps the owner
// index, which routes a global id to the shards holding it. Faulted and
// folded reps are retained for the store's lifetime, and so is the
// owner index once the first routed lookup builds it (12 B per node-map
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
#include "src/shard/container.h"
#include "src/util/arena.h"
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
/// carved out of a single arena block sized by a counting pass, so a
/// decode does one allocation instead of one per node per direction.
/// The spans point into the arena and share its lifetime.
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

  Arena arena;
  const uint64_t* out_off = nullptr;  // n + 1 entries
  const uint64_t* in_off = nullptr;   // n + 1 entries
  uint64_t* out_data = nullptr;
  uint64_t* in_data = nullptr;
  size_t bytes = 0;  ///< what the cache budget charges

  explicit ShardNeighborhoods(size_t reserve_bytes) : arena(reserve_bytes) {}
};

/// \brief Decodes `rep` (a shard whose local node i is global id
/// `nodes[i]`) from its rank-2 edge stream into its neighborhood form;
/// null when its edges do not fit `nodes` or the stream fails.
std::shared_ptr<const ShardNeighborhoods> DecodeNeighborhoods(
    const std::vector<NodeId>& nodes, const api::CompressedRep& rep);

/// \brief One shard's grammar after a fold or delta: the payload, its
/// checksum, and its inner rep. Immutable once published.
struct FoldedShard {
  std::vector<uint8_t> payload;
  uint64_t checksum = 0;
  std::shared_ptr<api::CompressedRep> rep;
};

class ShardStore {
 public:
  /// `inner_codec` faults shards in, `source` serves their bytes.
  ShardStore(std::unique_ptr<api::GraphCodec> inner_codec,
             std::shared_ptr<ShardSource> source,
             std::vector<ShardEntry> entries);

  size_t num_shards() const { return entries_.size(); }
  const ShardEntry& entry(size_t i) const { return entries_[i]; }
  const api::GraphCodec& inner_codec() const { return *inner_codec_; }
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
  /// remote-fetch stats). Never faults an inner rep.
  Result<ByteSpan> VerifiedPayload(size_t shard,
                                   std::vector<uint8_t>* owned) const;

  /// \brief The shard's inner rep: the folded one, else the base rep,
  /// faulting it in on first touch. nullptr value = edgeless shard.
  /// `*faulted` (optional) tells whether this call did the fault.
  Result<const api::CompressedRep*> Rep(size_t shard,
                                        bool* faulted = nullptr) const;

  /// \brief The current folded replacement of `shard`, or nullptr while
  /// it carries its base grammar (acquire-load, lock-free).
  const FoldedShard* Folded(size_t shard) const {
    return folded_published_[shard].load(std::memory_order_acquire);
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

  /// \brief The shard's decoded neighborhoods from the cache. On a
  /// miss it decodes the whole shard at once when a batch puts
  /// `pending` >= 2 nodes on it; a single query (`pending` 1) decodes
  /// it only once the rent charged by ChargeLookups reaches the
  /// shard's node-map size (rent or buy). Null when caching is
  /// disabled, the decode is not yet worth it, or it failed (callers
  /// then route per node through Rep and charge the lookups).
  std::shared_ptr<const ShardNeighborhoods> Decoded(size_t shard,
                                                    size_t pending) const;

  /// \brief Charges grammar-direct lookups on `shard` against its
  /// rent: `cost` is one per lookup plus the ids it answered.
  /// Saturating; reset when the shard is decoded into the cache.
  void ChargeLookups(size_t shard, uint64_t cost) const
      GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

  /// \brief Installs folded shards and invalidates their cache slots
  /// in one critical section. `replace_all` also reverts shards absent
  /// from `folds` to their base grammar. A decode that began before
  /// this call is not cached after it (the fold epoch moved).
  void Publish(
      std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
      bool replace_all) GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

  /// \brief Adds fault, prefetch, cache and source counters plus the
  /// resident inner reps' memo counters. Never faults a shard.
  void AddStats(api::QueryStats* stats) const
      GREPAIR_LOCKS_EXCLUDED(cache_mutex_);

 private:
  /// LRU eviction of decoded shards down to `target` bytes.
  void EvictLocked(size_t target) const GREPAIR_REQUIRES(cache_mutex_);

  std::vector<ShardEntry> entries_;  // K data shards, then the cut shard
  std::unique_ptr<api::GraphCodec> inner_codec_;  // non-null
  std::shared_ptr<ShardSource> source_;           // non-null

  mutable std::once_flag owner_index_once_;
  mutable std::unique_ptr<const OwnerIndex> owner_index_;

  // Base faults. lazy_slots_[i] is written only under
  // fault_mutexes_[i]; a per-element capability is not expressible
  // with GUARDED_BY (one mutex object per array slot), so the
  // invariant is enforced by code review + the lock-free published
  // pointer. Slots are never reset, so a published pointer stays
  // valid for the store's lifetime.
  mutable std::vector<std::shared_ptr<api::CompressedRep>> lazy_slots_;
  mutable std::unique_ptr<std::atomic<const api::CompressedRep*>[]>
      lazy_published_;
  mutable std::unique_ptr<Mutex[]> fault_mutexes_;

  // Folded replacements: written only inside Publish, read lock-free
  // with acquire. folded_keep_ retains every published FoldedShard for
  // the store's lifetime — the documented cost of lock-free readers (a
  // corpus folds a few times, not millions).
  std::unique_ptr<std::atomic<const FoldedShard*>[]> folded_published_;

  // Decoded cache: one slot per shard plus LRU stamps, all guarded by
  // cache_mutex_; the pointed-to data is immutable, so readers only
  // hold the lock for the lookup.
  std::atomic<size_t> cache_bytes_limit_{kDefaultQueryCacheBytes};
  mutable Mutex cache_mutex_;
  std::vector<std::shared_ptr<FoldedShard>> folded_keep_
      GREPAIR_GUARDED_BY(cache_mutex_);
  mutable std::vector<std::shared_ptr<const ShardNeighborhoods>>
      cache_slots_ GREPAIR_GUARDED_BY(cache_mutex_);
  mutable std::vector<uint64_t> cache_last_use_
      GREPAIR_GUARDED_BY(cache_mutex_);
  // Grammar-direct lookup cost charged per shard since its last
  // decode (ChargeLookups), or kUncacheable.
  mutable std::vector<uint64_t> cache_rent_
      GREPAIR_GUARDED_BY(cache_mutex_);
  mutable uint64_t cache_tick_ GREPAIR_GUARDED_BY(cache_mutex_) = 0;
  mutable size_t cache_bytes_used_ GREPAIR_GUARDED_BY(cache_mutex_) = 0;
  // Pairs an in-flight decode with the grammar it read: its cache
  // store is dropped when the epoch moved since the decode began.
  // Bumped and checked under cache_mutex_.
  mutable std::atomic<uint64_t> fold_epoch_{0};

  mutable std::atomic<uint64_t> stat_decodes_{0};
  mutable std::atomic<uint64_t> stat_evictions_{0};
  mutable std::atomic<uint64_t> stat_faults_{0};
  mutable std::atomic<uint64_t> stat_prefetched_{0};
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_SHARD_STORE_H_
