// Sharded meta-codec: compresses a graph as K+1 independently
// compressed shards behind the same GraphCodec/CompressedRep API as
// every single-shard codec.
//
// Registry names are "sharded:<inner>" ("sharded:grepair",
// "sharded:k2", ...); the sharded variants of all builtins are
// registered, and CodecRegistry::Create additionally resolves the
// prefix for any other registered inner codec. Options:
//
//   shards=K        number of data shards (default 4)
//   threads=T       compression thread-pool size (default: min(K, hw))
//   <anything else> forwarded to the inner codec
//
// Container layout ("GRSHARD2", little-endian, pinned by golden tests
// in tests/container_format_test.cc — bump the magic to change it):
// shard payloads sit back-to-back after the magic, and a footer
// directory of per-shard {offset, length, checksum, node map} plus a
// checksummed trailer lets Open() map the file and materialize shards
// lazily on first touch — opening a 16-shard container costs a
// directory parse, not 16 inner deserializations (see
// src/shard/README.md for the exact layout). Serialize() and
// SerializeV2() both emit it. A rep is always a GRSHARD2 directory over
// a ShardSource: Compress encodes its shard payloads into GRSHARD2
// bytes and opens them over an owned buffer, so a freshly compressed
// rep is exactly the rep its own bytes open to.
//
// Queries route through the node maps: a global node is looked up in
// every shard that contains it (vertex-cut shards may share nodes) and
// the cut shard, results are mapped back to global IDs and merged.
// Reachability is a BFS over the routed neighbor queries, so it works
// across shard boundaries and is available whenever the inner codec
// answers neighbor queries.
//
// Lazy shards and prefetch: a rep holds borrowed payload views into
// the backing store (an MmapFile or an owned buffer) and faults each
// shard's inner rep in on first touch — checksum-verified, guarded by
// a per-shard mutex, counted in QueryStats::shard_faults.
// set_prefetch_threads() starts a background pool that warms shards
// ahead of demand (batch queries enqueue the shards they are about to
// touch; Prefetch/PrefetchAll warm explicitly); answers are
// byte-identical with or without prefetch.
//
// Where a faulting shard's bytes come from is the ShardSource seam
// (below): the local backing store and the remote TCP client
// (src/net/) implement the same interface, so a rep opened via
// api::OpenRemote faults shards across the network through exactly
// this machinery — same verification, same caches, same stats.
//
// Query caching: each rep carries one bounded LRU cache of *decoded
// shard neighborhoods* — a shard's full out/in adjacency in global
// ids, materialized once from the inner rep. It is the rep's only
// query cache: merged answers are recomputed per query (grepair inner
// reps keep grammar memo tables of their own). Batch queries decode
// every shard they touch densely enough (amortizing the decode over
// the batch) and fan out over the rep's thread pool (set_threads);
// single queries fall back to grammar-direct routing but promote a
// shard into the cache after repeated misses. The whole budget
// (set_query_cache_bytes, 0 = disabled) goes to decoded shards,
// evicted whole, least-recently-used first; the next touch of an
// evicted shard re-decodes it from the resident inner rep. Faulted
// inner reps themselves (compressed-size, not decoded-size) are
// retained for the rep's lifetime — the byte budget governs decoded
// shards, not compressed ones. Cached answers are byte-identical to
// uncached ones and the cache never serializes.

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
#include "src/shard/delta_overlay.h"
#include "src/util/byte_io.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace grepair {
namespace shard {

/// \brief The 8-byte sharded-container magic (version byte last).
extern const char kShardContainerMagicV2[8];  ///< "GRSHARD2"

/// \brief Default byte budget of the per-shard query cache.
inline constexpr size_t kDefaultQueryCacheBytes = 64ull << 20;

/// \brief Default overlay byte budget: once a rep's resident delta
/// overlay outgrows this, ApplyEdits folds eligible edits back into
/// their shards' inner grammars (background recompression).
inline constexpr uint64_t kDefaultOverlayBudgetBytes = 1ull << 20;

/// \brief Where a lazy ShardedRep's payload bytes come from — the
/// seam the local mmap backing store, the remote TCP client
/// (serve::RemoteShardSource) and the SSD tier in front of it
/// (serve::TieredShardSource) implement. A rep holds exactly one
/// source for its lifetime; the source owns (or pins) whatever
/// storage its returned spans borrow from. Prefetch has one readahead
/// hook, AdviseShard, called just before each prefetched fault.
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
  /// (ShardedRep), so every source gets it for free.
  virtual Result<ByteSpan> FetchShard(size_t shard,
                                      std::vector<uint8_t>* owned) = 0;

  /// \brief Readahead hint for one shard's payload (MADV_WILLNEED on
  /// mapped sources), issued by ShardedRep::PrefetchOne just before
  /// it faults the shard. Returns the number of bytes hinted (0 =
  /// no-op); the rep accumulates this into QueryStats::bytes_hinted.
  virtual uint64_t AdviseShard(size_t shard) {
    (void)shard;
    return 0;
  }

  /// \brief Whole-container sequential-access hint (MADV_SEQUENTIAL
  /// on mapped sources, ahead of a full Decompress walk). Returns
  /// bytes hinted.
  virtual uint64_t AdviseSequential() { return 0; }

  /// \brief Undoes AdviseSequential once the walk is done
  /// (MADV_NORMAL), so a long-lived mapping returns to the default
  /// readahead that random point-query faults want. Returns bytes
  /// covered.
  virtual uint64_t AdviseNormal() { return 0; }

  /// \brief Folds this source's own counters (network fetches, pool
  /// dials, cache tiers) into *stats. Local sources are free: the
  /// default is a no-op. Layered sources (TieredShardSource) forward
  /// to their inner source so the whole stack reports through one
  /// call. Must be safe to call concurrently with FetchShard.
  virtual void AddStats(api::QueryStats* stats) const { (void)stats; }
};

/// \brief Directory metadata of one shard inside a container, as
/// reported by ShardedRep::Inspect (the CLI's `info` subcommand).
struct ShardDirEntry {
  uint64_t offset = 0;      ///< payload offset from container start
  uint64_t length = 0;      ///< payload byte length (0 = edgeless)
  uint64_t checksum = 0;    ///< payload checksum (0 when edgeless)
  uint64_t node_count = 0;  ///< node-map length n_k
};

/// \brief Whole-container directory metadata (no shard is decoded to
/// produce this — Inspect reads the footer only).
struct ShardContainerInfo {
  std::string inner_name;
  uint64_t num_nodes = 0;
  std::vector<ShardDirEntry> shards;
};

/// \brief A fully parsed GRSHARD2 footer directory: everything a lazy
/// rep needs except the payload bytes themselves. This is the unit
/// the shard server ships to remote clients (as the verbatim
/// directory byte region), so the network path reuses exactly the
/// hardened parser the file path uses.
struct ParsedDirectory {
  std::string inner_name;
  uint64_t num_nodes = 0;
  std::vector<ShardDirEntry> rows;
  std::vector<std::vector<NodeId>> node_maps;  ///< rows.size() entries
  /// Checksum of the raw directory bytes (the v2 trailer's value; a
  /// remote client recomputes it over the shipped region). This is a
  /// corpus *version identity*: GRSHARD3 deltas bind to it, and the
  /// serve tier compares it before trusting a persisted sidecar.
  uint64_t dir_checksum = 0;
};

/// \brief Locates the checksummed footer directory of a GRSHARD2
/// container: validates the magic, the trailer, and the directory
/// checksum, and returns the raw directory byte region. *dir_off
/// receives the region's offset inside the container.
Result<ByteSpan> LocateV2DirectoryRegion(ByteSpan container,
                                         uint64_t* dir_off);

/// \brief Parses raw GRSHARD2 directory bytes (the region
/// LocateV2DirectoryRegion returns) with full untrusted-input
/// hardening: shard/node-count bounds, node-map range checks, payload
/// ranges confined to [8, dir_off), no trailing bytes. `dir_off` is
/// the directory's offset inside its container (remote clients pass
/// the server-reported value; they never dereference the offsets).
Result<ParsedDirectory> ParseV2Directory(ByteSpan dir, uint64_t dir_off);

/// \brief Multi-shard compressed representation (container format
/// above). Implements the full CompressedRep query surface by routing
/// to the owning shards; every shard is faulted in on first touch
/// from the rep's ShardSource, transparently to every query path.
class ShardedRep : public api::CompressedRep {
 public:
  struct Entry {
    std::vector<NodeId> nodes;  ///< sorted global IDs
    ByteSpan view;       ///< borrowed inner bytes when the source keeps
                         ///< them locally (the rep pins the backing
                         ///< store alive); empty for remote sources
    uint64_t length = 0;    ///< directory payload length (0 = edgeless)
    uint64_t checksum = 0;  ///< directory payload checksum, verified at
                            ///< fault

    /// \brief The locally resident payload bytes (empty for
    /// source-only shards, whose bytes are fetched at fault time).
    ByteSpan payload_bytes() const { return view; }
    bool has_payload() const { return length != 0; }
  };

  ~ShardedRep() override;

  /// \brief Same bytes as SerializeV2(): GRSHARD2 is the only layout.
  std::vector<uint8_t> Serialize() const override;

  /// \brief Emits the GRSHARD2 footer-directory container (payload
  /// blobs, then directory with per-shard offset/length/checksum/node
  /// map, then a checksummed trailer). Deterministic; never faults —
  /// payload bytes are copied straight out of the backing store.
  /// Shards whose bytes are not locally resident (remote sources) are
  /// fetched and checksum-verified through the source; if any fetch
  /// fails the result is an empty vector, which never parses as a
  /// container, so failure stays closed.
  std::vector<uint8_t> SerializeV2() const;

  size_t ByteSize() const override;
  Result<Hypergraph> Decompress() const override;

  /// \brief Node count including nodes created by overlay adds (equal
  /// to the base container's count until an edit references a fresh
  /// id; never shrinks — deletes kill edges, not nodes).
  uint64_t num_nodes() const override {
    return total_nodes_.load(std::memory_order_acquire);
  }

  Result<std::vector<uint64_t>> OutNeighbors(uint64_t node) const override;
  Result<std::vector<uint64_t>> InNeighbors(uint64_t node) const override;
  Result<bool> Reachable(uint64_t from, uint64_t to) const override;

  /// \brief Batch neighbor queries: nodes grouped by owning shard,
  /// shards decoded into the cache where the batch amortizes it, work
  /// fanned out over the thread pool (un-faulted shards the batch
  /// touches are handed to the prefetch pool first when one is
  /// running). Result order follows the input order and is identical
  /// for every thread count.
  Result<std::vector<std::vector<uint64_t>>> OutNeighborsBatch(
      const std::vector<uint64_t>& nodes) const override;

  /// \brief Batch reachability: pairs fanned out over the thread
  /// pool (each BFS shares the shard cache). Deterministic result
  /// order; on failures the lowest pair index's status wins.
  Result<std::vector<uint8_t>> ReachableBatch(
      const std::vector<std::pair<uint64_t, uint64_t>>& pairs)
      const override;

  api::QueryStats query_stats() const override;

  /// \brief Parses a GRSHARD2 container: copies the bytes into an
  /// owned backing store and materializes shards lazily. Clean
  /// kCorruption on truncated, inconsistent or other-version input.
  static Result<std::unique_ptr<ShardedRep>> Deserialize(
      const std::vector<uint8_t>& bytes);

  /// \brief Span overload: copies the span once into an owned backing
  /// store and opens lazily over it.
  static Result<std::unique_ptr<ShardedRep>> Deserialize(ByteSpan bytes);

  /// \brief Owning overload: the buffer becomes the backing store
  /// without a copy (how Compress opens the bytes it just encoded).
  static Result<std::unique_ptr<ShardedRep>> Deserialize(
      std::vector<uint8_t>&& bytes);

  /// \brief Zero-copy open: `bytes` must be a view into `file`'s
  /// mapping (e.g. the payload of a backend-tagged frame). The
  /// container is opened in O(directory) time — shard payloads stay
  /// borrowed windows into the map until first touch — and `file` is
  /// retained for the rep's lifetime.
  static Result<std::unique_ptr<ShardedRep>> Open(
      std::shared_ptr<MmapFile> file, ByteSpan bytes);

  /// \brief Reads a container's directory — inner codec, node/shard
  /// counts, per-shard offsets/lengths/checksums — from the footer
  /// alone, without constructing a single inner rep.
  static Result<ShardContainerInfo> Inspect(ByteSpan bytes);

  /// \brief Opens a lazy rep over an arbitrary payload source: shard
  /// metadata comes from `dir` (a parsed GRSHARD2 directory — local
  /// file or fetched over the network), and each shard's bytes are
  /// pulled from `source` on first touch, checksum-verified against
  /// the directory like any other fault. This is how a remote
  /// container plugs in behind the existing lazy-fault machinery.
  static Result<std::unique_ptr<ShardedRep>> OpenFromSource(
      std::shared_ptr<ShardSource> source, ParsedDirectory dir);

  /// \brief Thread-pool size for Decompress, batch queries and folds
  /// (default 1, clamped to [1, 256]; the CLI's `decompress --threads`
  /// and `query --threads` set it). Safe to call while queries run.
  void set_threads(int threads);

  /// \brief Starts (or resizes, or with 0 stops) the background shard
  /// prefetch pool. Workers fault queued shards' inner reps so
  /// foreground queries find them resident; safe to toggle while
  /// queries run.
  void set_prefetch_threads(int threads);

  /// \brief Queues `shards` (indices) for background warming; faults
  /// inline when no pool is running. Out-of-range indices are ignored.
  void Prefetch(const std::vector<size_t>& shards) const;

  /// \brief Queues every shard with a payload.
  void PrefetchAll() const;

  /// \brief Blocks until the prefetch queue is drained (test/bench
  /// hook; no-op without a pool).
  void WaitForPrefetch() const;

  // --- Mutable-corpus surface (delta overlays, folds, GRSHARD3) ---

  /// \brief Applies `edits` (in order) to this rep's delta overlay.
  /// Queries issued after this returns see the mutated corpus (shard
  /// caches stay — they hold base data the overlay merges over). When
  /// the overlay's ByteSize exceeds the fold budget, eligible edits are
  /// folded back into their shards' inner grammars before returning
  /// (see FoldOverlay).
  /// Adds may reference fresh node ids (num_nodes grows); a self-loop
  /// add is kInvalidArgument. Safe to call concurrently with queries;
  /// concurrent ApplyEdits calls serialize on the overlay lock.
  Status ApplyEdits(const std::vector<EdgeEdit>& edits);

  /// \brief Folds every eligible overlay edit into its owning shard's
  /// inner grammar: the shard is decompressed, mutated, recompressed
  /// through the inner codec on the compression thread pool, and the
  /// new payload swapped in under the per-shard fault mutexes. An edit
  /// is eligible when its endpoints resolve into base shards — a kill
  /// needs a *unique* shard containing both endpoints (parallel node
  /// copies elsewhere would resurface the edge), an add needs any
  /// shard containing both and no residual kill of its pair. Edits
  /// that stay behind (fresh-node adds, multi-shard kills) remain in
  /// the residual overlay; answers are identical before and after.
  /// Purely in-memory and crash-safe by construction: the base
  /// container file is never touched. A shard whose recompression
  /// fails keeps its edits residual (fail-soft, never lossy).
  Status FoldOverlay();

  /// \brief Fold budget for ApplyEdits' automatic folding (bytes of
  /// resident overlay; default kDefaultOverlayBudgetBytes, ~0ull
  /// disables automatic folds).
  void set_overlay_budget_bytes(uint64_t bytes) {
    overlay_budget_bytes_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t overlay_budget_bytes() const {
    return overlay_budget_bytes_.load(std::memory_order_relaxed);
  }

  /// \brief Current resident overlay (never null; empty when clean).
  std::shared_ptr<const DeltaOverlay> overlay_snapshot() const
      GREPAIR_LOCKS_EXCLUDED(overlay_mu_);

  /// \brief The base container's directory checksum (the GRSHARD2
  /// trailer value or its remote recomputation).
  uint64_t directory_checksum() const { return directory_checksum_; }

  /// \brief Installs a decoded GRSHARD3 delta: verifies it binds to
  /// this base (directory checksum), swaps in the changed shards'
  /// payloads (re-verified, eagerly deserialized through the inner
  /// codec) and replaces the overlay with the delta's residual runs.
  /// Deltas are cumulative, so applying a chain in order or only its
  /// newest link yields the same corpus. kCorruption on any mismatch —
  /// fail closed.
  Status ApplyDelta(const DeltaContainer& delta);

  /// \brief Emits this rep's current edits as a GRSHARD3 delta
  /// container body: all folded shards plus the full residual overlay.
  /// `base_hash`/`base_size` identify the previous file in the chain
  /// (callers hash it; this rep cannot know which file it came from).
  Result<DeltaContainer> BuildDelta(uint64_t base_hash,
                                    uint64_t base_size) const
      GREPAIR_LOCKS_EXCLUDED(overlay_mu_);

  /// \brief Byte budget of the decoded-neighborhood cache; 0 disables
  /// caching entirely (every query routes to the inner reps).
  void set_query_cache_bytes(size_t bytes);
  size_t query_cache_bytes() const {
    return cache_bytes_limit_.load(std::memory_order_relaxed);
  }

  const std::string& inner_name() const { return inner_name_; }
  size_t num_shards() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }

  /// \brief The payload source's kind ("local-mmap", "local-heap",
  /// "remote", "tiered-ssd").
  const char* source_kind() const { return source_->kind(); }

  /// \brief Shard `shard`'s payload bytes, checksum-verified exactly as
  /// a fault verifies them: a folded shard's bytes, else the resident
  /// view, else a source fetch into *owned (counted in the
  /// remote-fetch stats). Never faults an inner rep.
  Result<ByteSpan> VerifiedPayload(size_t shard,
                                   std::vector<uint8_t>* owned) const;

  /// \brief A shard's decoded adjacency: per local node the sorted
  /// global-id out/in neighbor contributions of this shard. Immutable
  /// once built; defined in the .cc (implementation detail).
  struct ShardNeighborhoods;

 private:
  class Prefetcher;

  /// Every rep is built here (through OpenFromSource): `inner_codec`
  /// faults shards in, `source` serves their bytes, `dir` supplies the
  /// node maps and per-shard lengths/checksums.
  ShardedRep(std::unique_ptr<api::GraphCodec> inner_codec,
             std::shared_ptr<ShardSource> source, ParsedDirectory dir);

  Result<std::vector<uint64_t>> RoutedNeighbors(uint64_t node,
                                                bool out) const;
  Result<bool> ReachableImpl(uint64_t from, uint64_t to) const;

  /// The shard's inner rep, faulting it in (checksum-verified, mutex
  /// per shard) on first touch. nullptr value = edgeless shard. `faulted`
  /// (optional) reports whether this call performed the
  /// materialization.
  Result<const api::CompressedRep*> ShardRepFor(size_t shard,
                                                bool* faulted = nullptr)
      const;

  /// True when shard `i`'s inner rep is resident (already faulted, or
  /// nothing to fault) — never triggers a fault.
  bool ShardResident(size_t i) const;

  /// Prefetch-worker body for one shard (ignores fault errors — the
  /// foreground query that needs the shard will surface them).
  void PrefetchOne(size_t shard) const;

  static Result<std::unique_ptr<ShardedRep>> ParseV2(
      ByteSpan bytes, std::shared_ptr<MmapFile> file,
      std::shared_ptr<std::vector<uint8_t>> owned);

  /// Cache lookup; on miss, charges `pending` queries against the
  /// shard's miss budget and decodes the whole shard once the batch
  /// (or accumulated single-query misses) amortizes it. Returns null
  /// when caching is disabled, the decode is not yet worth it, or the
  /// decode failed (callers then fall back to per-node routing).
  std::shared_ptr<const ShardNeighborhoods> GetOrDecodeShard(
      size_t shard, size_t pending) const;

  /// One shard's grammar after a fold: the recompressed payload, its
  /// checksum, and its inner rep. Immutable once published;
  /// retained (folded_keep_) for the rep's lifetime so the lock-free
  /// published pointer stays valid like lazy_published_ does.
  struct FoldedShard {
    std::vector<uint8_t> payload;
    uint64_t checksum = 0;
    std::shared_ptr<api::CompressedRep> rep;
  };

  /// The current folded payload of `shard`, or nullptr when the shard
  /// still carries its base grammar. Acquire-load of the published
  /// pointer; consulted before the base entry everywhere payload
  /// bytes or inner reps are read.
  const FoldedShard* FoldedFor(size_t shard) const {
    return folded_published_[shard].load(std::memory_order_acquire);
  }

  /// Publishes folded shards + the residual overlay as one atomic
  /// step (under overlay_mu_, nesting cache_mutex_ for the
  /// invalidations), so readers that snapshot the overlay first can
  /// never observe residual runs without the folds they depend on.
  /// `replace_all` additionally reverts shards absent from `folds` to
  /// their base grammar (the ApplyDelta path — deltas are cumulative).
  void PublishFolds(
      std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
      std::shared_ptr<const DeltaOverlay> residual, bool replace_all)
      GREPAIR_REQUIRES(fold_mu_)
      GREPAIR_LOCKS_EXCLUDED(overlay_mu_, cache_mutex_);

  /// FoldOverlay's body, for callers already holding fold_mu_
  /// (ApplyEdits' automatic fold).
  Status FoldOverlayLocked() GREPAIR_REQUIRES(fold_mu_);

  /// Folds one shard: decompress (through the current folded rep when
  /// one exists), apply `kills` then `adds` (global ids; set
  /// semantics), recompress through the inner codec, serialize. On
  /// success *out carries the new payload + its inner rep.
  Status FoldOneShard(size_t shard, const std::vector<DeltaPair>& kills,
                      const std::vector<DeltaEdge>& adds,
                      std::shared_ptr<FoldedShard>* out) const;

  std::string inner_name_;
  uint32_t inner_capabilities_ = 0;
  uint64_t num_nodes_ = 0;
  std::vector<Entry> entries_;  // K data shards, then the cut shard
  // Atomics: the knobs may be retuned while queries are in flight on
  // other threads (query_stats()/monitoring alongside batches).
  std::atomic<int> threads_{1};
  std::atomic<size_t> cache_bytes_limit_{kDefaultQueryCacheBytes};

  // Lazy-open state: the inner codec that faults shards in, the
  // payload source the shards' bytes come from (the local backing
  // store for files/buffers, the TCP client for remote reps — the
  // source pins whatever storage entry views borrow), per-shard
  // materialization slots and their mutexes. Faulted reps are
  // immutable once published, and slots are never reset, so the raw
  // published pointer (the lock-free resident fast path) stays valid
  // for the rep's lifetime. Both pointers are non-null.
  std::unique_ptr<api::GraphCodec> inner_codec_;
  std::shared_ptr<ShardSource> source_;
  // lazy_slots_[i] is written only under fault_mutexes_[i]; a
  // per-element capability is not expressible with GUARDED_BY (one
  // mutex object per array slot), so the invariant is enforced by
  // code review + the lock-free published pointer below.
  mutable std::vector<std::shared_ptr<api::CompressedRep>> lazy_slots_;
  mutable std::unique_ptr<std::atomic<const api::CompressedRep*>[]>
      lazy_published_;
  mutable std::unique_ptr<Mutex[]> fault_mutexes_;

  /// LRU eviction of decoded shards down to `target` bytes.
  void EvictShardsLocked(size_t target) const
      GREPAIR_REQUIRES(cache_mutex_);

  // Cache state: one decoded-neighborhood slot per shard plus LRU
  // stamps, all guarded by cache_mutex_; the pointed-to data is
  // immutable, so readers only hold the lock for the lookup.
  mutable Mutex cache_mutex_;
  mutable std::vector<std::shared_ptr<const ShardNeighborhoods>>
      cache_slots_ GREPAIR_GUARDED_BY(cache_mutex_);
  mutable std::vector<uint64_t> cache_last_use_
      GREPAIR_GUARDED_BY(cache_mutex_);
  mutable std::vector<uint32_t> cache_miss_credit_
      GREPAIR_GUARDED_BY(cache_mutex_);
  mutable uint64_t cache_tick_ GREPAIR_GUARDED_BY(cache_mutex_) = 0;
  mutable size_t cache_bytes_used_ GREPAIR_GUARDED_BY(cache_mutex_) = 0;

  mutable std::atomic<uint64_t> stat_singles_{0};
  mutable std::atomic<uint64_t> stat_batch_calls_{0};
  mutable std::atomic<uint64_t> stat_batch_items_{0};
  mutable std::atomic<uint64_t> stat_hits_{0};
  mutable std::atomic<uint64_t> stat_misses_{0};
  mutable std::atomic<uint64_t> stat_decodes_{0};
  mutable std::atomic<uint64_t> stat_evictions_{0};
  mutable std::atomic<uint64_t> stat_faults_{0};
  mutable std::atomic<uint64_t> stat_prefetched_{0};
  mutable std::atomic<uint64_t> stat_hinted_{0};

  // Mutable-corpus state. Lock order: overlay_mu_ before cache_mutex_
  // (PublishFolds nests the cache invalidation inside the overlay
  // swap; query paths take the two locks sequentially, never nested
  // the other way). The overlay pointer itself is swapped under
  // overlay_mu_ and each snapshot is immutable, so queries hold the
  // lock only for the pointer copy.
  mutable Mutex overlay_mu_;
  std::shared_ptr<const DeltaOverlay> overlay_
      GREPAIR_GUARDED_BY(overlay_mu_);
  std::atomic<bool> has_overlay_{false};  // lock-free clean-rep fast path
  std::atomic<uint64_t> total_nodes_{0};  // >= num_nodes_, grown by adds
  std::atomic<uint64_t> overlay_budget_bytes_{kDefaultOverlayBudgetBytes};
  const uint64_t directory_checksum_;
  // Serializes FoldOverlay/ApplyDelta bodies; Decompress holds it too
  // so its (folded shards, residual overlay) capture is consistent —
  // a fold publishing mid-walk would double-apply its adds. Taken
  // before overlay_mu_ when both are held.
  mutable Mutex fold_mu_;
  // folded_published_[i] mirrors lazy_published_: written only inside
  // PublishFolds (under overlay_mu_), read lock-free with acquire.
  // folded_keep_ retains every published FoldedShard for the rep's
  // lifetime — the documented cost of lock-free readers (a corpus
  // folds a few times, not millions).
  mutable std::unique_ptr<std::atomic<const FoldedShard*>[]>
      folded_published_;
  std::vector<std::shared_ptr<FoldedShard>> folded_keep_
      GREPAIR_GUARDED_BY(overlay_mu_);
  // Pairs an in-flight shard decode with the grammar it read: the
  // cache store is dropped when fold_epoch_ moved since the decode
  // began. Bumped under cache_mutex_; checked there too.
  mutable std::atomic<uint64_t> fold_epoch_{0};

  mutable std::atomic<uint64_t> stat_overlay_merges_{0};
  mutable std::atomic<uint64_t> stat_shard_folds_{0};
  mutable std::atomic<uint64_t> stat_folded_edits_{0};

  // Prefetch pool; guarded by prefetch_mutex_ (knob retunes race with
  // batch enqueues). Declared last so workers are joined before the
  // state they touch is torn down.
  mutable Mutex prefetch_mutex_;
  mutable std::unique_ptr<Prefetcher> prefetcher_
      GREPAIR_GUARDED_BY(prefetch_mutex_);
};

/// \brief One shard's decoded adjacency, copied into plain vectors:
/// the CSR over the shard's local nodes that the query cache builds
/// (ShardedRep::ShardNeighborhoods), whose rows hold sorted,
/// deduplicated global ids. Queries never use it; it lets tests pin
/// the cache's decode.
struct ShardAdjacency {
  std::vector<uint64_t> out_off, out_data;  ///< n + 1 offsets; rows
  std::vector<uint64_t> in_off, in_data;
};

/// \brief Decodes `rep` (a shard whose local node i is global id
/// `nodes[i]`) exactly as the query cache does; Corruption when its
/// edges do not fit `nodes`.
Result<ShardAdjacency> DecodeShardAdjacency(const std::vector<NodeId>& nodes,
                                            const api::CompressedRep& rep);

/// \brief The "sharded:<inner>" meta-codec.
class ShardedCodec : public api::GraphCodec {
 public:
  /// \brief Resolves `inner_name` through the registry once; an
  /// unknown name yields a codec whose capabilities() are 0 and whose
  /// Compress/Deserialize return the lookup error.
  explicit ShardedCodec(std::string inner_name);

  /// \brief Wraps an already-constructed inner codec (the registry's
  /// prefix-resolution path, which has just created it anyway).
  ShardedCodec(std::string inner_name,
               std::unique_ptr<api::GraphCodec> inner);

  const char* name() const override { return name_.c_str(); }
  uint32_t capabilities() const override;

  Result<std::unique_ptr<api::CompressedRep>> Compress(
      const Hypergraph& graph, const Alphabet& alphabet,
      const api::CodecOptions& options) const override;

  Result<std::unique_ptr<api::CompressedRep>> Deserialize(
      const std::vector<uint8_t>& bytes) const override;

  Result<std::unique_ptr<api::CompressedRep>> DeserializeSpan(
      ByteSpan bytes) const override;

 private:
  std::string inner_name_;
  std::string name_;  // "sharded:" + inner_name_
  std::unique_ptr<api::GraphCodec> inner_;  // null if inner_name_ unknown
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_SHARDED_CODEC_H_
