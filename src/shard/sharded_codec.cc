#include "src/shard/sharded_codec.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "src/api/codec_registry.h"
#include "src/shard/parallel_compressor.h"
#include "src/shard/partitioner.h"
#include "src/util/arena.h"
#include "src/util/byte_io.h"
#include "src/util/elias.h"
#include "src/util/hashing.h"

namespace grepair {
namespace shard {

const char kShardContainerMagicV2[8] = {'G', 'R', 'S', 'H', 'A', 'R', 'D',
                                        '2'};

namespace {

// Data shards + the cut shard.
constexpr size_t kMaxShardCount = static_cast<size_t>(kMaxShards) + 1;

// Trailer: u64 directory offset + u64 directory length + u64 directory
// checksum.
constexpr size_t kV2TrailerBytes = 24;

// Fixed bytes of one directory row: offset, length, checksum and
// node-map length (u64 each), then the u32 node-map byte length.
constexpr size_t kV2RowBytes = 4 * 8 + 4;

// Appends the sorted node map as Elias-delta gaps (ids shifted by one,
// gaps strictly positive), byte-aligned so payloads stay addressable.
void EncodeNodeMap(const std::vector<NodeId>& nodes,
                   std::vector<uint8_t>* out) {
  BitWriter w;
  uint64_t prev = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    uint64_t shifted = static_cast<uint64_t>(nodes[i]) + 1;
    EliasDeltaEncode(i == 0 ? shifted : shifted - prev, &w);
    prev = shifted;
  }
  w.AlignToByte();
  auto bytes = w.TakeBytes();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

// Byte length EncodeNodeMap produces for `nodes`, computed without
// encoding.
size_t NodeMapBytes(const std::vector<NodeId>& nodes) {
  size_t bits = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    uint64_t shifted = static_cast<uint64_t>(nodes[i]) + 1;
    bits += EliasDeltaLength(i == 0 ? shifted : shifted - prev);
    prev = shifted;
  }
  return (bits + 7) / 8;
}

// Streams a GRSHARD2 container: payload blobs go out back to back as
// shards are added, directory rows accumulate in a side buffer, and
// Finish() appends the directory and the checksummed trailer. The one
// encoder behind Compress and SerializeV2.
class V2Encoder {
 public:
  V2Encoder(const std::string& inner_name, uint64_t num_nodes,
            size_t shard_count)
      : out_(kShardContainerMagicV2, kShardContainerMagicV2 + 8) {
    dir_.push_back(static_cast<uint8_t>(inner_name.size()));
    dir_.insert(dir_.end(), inner_name.begin(), inner_name.end());
    PutU64LE(num_nodes, &dir_);
    PutU32LE(static_cast<uint32_t>(shard_count), &dir_);
  }

  // Appends the next shard: its payload (empty = edgeless, recorded
  // with offset and checksum 0) and its directory row.
  void AddShard(const std::vector<NodeId>& nodes, ByteSpan payload,
                uint64_t checksum) {
    bool edgeless = payload.size == 0;
    PutU64LE(edgeless ? 0 : out_.size(), &dir_);
    PutU64LE(payload.size, &dir_);
    PutU64LE(edgeless ? 0 : checksum, &dir_);
    PutU64LE(nodes.size(), &dir_);
    std::vector<uint8_t> map;
    EncodeNodeMap(nodes, &map);
    PutU32LE(static_cast<uint32_t>(map.size()), &dir_);
    dir_.insert(dir_.end(), map.begin(), map.end());
    out_.insert(out_.end(), payload.begin(), payload.end());
  }

  std::vector<uint8_t> Finish() && {
    uint64_t dir_off = out_.size();
    out_.insert(out_.end(), dir_.begin(), dir_.end());
    PutU64LE(dir_off, &out_);
    PutU64LE(dir_.size(), &out_);
    PutU64LE(HashBytes(dir_.data(), dir_.size()), &out_);
    return std::move(out_);
  }

 private:
  std::vector<uint8_t> out_;
  std::vector<uint8_t> dir_;
};

// Decodes a node map off the cursor's remaining window, advancing it
// past the (data-dependent, byte-aligned) consumed length.
Status DecodeNodeMap(ByteSource* src, uint64_t count, uint64_t num_nodes,
                     std::vector<NodeId>* nodes) {
  if (count > num_nodes) {
    return Status::Corruption("shard node map larger than graph");
  }
  ByteSpan in = src->PeekRemaining();
  // num_nodes is itself untrusted (isolated nodes are free, so it
  // cannot be bounded by input size) — bound the allocation-driving
  // count by the remaining input instead: every map entry costs at
  // least one bit.
  if (count > in.size * 8) {
    return Status::Corruption("shard node map exceeds input size");
  }
  BitReader r(in.data, in.size * 8);
  nodes->clear();
  // Capped reserve: sizing 4 bytes per claimed 1-bit entry up front
  // would hand crafted input a 32x allocation amplifier before any
  // gap is validated. Growth past the cap is pay-as-you-decode —
  // memory stays proportional to input actually consumed (the
  // residual is ordinary decompression-bomb density, not a free
  // allocation).
  nodes->reserve(static_cast<size_t>(std::min<uint64_t>(count, 1u << 16)));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap = 0;
    Status decoded = EliasDeltaDecode(&r, &gap);
    if (!decoded.ok()) {
      // Normalize the bit reader's kOutOfRange exhaustion: to callers
      // (including remote clients parsing a served directory) a map
      // that ends early is corrupt input, full stop.
      return Status::Corruption("shard node map truncated at entry " +
                                std::to_string(i) + ": " +
                                decoded.message());
    }
    // Checked as `gap > limit`, not `prev + gap > num_nodes`: a gap
    // near 2^64 would wrap the sum back into range and smuggle in an
    // unsorted map that LocalId's binary search cannot query.
    if (gap > num_nodes - prev) {
      return Status::Corruption("shard node map id out of range");
    }
    uint64_t shifted = prev + gap;  // >= 1: Elias codes are >= 1
    nodes->push_back(static_cast<NodeId>(shifted - 1));
    prev = shifted;
  }
  return src->Skip((r.position() + 7) / 8);
}

// Binary search of a global id in a shard's sorted map; kInvalidNode
// when absent.
NodeId LocalId(const std::vector<NodeId>& nodes, uint64_t global) {
  auto it = std::lower_bound(nodes.begin(), nodes.end(),
                             static_cast<NodeId>(global));
  if (it == nodes.end() || *it != static_cast<NodeId>(global)) {
    return kInvalidNode;
  }
  return static_cast<NodeId>(it - nodes.begin());
}

// Cheap pre-filter before the binary search: shard maps are sorted, so
// most shards are rejected by two comparisons instead of a full
// lower_bound (edge-range partitions make the ranges disjoint; the
// query routing loop runs this once per shard per node).
bool ShardMayContain(const std::vector<NodeId>& nodes, uint64_t global) {
  return !nodes.empty() && global >= nodes.front() &&
         global <= nodes.back();
}

// The first 7 magic bytes name the family, the eighth the version:
// only GRSHARD2 is a standalone container, so any other version byte
// fails loudly as a version error rather than as a misparse.
Status CheckContainerMagic(ByteSpan bytes) {
  if (bytes.size < 8 ||
      std::memcmp(bytes.data, kShardContainerMagicV2, 7) != 0) {
    return Status::Corruption("bad sharded container magic");
  }
  if (bytes[7] != kShardContainerMagicV2[7]) {
    return Status::Corruption(
        "unsupported sharded container version (expected GRSHARD2)");
  }
  return Status::OK();
}

// The inner name is untrusted: a nested "sharded:*" inner would
// recurse through this parser once per container level, and a crafted
// deeply-nested file becomes a stack overflow instead of a Status.
// Compression never produces nested containers (the registry refuses
// sharded-of-sharded), so reject them up front.
Status RejectNestedInner(const std::string& inner_name) {
  if (inner_name.rfind("sharded:", 0) == 0) {
    return Status::Corruption("nested sharded containers are not supported");
  }
  return Status::OK();
}

}  // namespace

// A shard's decoded adjacency. Built from the inner rep's Decompress
// once, then shared read-only by every query that touches the shard:
// Out(local) / In(local) are this shard's sorted, deduplicated
// global-id neighbor contributions for the node at local index.
//
// Storage is a CSR layout (offsets + one flat id array per direction)
// carved out of a single arena block sized by a counting pass, so a
// shard fault does one allocation instead of one per node per
// direction. The spans point into the arena and share its lifetime.
struct ShardedRep::ShardNeighborhoods {
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
  size_t bytes = 0;

  explicit ShardNeighborhoods(size_t reserve_bytes)
      : arena(reserve_bytes) {}
};

namespace {

// Single-query misses a shard accumulates before it is promoted into
// the cache (one decode amortized over this many grammar walks); a
// batch putting at least this many queries on a shard decodes it
// immediately.
constexpr uint32_t kDecodeAfterMisses = 8;
constexpr size_t kBatchDecodeThreshold = 2;

// Miss-credit sentinel for a shard whose decoded form did not fit the
// budget: never try decoding it again (until the budget changes), or
// every 8th query would pay a whole-shard decode just to discard it.
constexpr uint32_t kUncacheable = ~0u;

// Decodes shard `entry` via `rep` into its neighborhood form; null on
// any decode/consistency failure (callers fall back to per-node
// routing, which surfaces the error through the normal query path).
// Sorts and deduplicates each CSR row of (off, data) in place,
// compacting rows forward and rewriting the offsets to the shrunken
// rows. `n` is the row count.
void SortDedupCompact(uint64_t* off, uint64_t* data, size_t n) {
  uint64_t write = 0;
  for (size_t u = 0; u < n; ++u) {
    uint64_t* row = data + off[u];
    uint64_t* row_end = data + off[u + 1];
    std::sort(row, row_end);
    uint64_t* uniq_end = std::unique(row, row_end);
    uint64_t row_start = write;
    // write <= off[u], so the forward copy never overtakes the source.
    for (uint64_t* p = row; p != uniq_end; ++p) data[write++] = *p;
    off[u] = row_start;
  }
  off[n] = write;
}

std::shared_ptr<const ShardedRep::ShardNeighborhoods> DecodeNeighborhoods(
    const ShardedRep::Entry& entry, const api::CompressedRep& rep) {
  size_t n = entry.nodes.size();
  if (rep.num_nodes() != n) return nullptr;

  // Counting pass, fed straight from the rep's edge stream (a grepair
  // shard derives it from the grammar without building a Hypergraph):
  // per-node degrees (and validation), so the arena can be sized
  // exactly and the whole decoded form costs one allocation.
  std::vector<uint64_t> out_deg(n + 1, 0), in_deg(n + 1, 0);
  std::vector<std::pair<NodeId, NodeId>> edges;
  bool in_range = true;
  Status streamed = rep.ForEachRank2Edge([&](NodeId u, NodeId v) {
    if (u >= n || v >= n) {
      in_range = false;
      return;
    }
    ++out_deg[u + 1];
    ++in_deg[v + 1];
    edges.push_back({u, v});
  });
  if (!streamed.ok() || !in_range) return nullptr;
  const size_t total = edges.size();

  const size_t reserve =
      (2 * (n + 1) + 2 * total) * sizeof(uint64_t) + alignof(uint64_t);
  auto sn = std::make_shared<ShardedRep::ShardNeighborhoods>(reserve);
  uint64_t* out_off = sn->arena.AllocateArray<uint64_t>(n + 1);
  uint64_t* in_off = sn->arena.AllocateArray<uint64_t>(n + 1);
  sn->out_data = sn->arena.AllocateArray<uint64_t>(total);
  sn->in_data = sn->arena.AllocateArray<uint64_t>(total);
  for (size_t u = 0; u < n; ++u) {
    out_off[u + 1] = out_off[u] + out_deg[u + 1];
    in_off[u + 1] = in_off[u] + in_deg[u + 1];
  }

  // Fill pass: reuse the degree arrays as write cursors.
  std::copy(out_off, out_off + n, out_deg.begin());
  std::copy(in_off, in_off + n, in_deg.begin());
  for (const auto& [u, v] : edges) {
    sn->out_data[out_deg[u]++] = entry.nodes[v];
    sn->in_data[in_deg[v]++] = entry.nodes[u];
  }

  SortDedupCompact(out_off, sn->out_data, n);
  SortDedupCompact(in_off, sn->in_data, n);
  sn->out_off = out_off;
  sn->in_off = in_off;
  sn->bytes = sn->arena.bytes_reserved();
  return sn;
}

}  // namespace

Result<ShardAdjacency> DecodeShardAdjacency(const std::vector<NodeId>& nodes,
                                            const api::CompressedRep& rep) {
  ShardedRep::Entry entry;
  entry.nodes = nodes;
  auto sn = DecodeNeighborhoods(entry, rep);
  if (sn == nullptr) {
    return Status::Corruption("shard edges do not fit its node map");
  }
  const size_t n = nodes.size();
  ShardAdjacency adj;
  adj.out_off.assign(sn->out_off, sn->out_off + n + 1);
  adj.in_off.assign(sn->in_off, sn->in_off + n + 1);
  adj.out_data.assign(sn->out_data, sn->out_data + adj.out_off[n]);
  adj.in_data.assign(sn->in_data, sn->in_data + adj.in_off[n]);
  return adj;
}

// ---------------------------------------------------------------------------
// Prefetch pool

// Fixed worker pool draining a shard-index queue: each worker faults
// one shard's inner rep at a time so foreground queries find it
// resident. Lifetime: owned by the rep (declared last, so destroyed —
// and joined — before any state the workers touch).
class ShardedRep::Prefetcher {
 public:
  Prefetcher(const ShardedRep* rep, int threads) : rep_(rep) {
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { Worker(); });
    }
  }

  ~Prefetcher() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    for (auto& t : workers_) t.join();
  }

  void Enqueue(const std::vector<size_t>& shards)
      GREPAIR_LOCKS_EXCLUDED(mu_) {
    {
      MutexLock lock(mu_);
      for (size_t s : shards) {
        queue_.push_back(s);
        ++pending_;
      }
    }
    cv_.NotifyAll();
  }

  void WaitIdle() GREPAIR_LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    while (pending_ != 0 && !stop_) idle_cv_.Wait(lock);
  }

 private:
  void Worker() GREPAIR_LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    while (true) {
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      if (stop_) break;
      size_t shard = queue_.front();
      queue_.pop_front();
      // The fault itself runs unlocked so workers fault in parallel;
      // the scoped lock is released and re-acquired around it with
      // the analysis tracking the gap.
      lock.Unlock();
      rep_->PrefetchOne(shard);
      lock.Lock();
      if (--pending_ == 0) idle_cv_.NotifyAll();
    }
    // Wake any WaitIdle caller racing a shutdown (queued work is
    // dropped; nobody can observe the rep after destruction anyway).
    idle_cv_.NotifyAll();
  }

  const ShardedRep* rep_;
  Mutex mu_;
  CondVar cv_;
  CondVar idle_cv_;
  std::deque<size_t> queue_ GREPAIR_GUARDED_BY(mu_);
  size_t pending_ GREPAIR_GUARDED_BY(mu_) = 0;
  bool stop_ GREPAIR_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

// ---------------------------------------------------------------------------
// ShardedRep

namespace {

std::vector<ShardedRep::Entry> EntriesOf(ParsedDirectory* dir) {
  std::vector<ShardedRep::Entry> entries(dir->rows.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].nodes = std::move(dir->node_maps[i]);
    entries[i].length = dir->rows[i].length;
    entries[i].checksum = dir->rows[i].checksum;
  }
  return entries;
}

}  // namespace

ShardedRep::ShardedRep(std::unique_ptr<api::GraphCodec> inner_codec,
                       std::shared_ptr<ShardSource> source,
                       ParsedDirectory dir)
    : inner_name_(std::move(dir.inner_name)),
      inner_capabilities_(inner_codec->capabilities()),
      num_nodes_(dir.num_nodes),
      entries_(EntriesOf(&dir)),
      inner_codec_(std::move(inner_codec)),
      source_(std::move(source)),
      lazy_slots_(entries_.size()),
      lazy_published_(
          new std::atomic<const api::CompressedRep*>[entries_.size()]),
      fault_mutexes_(new Mutex[entries_.size()]),
      cache_slots_(entries_.size()),
      cache_last_use_(entries_.size(), 0),
      cache_miss_credit_(entries_.size(), 0),
      directory_checksum_(dir.dir_checksum),
      folded_published_(
          new std::atomic<const FoldedShard*>[entries_.size()]) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    lazy_published_[i].store(nullptr, std::memory_order_relaxed);
    folded_published_[i].store(nullptr, std::memory_order_relaxed);
  }
  total_nodes_.store(num_nodes_, std::memory_order_relaxed);
}

ShardedRep::~ShardedRep() = default;

void ShardedRep::set_threads(int threads) {
  threads_.store(std::max(1, std::min(threads, 256)),
                 std::memory_order_relaxed);
}

void ShardedRep::set_prefetch_threads(int threads) {
  MutexLock lock(prefetch_mutex_);
  prefetcher_.reset();  // join the old pool before any resize
  if (threads > 0) {
    prefetcher_ = std::make_unique<Prefetcher>(this, std::min(threads, 64));
  }
}

void ShardedRep::Prefetch(const std::vector<size_t>& shards) const {
  std::vector<size_t> valid;
  valid.reserve(shards.size());
  for (size_t s : shards) {
    if (s < entries_.size()) valid.push_back(s);
  }
  if (valid.empty()) return;
  {
    MutexLock lock(prefetch_mutex_);
    if (prefetcher_ != nullptr) {
      prefetcher_->Enqueue(valid);
      return;
    }
  }
  // No pool: warm synchronously so the call still means "make these
  // resident".
  for (size_t s : valid) PrefetchOne(s);
}

void ShardedRep::PrefetchAll() const {
  std::vector<size_t> all;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].has_payload()) all.push_back(i);
  }
  Prefetch(all);
}

void ShardedRep::WaitForPrefetch() const {
  MutexLock lock(prefetch_mutex_);
  if (prefetcher_ != nullptr) prefetcher_->WaitIdle();
}

bool ShardedRep::ShardResident(size_t i) const {
  if (!entries_[i].has_payload()) return true;  // nothing to fault
  return lazy_published_[i].load(std::memory_order_acquire) != nullptr;
}

void ShardedRep::PrefetchOne(size_t shard) const {
  if (shard >= entries_.size() || ShardResident(shard)) return;
  // Readahead hint first: on mapped sources the kernel starts paging
  // the payload in while this worker is still in the deserializer's
  // early bytes.
  uint64_t hinted = source_->AdviseShard(shard);
  if (hinted > 0) stat_hinted_.fetch_add(hinted, std::memory_order_relaxed);
  bool faulted = false;
  auto rep = ShardRepFor(shard, &faulted);
  (void)rep;  // errors resurface on the foreground query that needs it
  if (faulted) stat_prefetched_.fetch_add(1, std::memory_order_relaxed);
}

Result<ByteSpan> ShardedRep::VerifiedPayload(
    size_t shard, std::vector<uint8_t>* owned) const {
  // A folded shard's bytes supersede the base container's: they were
  // produced (and hashed) locally by the fold, and stay alive for the
  // rep's lifetime.
  if (const FoldedShard* folded = FoldedFor(shard)) {
    ByteSpan payload = SpanOf(folded->payload);
    uint64_t actual = HashBytes(payload.data, payload.size);
    if (actual != folded->checksum) {
      return Status::Corruption("folded shard " + std::to_string(shard) +
                                " payload checksum mismatch");
    }
    return payload;
  }
  const Entry& entry = entries_[shard];
  ByteSpan payload = entry.payload_bytes();
  if (payload.size == 0) {
    // Source-only shard (remote): fetch the bytes now. The span the
    // source returns either borrows its own pinned storage or points
    // into *owned.
    auto fetched = source_->FetchShard(shard, owned);
    if (!fetched.ok()) return fetched.status();
    payload = fetched.value();
    if (payload.size != entry.length) {
      return Status::Corruption(
          "shard " + std::to_string(shard) + " fetch returned " +
          std::to_string(payload.size) + " byte(s), directory says " +
          std::to_string(entry.length));
    }
  }
  // Fail closed on payload corruption before anyone parses the bytes.
  uint64_t actual = HashBytes(payload.data, payload.size);
  if (actual != entry.checksum) {
    return Status::Corruption(
        "shard " + std::to_string(shard) +
        " payload checksum mismatch (expected " + HexU64(entry.checksum) +
        ", got " + HexU64(actual) + " over " + std::to_string(payload.size) +
        " bytes)");
  }
  return payload;
}

Result<const api::CompressedRep*> ShardedRep::ShardRepFor(
    size_t shard, bool* faulted) const {
  if (faulted != nullptr) *faulted = false;
  // Folded grammar first: once a fold has recompressed this shard,
  // its rep is the shard's truth (base payload + folded edits).
  if (const FoldedShard* folded = FoldedFor(shard)) {
    return static_cast<const api::CompressedRep*>(folded->rep.get());
  }
  const Entry& entry = entries_[shard];
  if (!entry.has_payload()) {
    return static_cast<const api::CompressedRep*>(nullptr);  // edgeless
  }
  // Lock-free resident fast path: slots are never reset, so a
  // published pointer is valid for the rep's lifetime and hot shards
  // cost one acquire-load per touch.
  if (const api::CompressedRep* published =
          lazy_published_[shard].load(std::memory_order_acquire)) {
    return published;
  }
  // Fault path: per-shard mutex so concurrent touches of one shard
  // deserialize (and, for remote sources, fetch) it exactly once
  // while other shards fault in parallel.
  MutexLock lock(fault_mutexes_[shard]);
  if (lazy_slots_[shard] != nullptr) {
    return static_cast<const api::CompressedRep*>(lazy_slots_[shard].get());
  }
  std::vector<uint8_t> fetched;
  auto payload = VerifiedPayload(shard, &fetched);
  if (!payload.ok()) return payload.status();
  auto rep = inner_codec_->DeserializeSpan(payload.value());
  if (!rep.ok()) return rep.status();
  if (rep.value()->num_nodes() != entry.nodes.size()) {
    return Status::Corruption(
        "shard " + std::to_string(shard) + " payload node count " +
        std::to_string(rep.value()->num_nodes()) +
        " does not match its node map (" +
        std::to_string(entry.nodes.size()) + ")");
  }
  stat_faults_.fetch_add(1, std::memory_order_relaxed);
  if (faulted != nullptr) *faulted = true;
  lazy_slots_[shard] = std::move(rep).ValueOrDie();
  lazy_published_[shard].store(lazy_slots_[shard].get(),
                               std::memory_order_release);
  return static_cast<const api::CompressedRep*>(lazy_slots_[shard].get());
}

void ShardedRep::EvictShardsLocked(size_t target) const {
  while (cache_bytes_used_ > target) {
    size_t victim = cache_slots_.size();
    uint64_t oldest = ~0ull;
    for (size_t i = 0; i < cache_slots_.size(); ++i) {
      if (cache_slots_[i] != nullptr && cache_last_use_[i] < oldest) {
        oldest = cache_last_use_[i];
        victim = i;
      }
    }
    if (victim == cache_slots_.size()) break;
    cache_bytes_used_ -= cache_slots_[victim]->bytes;
    cache_slots_[victim] = nullptr;
    stat_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedRep::set_query_cache_bytes(size_t bytes) {
  cache_bytes_limit_.store(bytes, std::memory_order_relaxed);
  // Shrink to the new budget immediately, LRU first, and let
  // previously uncacheable shards try again under the new budget.
  MutexLock lock(cache_mutex_);
  EvictShardsLocked(bytes);
  std::fill(cache_miss_credit_.begin(), cache_miss_credit_.end(), 0u);
}

std::shared_ptr<const ShardedRep::ShardNeighborhoods>
ShardedRep::GetOrDecodeShard(size_t shard, size_t pending) const {
  const Entry& entry = entries_[shard];
  if (!entry.has_payload()) return nullptr;
  if (cache_bytes_limit_.load(std::memory_order_relaxed) == 0) {
    return nullptr;
  }
  {
    MutexLock lock(cache_mutex_);
    if (cache_slots_[shard] != nullptr) {
      cache_last_use_[shard] = ++cache_tick_;
      return cache_slots_[shard];
    }
    if (cache_miss_credit_[shard] == kUncacheable) return nullptr;
    cache_miss_credit_[shard] +=
        static_cast<uint32_t>(std::min<size_t>(pending, kDecodeAfterMisses));
    if (pending < kBatchDecodeThreshold &&
        cache_miss_credit_[shard] < kDecodeAfterMisses) {
      return nullptr;
    }
  }
  // Decode outside the lock: it runs inner decompression (and on lazy
  // reps may fault the shard in first) and must not serialize
  // concurrent queries on other shards. A racing decode of the same
  // shard wastes work but stays correct (first insert wins). The fold
  // epoch is captured before the rep is resolved: if a fold publishes
  // while we decode, the result below came from the pre-fold grammar
  // and must not be cached past the publish's invalidation.
  uint64_t fold_epoch = fold_epoch_.load(std::memory_order_acquire);
  auto rep = ShardRepFor(shard);
  if (!rep.ok() || rep.value() == nullptr) {
    return nullptr;  // fault errors resurface via per-node routing
  }
  auto decoded = DecodeNeighborhoods(entry, *rep.value());
  if (decoded == nullptr) return nullptr;
  stat_decodes_.fetch_add(1, std::memory_order_relaxed);

  MutexLock lock(cache_mutex_);
  if (cache_slots_[shard] != nullptr) return cache_slots_[shard];
  if (fold_epoch_.load(std::memory_order_relaxed) != fold_epoch) {
    // Usable for this call (the caller's overlay snapshot predates the
    // fold, so the pre-fold view merges correctly), but stale for any
    // query that snapshots the post-fold residual.
    return decoded;
  }
  size_t budget = cache_bytes_limit_.load(std::memory_order_relaxed);
  // A shard that cannot fit the budget must not flush everyone else
  // on every decode: it is returned for this call, not retained,
  // nothing is evicted for it, and it is marked uncacheable so the
  // decode is not endlessly repeated and discarded.
  if (decoded->bytes > budget) {
    cache_miss_credit_[shard] = kUncacheable;
    return decoded;
  }
  cache_miss_credit_[shard] = 0;
  EvictShardsLocked(budget - decoded->bytes);
  cache_slots_[shard] = decoded;
  cache_last_use_[shard] = ++cache_tick_;
  cache_bytes_used_ += decoded->bytes;
  return decoded;
}

// SerializeV2 rebuilds the container from the per-shard payload bytes
// each call (deterministic, so repeated calls are byte-identical)
// instead of caching a second full copy of the compressed bytes for
// the rep's lifetime; ByteSize computes the exact container size
// arithmetically without materializing anything. Both are safe to call
// concurrently on a shared rep and never fault a shard — locally
// backed payload bytes are already at hand; source-only (remote)
// shards are fetched through the source, and any fetch failure yields
// an empty result (an empty buffer never parses as a container, so
// the failure stays closed).
std::vector<uint8_t> ShardedRep::Serialize() const { return SerializeV2(); }

std::vector<uint8_t> ShardedRep::SerializeV2() const {
  V2Encoder out(inner_name_, num_nodes_, entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (!entry.has_payload()) {
      out.AddShard(entry.nodes, ByteSpan(), 0);
      continue;
    }
    // The per-shard fault mutex upholds ShardSource's contract
    // (FetchShard is never called concurrently for one shard) when a
    // serialize races a query faulting the same shard.
    std::vector<uint8_t> fetched;
    MutexLock shard_lock(fault_mutexes_[i]);
    auto verified = VerifiedPayload(i, &fetched);
    if (!verified.ok()) return {};
    // VerifiedPayload just checked the bytes against this checksum;
    // folded shards carry their fold-time one (the base entry's no
    // longer matches the bytes).
    const FoldedShard* folded = FoldedFor(i);
    out.AddShard(entry.nodes, verified.value(),
                 folded != nullptr ? folded->checksum : entry.checksum);
  }
  return std::move(out).Finish();
}

size_t ShardedRep::ByteSize() const {
  // Magic, directory head, trailer; then per shard its directory row
  // and node map plus its payload.
  size_t size = 8 + 1 + inner_name_.size() + 8 + 4 + kV2TrailerBytes;
  for (size_t s = 0; s < entries_.size(); ++s) {
    const FoldedShard* folded = FoldedFor(s);
    size += kV2RowBytes + NodeMapBytes(entries_[s].nodes) +
            (folded != nullptr ? folded->payload.size()
                               : static_cast<size_t>(entries_[s].length));
  }
  return size;
}

Result<Hypergraph> ShardedRep::Decompress() const {
  // Holding fold_mu_ keeps the folded-shard set stable for the whole
  // walk, so the residual overlay snapshot below is exactly the set of
  // edits the shard payloads do NOT contain — a fold publishing
  // mid-walk would otherwise double-apply its adds.
  MutexLock fold_lock(fold_mu_);
  std::shared_ptr<const DeltaOverlay> overlay;
  {
    MutexLock lock(overlay_mu_);
    if (overlay_ != nullptr && !overlay_->empty()) overlay = overlay_;
  }
  size_t count = entries_.size();
  // A full decompression walks every payload front to back: tell the
  // kernel so readahead runs ahead of the workers. Restored to
  // MADV_NORMAL on every exit path so a long-lived rep's later
  // point-query faults are not stuck with sequential readahead.
  struct SequentialHint {
    ShardSource* source;
    ~SequentialHint() {
      // Best effort: a failed madvise only costs readahead tuning.
      if (source != nullptr) (void)source->AdviseNormal();
    }
  } hint{nullptr};
  uint64_t hinted = source_->AdviseSequential();
  if (hinted > 0) {
    stat_hinted_.fetch_add(hinted, std::memory_order_relaxed);
    hint.source = source_.get();
  }
  // Sentinel status keeps Result's value-or-error contract honest for
  // slots the workers never fill (edgeless shards with no payload).
  std::vector<Result<Hypergraph>> locals(
      count, Status::Internal("shard not decompressed"));

  RunIndexedOnPool(count, threads_.load(std::memory_order_relaxed),
                   [&](size_t i) {
    auto rep = ShardRepFor(i);  // faults lazy shards in parallel
    if (!rep.ok()) {
      locals[i] = rep.status();
    } else if (rep.value() != nullptr) {
      locals[i] = rep.value()->Decompress();
    }
  });

  Hypergraph global(static_cast<uint32_t>(num_nodes()));
  for (size_t i = 0; i < count; ++i) {
    const Entry& entry = entries_[i];
    if (!entry.has_payload()) continue;
    if (!locals[i].ok()) return locals[i].status();
    const Hypergraph& local = locals[i].value();
    if (local.num_nodes() != entry.nodes.size()) {
      return Status::Corruption(
          "shard " + std::to_string(i) +
          " decompressed node count does not match its node map");
    }
    for (const HEdge& edge : local.edges()) {
      Attachments att = edge.att;
      for (NodeId& v : att) {
        if (v >= entry.nodes.size()) {
          return Status::Corruption("shard-local node id out of range");
        }
        v = entry.nodes[v];
      }
      global.AddEdge(edge.label, std::move(att));
    }
  }
  if (overlay != nullptr) {
    // Kills remove every base copy of their pair; adds then contribute
    // exactly the edges the base does not already hold (the logical
    // corpus is a set union, so an add that duplicates a surviving
    // base edge must not produce a second copy).
    global.RemoveEdgesIf([&](const HEdge& e) {
      return e.att.size() == 2 && overlay->IsKilled(e.att[0], e.att[1]);
    });
    const std::vector<DeltaEdge>& adds = overlay->adds();
    std::vector<uint8_t> present(adds.size(), 0);
    for (const HEdge& e : global.edges()) {
      if (e.att.size() != 2) continue;
      DeltaEdge probe{e.att[0], e.att[1], e.label};
      auto it = std::lower_bound(
          adds.begin(), adds.end(), probe,
          [](const DeltaEdge& a, const DeltaEdge& b) {
            return std::tie(a.u, a.v, a.label) < std::tie(b.u, b.v, b.label);
          });
      if (it != adds.end() && *it == probe) {
        present[static_cast<size_t>(it - adds.begin())] = 1;
      }
    }
    for (size_t k = 0; k < adds.size(); ++k) {
      if (present[k]) continue;
      global.AddSimpleEdge(adds[k].u, adds[k].v, adds[k].label);
    }
  }
  return global;
}

namespace {

// The routing rule: `node`'s local id in shard `entry`, or kInvalidNode
// when the shard is edgeless or does not hold the node.
NodeId RouteToShard(const ShardedRep::Entry& entry, uint64_t node) {
  if (!entry.has_payload() || !ShardMayContain(entry.nodes, node)) {
    return kInvalidNode;
  }
  return LocalId(entry.nodes, node);
}

// Grammar-direct lookup in one shard: `local`'s out (or in) neighbors
// from the shard's inner rep, mapped back to global ids and appended
// to *dest. entry.nodes is increasing, so the appended run stays
// sorted and deduplicated.
Status AppendShardNeighbors(const ShardedRep::Entry& entry,
                            const api::CompressedRep& rep, NodeId local,
                            bool out, std::vector<uint64_t>* dest) {
  auto part = out ? rep.OutNeighbors(local) : rep.InNeighbors(local);
  if (!part.ok()) return part.status();
  for (uint64_t u : part.value()) {
    if (u >= entry.nodes.size()) {
      return Status::Corruption("shard neighbor id out of range");
    }
    dest->push_back(entry.nodes[u]);
  }
  return Status::OK();
}

}  // namespace

// Shared routing for Out/InNeighbors: per owning shard either the
// decoded-neighborhood cache (promoting hot shards after repeated
// misses) or a grammar-direct lookup in the inner rep — faulted in on
// first touch — then merge and apply the overlay.
Result<std::vector<uint64_t>> ShardedRep::RoutedNeighbors(uint64_t node,
                                                          bool out) const {
  if (!(inner_capabilities_ & api::kNeighborQueries)) {
    return Status::Unimplemented("inner codec '" + inner_name_ +
                                 "' does not answer neighbor queries");
  }
  GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(node, num_nodes()));
  // Reader protocol (see PublishFolds): the overlay is read before any
  // shard state. A fold that publishes after the snapshot only makes
  // shard views newer, and re-applying the snapshot's edits over a
  // folded view is idempotent.
  std::shared_ptr<const DeltaOverlay> overlay;
  if (has_overlay_.load(std::memory_order_acquire)) {
    overlay = overlay_snapshot();
  }
  std::vector<uint64_t> all;
  for (size_t i = 0; i < entries_.size(); ++i) {
    NodeId local = RouteToShard(entries_[i], node);
    if (local == kInvalidNode) continue;
    auto cached = GetOrDecodeShard(i, 1);
    if (cached != nullptr) {
      stat_hits_.fetch_add(1, std::memory_order_relaxed);
      const auto list = out ? cached->Out(local) : cached->In(local);
      all.insert(all.end(), list.begin(), list.end());
      continue;
    }
    stat_misses_.fetch_add(1, std::memory_order_relaxed);
    auto rep = ShardRepFor(i);
    if (!rep.ok()) return rep.status();
    GREPAIR_RETURN_IF_ERROR(
        AppendShardNeighbors(entries_[i], *rep.value(), local, out, &all));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  if (overlay != nullptr &&
      (out ? overlay->TouchesOut(node) : overlay->TouchesIn(node))) {
    all = out ? overlay->MergeOut(node, std::move(all))
              : overlay->MergeIn(node, std::move(all));
    stat_overlay_merges_.fetch_add(1, std::memory_order_relaxed);
  }
  return all;
}

Result<std::vector<uint64_t>> ShardedRep::OutNeighbors(uint64_t node) const {
  stat_singles_.fetch_add(1, std::memory_order_relaxed);
  return RoutedNeighbors(node, /*out=*/true);
}

Result<std::vector<uint64_t>> ShardedRep::InNeighbors(uint64_t node) const {
  stat_singles_.fetch_add(1, std::memory_order_relaxed);
  return RoutedNeighbors(node, /*out=*/false);
}

Result<bool> ShardedRep::ReachableImpl(uint64_t from, uint64_t to) const {
  if (!(inner_capabilities_ & api::kNeighborQueries)) {
    return Status::Unimplemented(
        "sharded reachability needs an inner codec with neighbor queries");
  }
  GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(from, num_nodes()));
  GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(to, num_nodes()));
  if (from == to) return true;
  // Cross-shard BFS over routed neighbor queries. The visited set is
  // sized by what the search touches, not by the container's
  // (untrusted, possibly huge) num_nodes header — a |V|-sized bitmap
  // would let a 40-byte crafted container allocate 512 MiB per query.
  std::unordered_set<uint64_t> visited{from};
  std::deque<uint64_t> frontier{from};
  while (!frontier.empty()) {
    uint64_t v = frontier.front();
    frontier.pop_front();
    auto out = RoutedNeighbors(v, /*out=*/true);
    if (!out.ok()) return out.status();
    for (uint64_t u : out.value()) {
      if (u == to) return true;
      if (visited.insert(u).second) frontier.push_back(u);
    }
  }
  return false;
}

Result<bool> ShardedRep::Reachable(uint64_t from, uint64_t to) const {
  stat_singles_.fetch_add(1, std::memory_order_relaxed);
  return ReachableImpl(from, to);
}

Result<std::vector<std::vector<uint64_t>>> ShardedRep::OutNeighborsBatch(
    const std::vector<uint64_t>& nodes) const {
  if (!(inner_capabilities_ & api::kNeighborQueries)) {
    return Status::Unimplemented("inner codec '" + inner_name_ +
                                 "' does not answer neighbor queries");
  }
  for (uint64_t node : nodes) {
    GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(node, num_nodes()));
  }
  stat_batch_calls_.fetch_add(1, std::memory_order_relaxed);
  stat_batch_items_.fetch_add(nodes.size(), std::memory_order_relaxed);

  // Overlay snapshot before any shard state (reader protocol; see
  // RoutedNeighbors).
  std::shared_ptr<const DeltaOverlay> overlay;
  if (has_overlay_.load(std::memory_order_acquire)) {
    overlay = overlay_snapshot();
  }

  // Answer each distinct node once; real batch workloads repeat hot
  // nodes, and duplicates are expanded from the unique answers at the
  // end.
  std::vector<uint64_t> uniq(nodes);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  size_t shard_count = entries_.size();
  // Group the unique nodes by owning shard: (unique index, local id)
  // per shard. Vertex-cut shards may share nodes, so one node can
  // appear in several groups.
  std::vector<std::vector<std::pair<size_t, NodeId>>> groups(shard_count);
  std::vector<uint32_t> owner_count(uniq.size(), 0);
  for (size_t u = 0; u < uniq.size(); ++u) {
    for (size_t i = 0; i < shard_count; ++i) {
      NodeId local = RouteToShard(entries_[i], uniq[u]);
      if (local != kInvalidNode) {
        groups[i].emplace_back(u, local);
        ++owner_count[u];
      }
    }
  }

  // Hand the batch's un-faulted shards to the prefetch pool (when one
  // is running) so they warm while earlier shards are queried; the
  // per-shard fault mutex makes the handoff race-free, and workers
  // that lose the race simply find the shard resident.
  std::vector<size_t> cold;
  for (size_t i = 0; i < shard_count; ++i) {
    if (!groups[i].empty() && !ShardResident(i)) cold.push_back(i);
  }
  if (!cold.empty()) {
    MutexLock lock(prefetch_mutex_);
    if (prefetcher_ != nullptr) prefetcher_->Enqueue(cold);
  }

  // Per-shard answers, filled by the pool workers into per-shard
  // slots and merged single-threaded afterwards, so the result is
  // byte-identical for every thread count. For shards served from the
  // decoded-neighborhood cache the worker only records the cache
  // handle; the merge reads the lists in place.
  std::vector<std::vector<std::vector<uint64_t>>> partial(shard_count);
  std::vector<std::shared_ptr<const ShardNeighborhoods>> used_cache(
      shard_count);
  std::vector<Status> shard_status(shard_count, Status::OK());
  RunIndexedOnPool(shard_count,
                   threads_.load(std::memory_order_relaxed),
                   [&](size_t i) {
    if (groups[i].empty()) return;
    used_cache[i] = GetOrDecodeShard(i, groups[i].size());
    if (used_cache[i] != nullptr) {
      stat_hits_.fetch_add(groups[i].size(), std::memory_order_relaxed);
      return;
    }
    stat_misses_.fetch_add(groups[i].size(), std::memory_order_relaxed);
    auto rep = ShardRepFor(i);
    if (!rep.ok()) {
      shard_status[i] = rep.status();
      return;
    }
    partial[i].resize(groups[i].size());
    for (size_t k = 0; k < groups[i].size(); ++k) {
      // Sorted and deduplicated: single-owner answers need no re-sort.
      shard_status[i] =
          AppendShardNeighbors(entries_[i], *rep.value(),
                               groups[i][k].second, /*out=*/true,
                               &partial[i][k]);
      if (!shard_status[i].ok()) return;
    }
  });
  for (size_t i = 0; i < shard_count; ++i) {
    if (!shard_status[i].ok()) return shard_status[i];
  }

  // Merge the per-shard contributions per unique node (shards in
  // fixed order). Single-owner nodes copy their already-sorted list;
  // only genuinely cut nodes pay a sort + dedup.
  std::vector<std::vector<uint64_t>> uniq_results(uniq.size());
  for (size_t i = 0; i < shard_count; ++i) {
    for (size_t k = 0; k < groups[i].size(); ++k) {
      size_t u = groups[i][k].first;
      const uint64_t* list_begin;
      const uint64_t* list_end;
      if (used_cache[i] != nullptr) {
        const auto span = used_cache[i]->Out(groups[i][k].second);
        list_begin = span.begin();
        list_end = span.end();
      } else {
        list_begin = partial[i][k].data();
        list_end = list_begin + partial[i][k].size();
      }
      auto& dest = uniq_results[u];
      dest.insert(dest.end(), list_begin, list_end);
    }
  }
  for (size_t u = 0; u < uniq.size(); ++u) {
    if (owner_count[u] > 1) {
      auto& list = uniq_results[u];
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    if (overlay != nullptr && overlay->TouchesOut(uniq[u])) {
      uniq_results[u] =
          overlay->MergeOut(uniq[u], std::move(uniq_results[u]));
      stat_overlay_merges_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::vector<uint64_t>> results(nodes.size());
  for (size_t j = 0; j < nodes.size(); ++j) {
    size_t u = static_cast<size_t>(
        std::lower_bound(uniq.begin(), uniq.end(), nodes[j]) -
        uniq.begin());
    results[j] = uniq_results[u];
  }
  return results;
}

Result<std::vector<uint8_t>> ShardedRep::ReachableBatch(
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) const {
  if (!(inner_capabilities_ & api::kNeighborQueries)) {
    return Status::Unimplemented(
        "sharded reachability needs an inner codec with neighbor queries");
  }
  for (const auto& [from, to] : pairs) {
    GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(from, num_nodes()));
    GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(to, num_nodes()));
  }
  stat_batch_calls_.fetch_add(1, std::memory_order_relaxed);
  stat_batch_items_.fetch_add(pairs.size(), std::memory_order_relaxed);

  std::vector<uint8_t> results(pairs.size(), 0);
  std::vector<Status> pair_status(pairs.size(), Status::OK());
  RunIndexedOnPool(pairs.size(),
                   threads_.load(std::memory_order_relaxed),
                   [&](size_t k) {
    auto r = ReachableImpl(pairs[k].first, pairs[k].second);
    if (!r.ok()) {
      pair_status[k] = r.status();
      return;
    }
    results[k] = r.value() ? 1 : 0;
  });
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (!pair_status[k].ok()) return pair_status[k];
  }
  return results;
}

api::QueryStats ShardedRep::query_stats() const {
  api::QueryStats stats;
  stats.single_queries = stat_singles_.load(std::memory_order_relaxed);
  stats.batch_calls = stat_batch_calls_.load(std::memory_order_relaxed);
  stats.batch_items = stat_batch_items_.load(std::memory_order_relaxed);
  stats.cache_hits = stat_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = stat_misses_.load(std::memory_order_relaxed);
  stats.shard_decodes = stat_decodes_.load(std::memory_order_relaxed);
  stats.cache_evictions = stat_evictions_.load(std::memory_order_relaxed);
  stats.shard_faults = stat_faults_.load(std::memory_order_relaxed);
  stats.shards_prefetched =
      stat_prefetched_.load(std::memory_order_relaxed);
  stats.bytes_hinted = stat_hinted_.load(std::memory_order_relaxed);
  // Network/pool/tier counters live with the source stack: the rep
  // cannot tell an SSD-warm hit from a WAN fetch, but the sources can.
  source_->AddStats(&stats);
  stats.overlay_merges =
      stat_overlay_merges_.load(std::memory_order_relaxed);
  stats.shard_folds = stat_shard_folds_.load(std::memory_order_relaxed);
  stats.folded_edits = stat_folded_edits_.load(std::memory_order_relaxed);
  {
    MutexLock lock(overlay_mu_);
    if (overlay_ != nullptr) stats.overlay_edits = overlay_->edit_count();
  }
  {
    MutexLock lock(cache_mutex_);
    stats.cache_bytes_used = cache_bytes_used_;
  }
  // Aggregate the inner reps' memo-table counters (grepair inners
  // build grammar memo tables of their own). Only resident reps are
  // consulted — stats must never fault a shard in.
  for (size_t i = 0; i < entries_.size(); ++i) {
    const FoldedShard* folded = FoldedFor(i);
    const api::CompressedRep* rep =
        folded != nullptr ? folded->rep.get()
                          : lazy_published_[i].load(std::memory_order_acquire);
    if (rep == nullptr) continue;
    api::QueryStats inner = rep->query_stats();
    stats.memo_entries += inner.memo_entries;
    stats.memo_hits += inner.memo_hits;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Mutable corpus: overlay edits, folds, GRSHARD3 deltas

std::shared_ptr<const DeltaOverlay> ShardedRep::overlay_snapshot() const {
  {
    MutexLock lock(overlay_mu_);
    if (overlay_ != nullptr) return overlay_;
  }
  // Clean rep: hand out a shared empty snapshot so callers never
  // branch on null.
  static const std::shared_ptr<const DeltaOverlay>* kEmpty =
      new std::shared_ptr<const DeltaOverlay>(
          DeltaOverlay::Apply(nullptr, {}).ValueOrDie());
  return *kEmpty;
}

Status ShardedRep::ApplyEdits(const std::vector<EdgeEdit>& edits) {
  if (edits.empty()) return Status::OK();
  // fold_mu_ keeps the overlay stable against a concurrent fold's
  // publish (the fold planner snapshots the overlay and swaps in its
  // residual; an edit landing in between would be lost).
  MutexLock fold_lock(fold_mu_);
  uint64_t overlay_bytes = 0;
  {
    MutexLock lock(overlay_mu_);
    auto next = DeltaOverlay::Apply(overlay_.get(), edits);
    if (!next.ok()) return next.status();
    overlay_ = std::move(next).ValueOrDie();
    has_overlay_.store(!overlay_->empty(), std::memory_order_release);
    overlay_bytes = overlay_->ByteSize();
    uint64_t min_nodes = overlay_->min_num_nodes();
    uint64_t cur = total_nodes_.load(std::memory_order_relaxed);
    while (min_nodes > cur &&
           !total_nodes_.compare_exchange_weak(cur, min_nodes,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
    }
  }
  uint64_t budget = overlay_budget_bytes_.load(std::memory_order_relaxed);
  if (budget != ~0ull && overlay_bytes > budget) {
    return FoldOverlayLocked();
  }
  return Status::OK();
}

Status ShardedRep::FoldOverlay() {
  MutexLock fold_lock(fold_mu_);
  return FoldOverlayLocked();
}

Status ShardedRep::FoldOverlayLocked() {
  std::shared_ptr<const DeltaOverlay> snap;
  {
    MutexLock lock(overlay_mu_);
    snap = overlay_;
  }
  if (snap == nullptr || snap->empty()) return Status::OK();

  const size_t shard_count = entries_.size();
  std::vector<std::vector<DeltaPair>> shard_kills(shard_count);
  std::vector<std::vector<DeltaEdge>> shard_adds(shard_count);
  std::vector<DeltaPair> residual_kills;
  std::vector<DeltaEdge> residual_adds;

  // Kill eligibility: a kill folds only into the *unique* shard whose
  // node map holds both endpoints — with the pair resolvable in two or
  // more shards, folding into one would leave another shard's base
  // copy alive and the residual kill gone. No shard holding both
  // endpoints means no base copy exists: the kill is spent (Apply
  // already erased pending adds of the pair).
  for (const DeltaPair& kill : snap->kills()) {
    size_t owner = shard_count;
    int owners = 0;
    for (size_t i = 0; i < shard_count; ++i) {
      if (RouteToShard(entries_[i], kill.u) == kInvalidNode ||
          RouteToShard(entries_[i], kill.v) == kInvalidNode) {
        continue;
      }
      owner = i;
      if (++owners > 1) break;
    }
    if (owners == 0) continue;
    if (owners > 1) {
      residual_kills.push_back(kill);
      continue;
    }
    shard_kills[owner].push_back(kill);
  }

  // Add eligibility: the first shard holding both endpoints takes the
  // edge — unless the pair has a residual kill, in which case the
  // query-time merge (which applies kills to base answers) would
  // re-kill the folded edge; such adds stay residual with their kill.
  // Adds referencing fresh nodes (no shard holds them) stay residual
  // until a future full recompression.
  for (const DeltaEdge& add : snap->adds()) {
    size_t owner = shard_count;
    for (size_t i = 0; i < shard_count; ++i) {
      if (RouteToShard(entries_[i], add.u) == kInvalidNode ||
          RouteToShard(entries_[i], add.v) == kInvalidNode) {
        continue;
      }
      owner = i;
      break;
    }
    bool killed_residual = std::binary_search(
        residual_kills.begin(), residual_kills.end(),
        DeltaPair{add.u, add.v}, [](const DeltaPair& a, const DeltaPair& b) {
          return std::tie(a.u, a.v) < std::tie(b.u, b.v);
        });
    if (owner == shard_count || killed_residual) {
      residual_adds.push_back(add);
      continue;
    }
    shard_adds[owner].push_back(add);
  }

  std::vector<size_t> work;
  for (size_t i = 0; i < shard_count; ++i) {
    if (!shard_kills[i].empty() || !shard_adds[i].empty()) work.push_back(i);
  }
  if (work.empty()) {
    // Only ineligible edits: the residual equals the snapshot minus
    // spent kills. Publishing just that still shrinks the overlay.
    if (residual_kills.size() == snap->kill_count() &&
        residual_adds.size() == snap->add_count()) {
      return Status::OK();  // nothing changed at all
    }
    auto residual = DeltaOverlay::FromRuns(std::move(residual_adds),
                                           std::move(residual_kills));
    if (!residual.ok()) return residual.status();
    PublishFolds({}, std::move(residual).ValueOrDie(),
                 /*replace_all=*/false);
    return Status::OK();
  }

  // Recompress the touched shards on the compression pool. A shard
  // whose fold fails keeps its edits residual (fail-soft, never
  // lossy); the base container file is never touched, so a crash at
  // any point here leaves the on-disk corpus exactly as it was.
  std::vector<std::shared_ptr<FoldedShard>> folded(shard_count);
  RunIndexedOnPool(work.size(), threads_.load(std::memory_order_relaxed),
                   [&](size_t w) {
    size_t i = work[w];
    std::shared_ptr<FoldedShard> out;
    if (FoldOneShard(i, shard_kills[i], shard_adds[i], &out).ok()) {
      folded[i] = std::move(out);
    }
  });

  std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> publish;
  uint64_t folded_edits = 0;
  for (size_t i : work) {
    if (folded[i] != nullptr) {
      publish.emplace_back(i, folded[i]);
      folded_edits += shard_kills[i].size() + shard_adds[i].size();
    } else {
      residual_kills.insert(residual_kills.end(), shard_kills[i].begin(),
                            shard_kills[i].end());
      residual_adds.insert(residual_adds.end(), shard_adds[i].begin(),
                           shard_adds[i].end());
    }
  }
  // Re-sort: failed shards' edits were appended out of order.
  std::sort(residual_kills.begin(), residual_kills.end(),
            [](const DeltaPair& a, const DeltaPair& b) {
              return std::tie(a.u, a.v) < std::tie(b.u, b.v);
            });
  std::sort(residual_adds.begin(), residual_adds.end(),
            [](const DeltaEdge& a, const DeltaEdge& b) {
              return std::tie(a.u, a.v, a.label) <
                     std::tie(b.u, b.v, b.label);
            });
  auto residual = DeltaOverlay::FromRuns(std::move(residual_adds),
                                         std::move(residual_kills));
  if (!residual.ok()) return residual.status();

  size_t fold_count = publish.size();
  PublishFolds(std::move(publish), std::move(residual).ValueOrDie(),
               /*replace_all=*/false);
  stat_shard_folds_.fetch_add(fold_count, std::memory_order_relaxed);
  stat_folded_edits_.fetch_add(folded_edits, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedRep::FoldOneShard(size_t shard,
                                const std::vector<DeltaPair>& kills,
                                const std::vector<DeltaEdge>& adds,
                                std::shared_ptr<FoldedShard>* out) const {
  const Entry& entry = entries_[shard];
  auto rep = ShardRepFor(shard);
  if (!rep.ok()) return rep.status();
  if (rep.value() == nullptr) {
    return Status::Internal("cannot fold into an edgeless shard");
  }
  auto local_r = rep.value()->Decompress();
  if (!local_r.ok()) return local_r.status();
  Hypergraph local = std::move(local_r).ValueOrDie();
  if (local.num_nodes() != entry.nodes.size()) {
    return Status::Corruption(
        "shard " + std::to_string(shard) +
        " decompressed node count does not match its node map");
  }

  if (!kills.empty()) {
    std::vector<std::pair<NodeId, NodeId>> killed;
    killed.reserve(kills.size());
    for (const DeltaPair& k : kills) {
      killed.emplace_back(LocalId(entry.nodes, k.u),
                          LocalId(entry.nodes, k.v));
    }
    std::sort(killed.begin(), killed.end());
    local.RemoveEdgesIf([&](const HEdge& e) {
      return e.att.size() == 2 &&
             std::binary_search(killed.begin(), killed.end(),
                                std::make_pair(e.att[0], e.att[1]));
    });
  }
  // Set semantics: an add that duplicates a surviving local edge must
  // not produce a second copy (the merge rule is a union).
  std::set<std::tuple<NodeId, NodeId, Label>> present;
  for (const HEdge& e : local.edges()) {
    if (e.att.size() == 2) present.insert({e.att[0], e.att[1], e.label});
  }
  for (const DeltaEdge& a : adds) {
    NodeId lu = LocalId(entry.nodes, a.u);
    NodeId lv = LocalId(entry.nodes, a.v);
    if (!present.insert({lu, lv, a.label}).second) continue;
    local.AddSimpleEdge(lu, lv, a.label);
  }

  // The recompression needs an alphabet; the shard payload stores none.
  auto compressed = inner_codec_->Compress(local, InferAlphabet(local),
                                           api::CodecOptions());
  if (!compressed.ok()) return compressed.status();
  auto f = std::make_shared<FoldedShard>();
  f->rep = std::move(compressed).ValueOrDie();
  if (f->rep->num_nodes() != entry.nodes.size()) {
    return Status::Internal("folded shard changed its node count");
  }
  f->payload = f->rep->Serialize();
  if (f->payload.empty()) {
    return Status::Internal("folded shard serialized to nothing");
  }
  f->checksum = HashBytes(f->payload.data(), f->payload.size());
  *out = std::move(f);
  return Status::OK();
}

void ShardedRep::PublishFolds(
    std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
    std::shared_ptr<const DeltaOverlay> residual, bool replace_all) {
  MutexLock lock(overlay_mu_);
  std::vector<uint8_t> changed(entries_.size(), 0);
  for (auto& fold : folds) {
    changed[fold.first] = 1;
    folded_keep_.push_back(fold.second);
    folded_published_[fold.first].store(fold.second.get(),
                                        std::memory_order_release);
  }
  if (replace_all) {
    // Deltas are cumulative against the base: shards the new set does
    // not change revert to their base grammar.
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!changed[i] &&
          folded_published_[i].load(std::memory_order_relaxed) != nullptr) {
        folded_published_[i].store(nullptr, std::memory_order_release);
        changed[i] = 1;  // its cache slot is stale too
      }
    }
  }
  overlay_ = residual;
  has_overlay_.store(residual != nullptr && !residual->empty(),
                     std::memory_order_release);

  MutexLock cache_lock(cache_mutex_);
  // The epoch bump and the slot eviction sit in the same critical
  // section: an in-flight decode of a pre-fold grammar sees the moved
  // epoch at store time and drops its result instead of re-caching
  // stale adjacency behind this invalidation.
  fold_epoch_.fetch_add(1, std::memory_order_release);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!changed[i]) continue;
    if (cache_slots_[i] != nullptr) {
      cache_bytes_used_ -= cache_slots_[i]->bytes;
      cache_slots_[i] = nullptr;
      stat_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    cache_miss_credit_[i] = 0;  // folded payload may now fit the budget
  }
}

Status ShardedRep::ApplyDelta(const DeltaContainer& delta) {
  MutexLock fold_lock(fold_mu_);
  if (delta.base_dir_checksum != directory_checksum_) {
    return Status::Corruption(
        "delta does not bind to this base: directory checksum " +
        HexU64(delta.base_dir_checksum) + " != " +
        HexU64(directory_checksum_));
  }
  if (delta.num_nodes > 0xFFFFFFFFull) {
    return Status::Corruption("delta node count out of range");
  }
  std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> publish;
  for (const DeltaContainer::ChangedShard& shard : delta.shards) {
    if (shard.index >= entries_.size()) {
      return Status::Corruption("delta shard index out of range");
    }
    const Entry& entry = entries_[shard.index];
    if (!entry.has_payload()) {
      return Status::Corruption("delta changes an edgeless shard");
    }
    auto f = std::make_shared<FoldedShard>();
    f->payload = shard.payload;
    f->checksum = shard.checksum;  // verified by DecodeDeltaContainer
    auto rep = inner_codec_->DeserializeSpan(SpanOf(f->payload));
    if (!rep.ok()) return rep.status();
    if (rep.value()->num_nodes() != entry.nodes.size()) {
      return Status::Corruption(
          "delta shard " + std::to_string(shard.index) +
          " node count does not match the base node map");
    }
    f->rep = std::move(rep).ValueOrDie();
    publish.emplace_back(shard.index, std::move(f));
  }
  auto residual = DeltaOverlay::FromRuns(delta.adds, delta.kills);
  if (!residual.ok()) return residual.status();

  uint64_t min_nodes =
      std::max(delta.num_nodes, residual.value()->min_num_nodes());
  uint64_t cur = total_nodes_.load(std::memory_order_relaxed);
  while (min_nodes > cur &&
         !total_nodes_.compare_exchange_weak(cur, min_nodes,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
  PublishFolds(std::move(publish), std::move(residual).ValueOrDie(),
               /*replace_all=*/true);
  return Status::OK();
}

Result<DeltaContainer> ShardedRep::BuildDelta(uint64_t base_hash,
                                              uint64_t base_size) const {
  DeltaContainer out;
  out.base_hash = base_hash;
  out.base_size = base_size;
  out.base_dir_checksum = directory_checksum_;
  out.num_nodes = num_nodes();
  // Folded set and residual change together under overlay_mu_
  // (PublishFolds), so one lock hold captures a consistent pair.
  MutexLock lock(overlay_mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const FoldedShard* f = FoldedFor(i);
    if (f == nullptr) continue;
    DeltaContainer::ChangedShard cs;
    cs.index = static_cast<uint32_t>(i);
    cs.checksum = f->checksum;
    cs.payload = f->payload;
    out.shards.push_back(std::move(cs));
  }
  if (overlay_ != nullptr) {
    out.adds = overlay_->adds();
    out.kills = overlay_->kills();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parsing and inspection

// Shared v2 footer walk: validates magic/trailer/directory checksum
// and hands back the raw directory byte region plus its offset. Every
// failure names expected vs actual sizes. Public because the shard
// server ships exactly this region to remote clients.
Result<ByteSpan> LocateV2DirectoryRegion(ByteSpan bytes,
                                         uint64_t* dir_off_out) {
  if (bytes.size < 8 + kV2TrailerBytes ||
      std::memcmp(bytes.data, kShardContainerMagicV2, 8) != 0) {
    return Status::Corruption(
        "not a sharded v2 container (bad magic or " +
        std::to_string(bytes.size) + " byte(s), need at least " +
        std::to_string(8 + kV2TrailerBytes) + ")");
  }
  ByteSource trailer(
      bytes.subspan(bytes.size - kV2TrailerBytes, kV2TrailerBytes),
      "sharded v2 trailer");
  uint64_t dir_off = 0, dir_len = 0, dir_checksum = 0;
  GREPAIR_RETURN_IF_ERROR(trailer.ReadU64LE(&dir_off));
  GREPAIR_RETURN_IF_ERROR(trailer.ReadU64LE(&dir_len));
  GREPAIR_RETURN_IF_ERROR(trailer.ReadU64LE(&dir_checksum));
  uint64_t body_end = bytes.size - kV2TrailerBytes;
  if (dir_off < 8 || dir_off > body_end || dir_len != body_end - dir_off) {
    return Status::Corruption(
        "sharded v2 directory out of range: offset " +
        std::to_string(dir_off) + " + length " + std::to_string(dir_len) +
        " must end at byte " + std::to_string(body_end) + " of " +
        std::to_string(bytes.size));
  }
  uint64_t actual = HashBytes(bytes.data + dir_off, dir_len);
  if (actual != dir_checksum) {
    return Status::Corruption(
        "sharded v2 directory checksum mismatch (expected " +
        HexU64(dir_checksum) + ", got " + HexU64(actual) + ")");
  }
  *dir_off_out = dir_off;
  return bytes.subspan(dir_off, dir_len);
}

namespace {

// Reads the fixed head of the v2 directory (inner name, node count,
// shard count), bounding both counts.
Status ReadV2DirectoryHead(ByteSource* dir, std::string* inner_name,
                           uint64_t* num_nodes, uint32_t* shard_count) {
  uint8_t name_len = 0;
  GREPAIR_RETURN_IF_ERROR(dir->ReadU8(&name_len));
  if (name_len == 0) {
    return Status::Corruption("sharded v2 container has empty codec name");
  }
  ByteSpan name_span;
  GREPAIR_RETURN_IF_ERROR(dir->ReadSpan(name_len, &name_span));
  inner_name->assign(name_span.begin(), name_span.end());
  GREPAIR_RETURN_IF_ERROR(dir->ReadU64LE(num_nodes));
  GREPAIR_RETURN_IF_ERROR(dir->ReadU32LE(shard_count));
  if (*num_nodes > 0xFFFFFFFFull) {
    return Status::Corruption("sharded container node count out of range");
  }
  if (*shard_count < 1 || *shard_count > kMaxShardCount) {
    return Status::Corruption("sharded container shard count out of range");
  }
  return Status::OK();
}

// One directory row: the fixed fields plus the node-map sub-span.
Status ReadV2DirectoryRow(ByteSource* dir, uint64_t dir_off, size_t shard,
                          ShardDirEntry* row, ByteSpan* map) {
  GREPAIR_RETURN_IF_ERROR(dir->ReadU64LE(&row->offset));
  GREPAIR_RETURN_IF_ERROR(dir->ReadU64LE(&row->length));
  GREPAIR_RETURN_IF_ERROR(dir->ReadU64LE(&row->checksum));
  GREPAIR_RETURN_IF_ERROR(dir->ReadU64LE(&row->node_count));
  uint32_t map_len = 0;
  GREPAIR_RETURN_IF_ERROR(dir->ReadU32LE(&map_len));
  GREPAIR_RETURN_IF_ERROR(dir->ReadSpan(map_len, map));
  if (row->length == 0) {
    // Edgeless shards pin their unused fields to zero so single-bit
    // corruption there cannot hide until (a nonexistent) fault time.
    if (row->offset != 0 || row->checksum != 0) {
      return Status::Corruption(
          "shard " + std::to_string(shard) +
          " is edgeless but has nonzero payload offset/checksum");
    }
    return Status::OK();
  }
  if (row->offset < 8 || row->offset > dir_off ||
      row->length > dir_off - row->offset) {
    return Status::Corruption(
        "shard " + std::to_string(shard) + " payload out of range: offset " +
        std::to_string(row->offset) + " + length " +
        std::to_string(row->length) + " exceeds the payload region [8, " +
        std::to_string(dir_off) + ")");
  }
  return Status::OK();
}

}  // namespace

Result<ParsedDirectory> ParseV2Directory(ByteSpan dir_bytes,
                                         uint64_t dir_off) {
  ByteSource dir(dir_bytes, "sharded v2 directory");
  ParsedDirectory parsed;
  uint32_t shard_count = 0;
  GREPAIR_RETURN_IF_ERROR(ReadV2DirectoryHead(
      &dir, &parsed.inner_name, &parsed.num_nodes, &shard_count));
  for (uint32_t i = 0; i < shard_count; ++i) {
    ShardDirEntry row;
    ByteSpan map;
    GREPAIR_RETURN_IF_ERROR(ReadV2DirectoryRow(&dir, dir_off, i, &row, &map));
    std::vector<NodeId> nodes;
    ByteSource map_src(map, "shard " + std::to_string(i) + " node map");
    GREPAIR_RETURN_IF_ERROR(DecodeNodeMap(&map_src, row.node_count,
                                          parsed.num_nodes, &nodes));
    GREPAIR_RETURN_IF_ERROR(map_src.ExpectExhausted("node map"));
    parsed.rows.push_back(row);
    parsed.node_maps.push_back(std::move(nodes));
  }
  GREPAIR_RETURN_IF_ERROR(dir.ExpectExhausted("sharded v2 directory"));
  // The corpus version identity: equals the v2 trailer's checksum for
  // a local file (LocateV2DirectoryRegion just verified that), and is
  // the independent recomputation over the shipped region for a
  // remote directory. GRSHARD3 deltas bind to this value.
  parsed.dir_checksum = HashBytes(dir_bytes.data, dir_bytes.size);
  return parsed;
}

namespace {

// The local payload source: pins the mmap (or the owned buffer) a v2
// container was opened over and hands out borrowed views. The remote
// twin lives in src/net/remote_source.{h,cc}.
class LocalShardSource : public ShardSource {
 public:
  LocalShardSource(std::shared_ptr<MmapFile> file,
                   std::shared_ptr<std::vector<uint8_t>> owned,
                   std::vector<ByteSpan> payloads)
      : file_(std::move(file)),
        owned_(std::move(owned)),
        payloads_(std::move(payloads)) {}

  const char* kind() const override {
    return file_ != nullptr && file_->is_mapped() ? "local-mmap"
                                                  : "local-heap";
  }

  Result<ByteSpan> FetchShard(size_t shard,
                              std::vector<uint8_t>* owned) override {
    (void)owned;  // the backing store outlives the rep; no copy needed
    if (shard >= payloads_.size()) {
      return Status::Internal("shard index out of range in local source");
    }
    return payloads_[shard];
  }

  uint64_t AdviseShard(size_t shard) override {
    if (file_ == nullptr || shard >= payloads_.size()) return 0;
    ByteSpan payload = payloads_[shard];
    if (payload.size == 0) return 0;
    ByteSpan map = file_->span();
    if (payload.data < map.data || payload.data + payload.size >
                                       map.data + map.size) {
      return 0;  // heap-owned container bytes: nothing to madvise
    }
    return file_->AdviseWillNeed(
        static_cast<size_t>(payload.data - map.data), payload.size);
  }

  uint64_t AdviseSequential() override {
    return file_ != nullptr ? file_->AdviseSequential() : 0;
  }

  uint64_t AdviseNormal() override {
    return file_ != nullptr ? file_->AdviseNormal() : 0;
  }

 private:
  std::shared_ptr<MmapFile> file_;
  std::shared_ptr<std::vector<uint8_t>> owned_;
  std::vector<ByteSpan> payloads_;
};

}  // namespace

Result<std::unique_ptr<ShardedRep>> ShardedRep::ParseV2(
    ByteSpan bytes, std::shared_ptr<MmapFile> file,
    std::shared_ptr<std::vector<uint8_t>> owned) {
  GREPAIR_RETURN_IF_ERROR(CheckContainerMagic(bytes));
  uint64_t dir_off = 0;
  auto region = LocateV2DirectoryRegion(bytes, &dir_off);
  if (!region.ok()) return region.status();
  auto dir = ParseV2Directory(region.value(), dir_off);
  if (!dir.ok()) return dir.status();

  std::vector<ByteSpan> payloads;
  for (const ShardDirEntry& row : dir.value().rows) {
    payloads.push_back(row.length > 0 ? bytes.subspan(row.offset, row.length)
                                      : ByteSpan());
  }
  auto rep = OpenFromSource(
      std::make_shared<LocalShardSource>(std::move(file), std::move(owned),
                                         payloads),
      std::move(dir).ValueOrDie());
  if (!rep.ok()) return rep.status();
  for (size_t i = 0; i < payloads.size(); ++i) {
    rep.value()->entries_[i].view = payloads[i];
  }
  return rep;
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::OpenFromSource(
    std::shared_ptr<ShardSource> source, ParsedDirectory dir) {
  if (source == nullptr) {
    return Status::InvalidArgument("OpenFromSource needs a source");
  }
  GREPAIR_RETURN_IF_ERROR(RejectNestedInner(dir.inner_name));
  if (dir.rows.size() != dir.node_maps.size() || dir.rows.empty() ||
      dir.rows.size() > kMaxShardCount) {
    return Status::Corruption("sharded directory shard count out of range");
  }
  auto inner = api::CodecRegistry::Create(dir.inner_name);
  if (!inner.ok()) return inner.status();
  return std::unique_ptr<ShardedRep>(new ShardedRep(
      std::move(inner).ValueOrDie(), std::move(source), std::move(dir)));
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::Deserialize(
    const std::vector<uint8_t>& bytes) {
  return Deserialize(SpanOf(bytes));
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::Deserialize(ByteSpan bytes) {
  return Deserialize(bytes.ToVector());
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::Deserialize(
    std::vector<uint8_t>&& bytes) {
  // An unmapped buffer becomes the owned backing store the payload
  // views borrow from for the rep's lifetime.
  auto owned = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
  ByteSpan span = SpanOf(*owned);
  return ParseV2(span, nullptr, std::move(owned));
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::Open(
    std::shared_ptr<MmapFile> file, ByteSpan bytes) {
  return ParseV2(bytes, std::move(file), nullptr);
}

Result<ShardContainerInfo> ShardedRep::Inspect(ByteSpan bytes) {
  GREPAIR_RETURN_IF_ERROR(CheckContainerMagic(bytes));
  uint64_t dir_off = 0;
  auto region = LocateV2DirectoryRegion(bytes, &dir_off);
  if (!region.ok()) return region.status();
  // Row walk only — the node-map bits are length-prefixed and skipped
  // undecoded, so `info` stays O(directory), not O(nodes).
  ShardContainerInfo info;
  ByteSource dir(region.value(), "sharded v2 directory");
  uint32_t shard_count = 0;
  GREPAIR_RETURN_IF_ERROR(ReadV2DirectoryHead(&dir, &info.inner_name,
                                              &info.num_nodes, &shard_count));
  for (uint32_t i = 0; i < shard_count; ++i) {
    ShardDirEntry row;
    ByteSpan map;
    GREPAIR_RETURN_IF_ERROR(ReadV2DirectoryRow(&dir, dir_off, i, &row, &map));
    info.shards.push_back(row);
  }
  GREPAIR_RETURN_IF_ERROR(dir.ExpectExhausted("sharded v2 directory"));
  return info;
}

// ---------------------------------------------------------------------------
// ShardedCodec

ShardedCodec::ShardedCodec(std::string inner_name)
    : inner_name_(std::move(inner_name)), name_("sharded:" + inner_name_) {
  auto inner = api::CodecRegistry::Create(inner_name_);
  if (inner.ok()) inner_ = std::move(inner).ValueOrDie();
}

ShardedCodec::ShardedCodec(std::string inner_name,
                           std::unique_ptr<api::GraphCodec> inner)
    : inner_name_(std::move(inner_name)),
      name_("sharded:" + inner_name_),
      inner_(std::move(inner)) {}

uint32_t ShardedCodec::capabilities() const {
  if (inner_ == nullptr) return 0;
  uint32_t caps = inner_->capabilities();
  // Cross-shard BFS turns inner neighbor queries into reachability.
  if (caps & api::kNeighborQueries) caps |= api::kReachabilityQueries;
  return caps;
}

Result<std::unique_ptr<api::CompressedRep>> ShardedCodec::Compress(
    const Hypergraph& graph, const Alphabet& alphabet,
    const api::CodecOptions& options) const {
  if (inner_name_.size() > 255) {
    // The container stores the name length as one byte; a longer name
    // would serialize into a self-corrupt container.
    return Status::InvalidArgument(
        "inner codec name exceeds 255 bytes: " + inner_name_);
  }
  if (inner_ == nullptr) {
    return Status::NotFound("no codec named '" + inner_name_ + "'");
  }

  PartitionOptions part_options;
  int threads = 0;
  api::CodecOptions inner_options;
  for (const auto& [key, value] : options.entries()) {
    if (key == "shards" || key == "threads") continue;
    inner_options.Set(key, value);
  }
  auto shards = options.GetInt("shards", part_options.num_shards);
  if (!shards.ok()) return shards.status();
  if (shards.value() < 1 || shards.value() > kMaxShards) {
    return Status::InvalidArgument("option shards out of range [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  part_options.num_shards = static_cast<int>(shards.value());
  auto threads_opt = options.GetInt("threads", 0);
  if (!threads_opt.ok()) return threads_opt.status();
  if (threads_opt.value() < 0 || threads_opt.value() > 256) {
    return Status::InvalidArgument("option threads out of range [0, 256]");
  }
  threads = static_cast<int>(threads_opt.value());
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = static_cast<int>(
        std::min<unsigned>(std::max(1u, hw),
                           static_cast<unsigned>(part_options.num_shards)));
  }

  GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
  auto partition = PartitionGraph(graph, part_options);
  if (!partition.ok()) return partition.status();

  ParallelCompressor compressor(*inner_, threads);
  auto payloads = compressor.CompressShards(partition.value(), alphabet,
                                            inner_options);
  if (!payloads.ok()) return payloads.status();

  // Encode the container and open it like any other GRSHARD2 bytes, so
  // a fresh rep is exactly the rep its serialized form opens to.
  const std::vector<Shard>& parts = partition.value().shards;
  V2Encoder encoder(inner_name_, graph.num_nodes(), parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    ByteSpan payload = SpanOf(payloads.value()[i]);
    encoder.AddShard(parts[i].nodes, payload,
                     HashBytes(payload.data, payload.size));
  }
  return ShardedRep::Deserialize(std::move(encoder).Finish());
}

Result<std::unique_ptr<api::CompressedRep>> ShardedCodec::Deserialize(
    const std::vector<uint8_t>& bytes) const {
  return DeserializeSpan(SpanOf(bytes));
}

Result<std::unique_ptr<api::CompressedRep>> ShardedCodec::DeserializeSpan(
    ByteSpan bytes) const {
  // Copies the span once into the rep's owned backing store (the lazy
  // views must outlive this call).
  auto rep = ShardedRep::Deserialize(bytes);
  if (!rep.ok()) return rep.status();
  if (rep.value()->inner_name() != inner_name_) {
    return Status::InvalidArgument(
        "container was produced by 'sharded:" + rep.value()->inner_name() +
        "', not '" + name_ + "'");
  }
  return rep;
}

}  // namespace shard
}  // namespace grepair
