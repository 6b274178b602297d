#include "src/shard/shard_store.h"

#include <algorithm>
#include <string>

#include "src/shard/parallel_compressor.h"
#include "src/util/hashing.h"

namespace grepair {
namespace shard {

namespace {

// A call putting at least this many nodes on a shard decodes it
// immediately; fewer go through the rent rule (ShardStore::Answer).
constexpr size_t kBatchDecodeThreshold = 2;

// Rent sentinel for a shard whose decoded form does not fit the budget
// or whose decode failed: never try decoding it again (until the
// budget changes or a publish replaces it), or every promotion would
// pay a whole-shard decode just to discard it. Charges saturate one
// below it.
constexpr uint64_t kUncacheable = ~0ull;

// What the cache charges for a decoded shard of `n` nodes and `edges`
// rank-2 edges: its buffer of 2·(n+1) + 2·edges words plus one word of
// slack, and at least 64 B. Given all of val(G)'s edges, of which the
// buffer holds the rank-2 ones, it bounds the charge before the decode.
// `n` fits 32 bits; a crafted grammar's edge count can near 2^64.
size_t NeighborhoodBytes(uint64_t n, uint64_t edges) {
  if (edges > (1ull << 58)) return ~size_t{0};
  const uint64_t words = 2 * (n + 1) + 2 * edges + 1;
  return std::max<size_t>(64, words * sizeof(uint64_t));
}

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

}  // namespace

std::shared_ptr<const ShardNeighborhoods> DecodeNeighborhoods(
    const std::vector<NodeId>& nodes, const CompressedGraph& graph) {
  size_t n = nodes.size();
  if (graph.num_nodes() != n) return nullptr;

  // Counting pass, fed straight from the grammar's edge stream (no
  // Hypergraph is built): per-node degrees (and validation), so the
  // buffer can be sized exactly and the whole decoded form costs one
  // allocation.
  std::vector<uint64_t> out_deg(n + 1, 0), in_deg(n + 1, 0);
  std::vector<std::pair<NodeId, NodeId>> edges;
  bool in_range = true;
  Status streamed = graph.ForEachRank2Edge([&](NodeId u, NodeId v) {
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

  auto sn = std::make_shared<ShardNeighborhoods>();
  sn->words.reset(new uint64_t[2 * (n + 1) + 2 * total]);
  uint64_t* out_off = sn->words.get();
  uint64_t* in_off = out_off + (n + 1);
  uint64_t* out_data = in_off + (n + 1);
  uint64_t* in_data = out_data + total;
  out_off[0] = in_off[0] = 0;
  for (size_t u = 0; u < n; ++u) {
    out_off[u + 1] = out_off[u] + out_deg[u + 1];
    in_off[u + 1] = in_off[u] + in_deg[u + 1];
  }

  // Fill pass: reuse the degree arrays as write cursors.
  std::copy(out_off, out_off + n, out_deg.begin());
  std::copy(in_off, in_off + n, in_deg.begin());
  for (const auto& [u, v] : edges) {
    out_data[out_deg[u]++] = nodes[v];
    in_data[in_deg[v]++] = nodes[u];
  }

  SortDedupCompact(out_off, out_data, n);
  SortDedupCompact(in_off, in_data, n);
  sn->out_off = out_off;
  sn->in_off = in_off;
  sn->out_data = out_data;
  sn->in_data = in_data;
  sn->bytes = NeighborhoodBytes(n, total);
  return sn;
}

Result<CompressedGraph> DecodeShardPayload(ByteSpan bytes) {
  auto graph = CompressedGraph::Deserialize(bytes);
  if (!graph.ok()) return graph.status();
  if (!graph.value().has_original_ids() && graph.value().num_nodes() > 0) {
    return Status::Corruption(
        "grepair payload carries no node mapping (psi'); recompress it");
  }
  return graph;
}

// ---------------------------------------------------------------------------
// OwnerIndex

OwnerIndex::OwnerIndex(const std::vector<ShardEntry>& entries) {
  size_t total = 0;
  uint64_t max_id = 0;
  for (const ShardEntry& entry : entries) {
    if (!entry.has_payload() || entry.nodes.empty()) continue;
    total += entry.nodes.size();
    max_id = std::max<uint64_t>(max_id, entry.nodes.back());
  }
  if (total == 0) return;
  // The fewest bits to drop for at most total + 1 buckets: the index is
  // sized by the maps, never by the (untrusted) node count.
  while ((max_id >> shift_) > total) ++shift_;
  const size_t buckets = static_cast<size_t>(max_id >> shift_) + 1;

  // Counting sort: per id while the ids span at most four times the
  // entries (a transient 16 B per entry at most), else per bucket.
  // Filling back to front leaves start[k] at key k's first slot and an
  // id's owners in shard order.
  const unsigned key_shift = shift_ <= 2 ? 0 : shift_;
  std::vector<uint32_t> start((max_id >> key_shift) + 2, 0);
  for (const ShardEntry& entry : entries) {
    if (!entry.has_payload()) continue;
    for (NodeId id : entry.nodes) ++start[id >> key_shift];
  }
  for (size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  // Every slot is written below, so none is initialized first.
  owners_.reset(new ShardOwner[total]);
  for (size_t s = entries.size(); s-- > 0;) {
    const ShardEntry& entry = entries[s];
    if (!entry.has_payload()) continue;
    for (size_t local = entry.nodes.size(); local-- > 0;) {
      const NodeId id = entry.nodes[local];
      owners_[--start[id >> key_shift]] =
          ShardOwner{id, static_cast<uint32_t>(s), static_cast<NodeId>(local)};
    }
  }
  if (key_shift == shift_) {
    bucket_start_ = std::move(start);
  } else {
    bucket_start_.reserve(buckets + 1);
    for (size_t b = 0; b < buckets; ++b) {
      bucket_start_.push_back(start[b << shift_]);
    }
    bucket_start_.push_back(static_cast<uint32_t>(total));
  }
  if (key_shift == 0) return;
  // Sparse maps: a bucket spans 2^shift ids. Order it by id, keeping
  // shard order among an id's owners.
  for (size_t b = 0; b < buckets; ++b) {
    ShardOwner* lo = owners_.get() + bucket_start_[b];
    ShardOwner* hi = owners_.get() + bucket_start_[b + 1];
    std::sort(lo, hi, [](const ShardOwner& x, const ShardOwner& y) {
      return x.global != y.global ? x.global < y.global : x.shard < y.shard;
    });
  }
}

// ---------------------------------------------------------------------------
// ShardStore

ShardStore::ShardStore(std::shared_ptr<ShardSource> source,
                       std::vector<ShardEntry> entries)
    : entries_(std::move(entries)),
      source_(std::move(source)),
      slots_(new Slot[entries_.size()]),
      cache_(entries_.size()) {}

Result<ByteSpan> ShardStore::VerifiedPayload(
    size_t shard, std::vector<uint8_t>* owned) const {
  // A folded shard's bytes supersede the base container's: they were
  // produced (and hashed) locally, and stay alive for the store's
  // lifetime.
  if (const FoldedShard* folded = Folded(shard)) {
    ByteSpan payload = SpanOf(folded->payload);
    uint64_t actual = HashBytes(payload.data, payload.size);
    if (actual != folded->checksum) {
      return Status::Corruption("folded shard " + std::to_string(shard) +
                                " payload checksum mismatch");
    }
    return payload;
  }
  const ShardEntry& entry = entries_[shard];
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

Result<const CompressedGraph*> ShardStore::Graph(size_t shard,
                                                 bool* faulted) const {
  if (faulted != nullptr) *faulted = false;
  // Folded grammar first: once a fold has recompressed this shard,
  // its graph is the shard's truth (base payload + folded edits).
  if (const FoldedShard* folded = Folded(shard)) {
    return static_cast<const CompressedGraph*>(folded->graph.get());
  }
  const ShardEntry& entry = entries_[shard];
  if (!entry.has_payload()) {
    return static_cast<const CompressedGraph*>(nullptr);  // edgeless
  }
  // Lock-free resident fast path: hot shards cost one acquire-load per
  // touch.
  Slot& slot = slots_[shard];
  if (const CompressedGraph* published =
          slot.published.load(std::memory_order_acquire)) {
    return published;
  }
  // Fault path: per-shard mutex so concurrent touches of one shard
  // deserialize (and, for remote sources, fetch) it exactly once
  // while other shards fault in parallel.
  MutexLock lock(slot.fault_mutex);
  if (slot.base != nullptr) {
    return static_cast<const CompressedGraph*>(slot.base.get());
  }
  std::vector<uint8_t> fetched;
  auto payload = VerifiedPayload(shard, &fetched);
  if (!payload.ok()) return payload.status();
  auto graph = DecodeShardPayload(payload.value());
  if (!graph.ok()) return graph.status();
  if (graph.value().num_nodes() != entry.nodes.size()) {
    return Status::Corruption(
        "shard " + std::to_string(shard) + " payload node count " +
        std::to_string(graph.value().num_nodes()) +
        " does not match its node map (" +
        std::to_string(entry.nodes.size()) + ")");
  }
  stat_faults_.fetch_add(1, std::memory_order_relaxed);
  if (faulted != nullptr) *faulted = true;
  slot.base = std::make_unique<const CompressedGraph>(
      std::move(graph).ValueOrDie());
  slot.published.store(slot.base.get(), std::memory_order_release);
  return static_cast<const CompressedGraph*>(slot.base.get());
}

size_t ShardStore::PayloadSize(size_t shard) const {
  const FoldedShard* folded = Folded(shard);
  return folded != nullptr ? folded->payload.size()
                           : static_cast<size_t>(entries_[shard].length);
}

bool ShardStore::EncodeShards(V2Encoder* out) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const ShardEntry& entry = entries_[i];
    if (!entry.has_payload()) {
      out->AddShard(entry.nodes, ByteSpan(), 0);
      continue;
    }
    // The per-shard fault mutex upholds ShardSource's contract
    // (FetchShard is never called concurrently for one shard) when an
    // encode races a query faulting the same shard.
    std::vector<uint8_t> fetched;
    MutexLock shard_lock(slots_[i].fault_mutex);
    auto verified = VerifiedPayload(i, &fetched);
    if (!verified.ok()) return false;
    // VerifiedPayload just checked the bytes against this checksum;
    // folded shards carry their own (the base entry's no longer
    // matches the bytes).
    const FoldedShard* folded = Folded(i);
    out->AddShard(entry.nodes, verified.value(),
                  folded != nullptr ? folded->checksum : entry.checksum);
  }
  return true;
}

Result<Hypergraph> ShardStore::Decompress(uint64_t num_nodes,
                                          int threads) const {
  // Sentinel status keeps Result's value-or-error contract honest for
  // slots the workers never fill (edgeless shards with no payload).
  std::vector<Result<Hypergraph>> locals(
      entries_.size(), Status::Internal("shard not decompressed"));
  RunIndexedOnPool(entries_.size(), threads, [&](size_t i) {
    auto graph = Graph(i);  // faults lazy shards in parallel
    if (!graph.ok()) {
      locals[i] = graph.status();
    } else if (graph.value() != nullptr) {
      locals[i] = graph.value()->Decompress();
    }
  });

  Hypergraph global(static_cast<uint32_t>(num_nodes));
  for (size_t i = 0; i < locals.size(); ++i) {
    const ShardEntry& entry = entries_[i];
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
  return global;
}

// ---------------------------------------------------------------------------
// Prefetch

void ShardStore::Prefetch(const std::vector<size_t>& shards,
                          int threads) const {
  RunIndexedOnPool(shards.size(), threads, [&](size_t k) {
    if (shards[k] >= entries_.size()) return;
    bool faulted = false;
    (void)Graph(shards[k], &faulted);  // errors resurface on the query
    if (faulted) stat_prefetched_.fetch_add(1, std::memory_order_relaxed);
  });
}

void ShardStore::PrefetchAll(int threads) const {
  std::vector<size_t> all;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].has_payload()) all.push_back(i);
  }
  Prefetch(all, threads);
}

// ---------------------------------------------------------------------------
// Decoded-neighborhood cache

void ShardStore::EvictLocked(size_t target) const {
  while (cache_bytes_used_ > target) {
    CacheSlot* victim = nullptr;
    for (CacheSlot& slot : cache_) {
      if (slot.decoded != nullptr &&
          (victim == nullptr || slot.last_use < victim->last_use)) {
        victim = &slot;
      }
    }
    if (victim == nullptr) break;
    cache_bytes_used_ -= victim->decoded->bytes;
    victim->decoded = nullptr;
    stat_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardStore::set_query_cache_bytes(size_t bytes) {
  cache_bytes_limit_.store(bytes, std::memory_order_relaxed);
  // Shrink to the new budget immediately, LRU first, and let
  // previously uncacheable shards try again under the new budget.
  MutexLock lock(cache_mutex_);
  EvictLocked(bytes);
  for (CacheSlot& slot : cache_) slot.rent = 0;
}

Result<ShardAnswer> ShardStore::Answer(size_t shard, const NodeId* locals,
                                       size_t count, bool out) const {
  ShardAnswer answer;
  answer.locals_ = locals;
  answer.out_ = out;
  const bool caching =
      cache_bytes_limit_.load(std::memory_order_relaxed) != 0;
  bool buy = false;
  if (caching) {
    MutexLock lock(cache_mutex_);
    CacheSlot& slot = cache_[shard];
    if (slot.decoded != nullptr) {
      slot.last_use = ++cache_tick_;
      answer.decoded_ = slot.decoded;
    } else if (slot.rent != kUncacheable) {
      // Rent or buy: a decode costs about one grammar-direct lookup per
      // node-map entry, so a shard that only single queries touch is
      // bought once the lookups it rented have cost that much.
      buy = count >= kBatchDecodeThreshold ||
            slot.rent >= entries_[shard].nodes.size();
    }
  }
  if (buy) answer.decoded_ = Buy(shard);
  if (answer.decoded_ != nullptr) {
    stat_hits_.fetch_add(count, std::memory_order_relaxed);
    return answer;
  }

  stat_misses_.fetch_add(count, std::memory_order_relaxed);
  auto graph = Graph(shard);
  if (!graph.ok()) return graph.status();
  const std::vector<NodeId>& nodes = entries_[shard].nodes;
  uint64_t cost = 0;
  answer.ends_.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    std::vector<uint64_t> part = out ? graph.value()->OutNeighbors(locals[k])
                                     : graph.value()->InNeighbors(locals[k]);
    // nodes is increasing, so the mapped list stays sorted and unique.
    for (uint64_t& u : part) {
      if (u >= nodes.size()) {
        return Status::Corruption("shard neighbor id out of range");
      }
      u = nodes[u];
    }
    cost += 1 + part.size();
    if (answer.ids_.empty()) {
      answer.ids_ = std::move(part);
    } else {
      answer.ids_.insert(answer.ids_.end(), part.begin(), part.end());
    }
    answer.ends_.push_back(answer.ids_.size());
  }
  if (caching) {
    MutexLock lock(cache_mutex_);
    uint64_t& rent = cache_[shard].rent;
    if (rent != kUncacheable) {
      rent = cost < kUncacheable - 1 - rent ? rent + cost : kUncacheable - 1;
    }
  }
  return answer;
}

std::shared_ptr<const ShardNeighborhoods> ShardStore::Buy(
    size_t shard) const {
  // Decode outside the lock: it walks the whole grammar (and may
  // fault the shard in first) and must not serialize concurrent
  // queries on other shards. A racing decode of the same shard wastes
  // work but stays correct (first insert wins). The fold epoch is
  // captured before the graph is resolved: if a Publish lands while we
  // decode, the result below came from the pre-fold grammar and must
  // not be cached past the publish's invalidation.
  uint64_t fold_epoch = fold_epoch_.load(std::memory_order_acquire);
  auto graph = Graph(shard);
  if (!graph.ok() || graph.value() == nullptr) {
    return nullptr;  // fault errors resurface on the grammar-direct path
  }
  // A shard whose decoded form cannot fit the budget is never derived:
  // a few hundred payload bytes can describe billions of edges.
  std::shared_ptr<const ShardNeighborhoods> decoded;
  const ShardEntry& entry = entries_[shard];
  if (NeighborhoodBytes(entry.nodes.size(), graph.value()->num_edges()) <=
      cache_bytes_limit_.load(std::memory_order_relaxed)) {
    decoded = DecodeNeighborhoods(entry.nodes, *graph.value());
    if (decoded != nullptr) {
      stat_decodes_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  MutexLock lock(cache_mutex_);
  CacheSlot& slot = cache_[shard];
  if (slot.decoded != nullptr) return slot.decoded;
  if (fold_epoch_.load(std::memory_order_relaxed) != fold_epoch) {
    // Usable for this call (the caller's overlay snapshot predates the
    // publish, so the pre-fold view merges correctly), but stale for
    // any query that snapshots the post-fold residual.
    return decoded;
  }
  size_t budget = cache_bytes_limit_.load(std::memory_order_relaxed);
  // Not retrying a shard that failed or cannot fit keeps it from
  // flushing everyone else, or paying a decode, on every call. One
  // that outgrew a budget shrunk during the decode is returned for
  // this call, not retained, and nothing is evicted for it.
  if (decoded == nullptr || decoded->bytes > budget) {
    slot.rent = kUncacheable;
    return decoded;
  }
  slot.rent = 0;
  EvictLocked(budget - decoded->bytes);
  slot.decoded = decoded;
  slot.last_use = ++cache_tick_;
  cache_bytes_used_ += decoded->bytes;
  return decoded;
}

void ShardStore::Publish(
    std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
    bool replace_all) {
  std::vector<uint8_t> changed(entries_.size(), 0);
  MutexLock lock(cache_mutex_);
  for (auto& [shard, fold] : folds) {
    changed[shard] = 1;
    slots_[shard].folded.store(fold.get(), std::memory_order_release);
    folded_keep_.push_back(std::move(fold));
  }
  if (replace_all) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!changed[i] && Folded(i) != nullptr) {
        slots_[i].folded.store(nullptr, std::memory_order_release);
        changed[i] = 1;  // its cache slot is stale too
      }
    }
  }
  // The epoch bump and the slot eviction sit in the same critical
  // section: an in-flight decode of a pre-fold grammar sees the moved
  // epoch at store time and drops its result instead of re-caching
  // stale adjacency behind this invalidation.
  fold_epoch_.fetch_add(1, std::memory_order_release);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!changed[i]) continue;
    CacheSlot& slot = cache_[i];
    if (slot.decoded != nullptr) {
      cache_bytes_used_ -= slot.decoded->bytes;
      slot.decoded = nullptr;
      stat_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    slot.rent = 0;  // the new payload may fit the budget
  }
}

void ShardStore::AddStats(api::QueryStats* stats) const {
  stats->cache_hits += stat_hits_.load(std::memory_order_relaxed);
  stats->cache_misses += stat_misses_.load(std::memory_order_relaxed);
  stats->shard_decodes += stat_decodes_.load(std::memory_order_relaxed);
  stats->cache_evictions += stat_evictions_.load(std::memory_order_relaxed);
  stats->shard_faults += stat_faults_.load(std::memory_order_relaxed);
  stats->shards_prefetched +=
      stat_prefetched_.load(std::memory_order_relaxed);
  {
    MutexLock lock(cache_mutex_);
    stats->cache_bytes_used += cache_bytes_used_;
  }
  // Network/pool/tier counters live with the source stack: the store
  // cannot tell an SSD-warm hit from a WAN fetch, but the sources can.
  source_->AddStats(stats);
  // The shard grammars' memo-table counters. Only resident graphs are
  // consulted.
  for (size_t i = 0; i < entries_.size(); ++i) {
    const FoldedShard* folded = Folded(i);
    const CompressedGraph* graph =
        folded != nullptr ? folded->graph.get()
                          : slots_[i].published.load(std::memory_order_acquire);
    if (graph == nullptr) continue;
    stats->memo_entries += graph->memo_entries();
    stats->memo_hits += graph->memo_hits();
  }
}

}  // namespace shard
}  // namespace grepair
