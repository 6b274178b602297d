#include "src/shard/sharded_codec.h"

#include <algorithm>
#include <deque>
#include <thread>
#include <unordered_set>

#include "src/shard/parallel_compressor.h"
#include "src/shard/partitioner.h"
#include "src/util/hashing.h"

namespace grepair {
namespace shard {

namespace {

// The local payload source: pins the mmap (or the owned buffer) a
// container was opened over and hands out borrowed views. The remote
// twin lives in src/serve/pool.{h,cc}.
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

 private:
  std::shared_ptr<MmapFile> file_;
  std::shared_ptr<std::vector<uint8_t>> owned_;
  std::vector<ByteSpan> payloads_;
};

std::vector<ShardEntry> EntriesOf(ParsedDirectory* dir,
                                  const std::vector<ByteSpan>& views) {
  std::vector<ShardEntry> entries(dir->rows.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].nodes = std::move(dir->node_maps[i]);
    entries[i].length = dir->rows[i].length;
    entries[i].checksum = dir->rows[i].checksum;
    if (i < views.size()) entries[i].view = views[i];
  }
  return entries;
}

// Grammar-direct lookup in one shard: `local`'s out (or in) neighbors
// in the shard's graph, mapped back to global ids and appended to
// *dest. entry.nodes is increasing, so the appended run stays sorted
// and deduplicated.
Status AppendShardNeighbors(const ShardEntry& entry,
                            const CompressedGraph& graph, NodeId local,
                            bool out, std::vector<uint64_t>* dest) {
  const std::vector<uint64_t> part =
      out ? graph.OutNeighbors(local) : graph.InNeighbors(local);
  for (uint64_t u : part) {
    if (u >= entry.nodes.size()) {
      return Status::Corruption("shard neighbor id out of range");
    }
    dest->push_back(entry.nodes[u]);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Opening

ShardedRep::ShardedRep(std::shared_ptr<ShardSource> source,
                       ParsedDirectory dir, const std::vector<ByteSpan>& views)
    : num_nodes_(dir.num_nodes),
      store_(std::move(source), EntriesOf(&dir, views)),
      corpus_(&store_, dir.num_nodes, dir.dir_checksum) {}

ShardedRep::~ShardedRep() = default;

Result<std::unique_ptr<ShardedRep>> ShardedRep::Build(
    std::shared_ptr<ShardSource> source, ParsedDirectory dir,
    const std::vector<ByteSpan>& views) {
  if (source == nullptr) {
    return Status::InvalidArgument("OpenFromSource needs a source");
  }
  GREPAIR_RETURN_IF_ERROR(CheckInnerCodecName(dir.inner_name));
  if (dir.rows.size() != dir.node_maps.size() || dir.rows.empty() ||
      dir.rows.size() > kMaxShardCount) {
    return Status::Corruption("sharded directory shard count out of range");
  }
  // The owner index addresses every node-map entry with 32 bits.
  uint64_t map_entries = 0;
  for (const std::vector<NodeId>& map : dir.node_maps) {
    map_entries += map.size();
  }
  if (map_entries > 0xFFFFFFFFull) {
    return Status::Corruption(
        "sharded directory node maps hold over 2^32-1 ids");
  }
  return std::unique_ptr<ShardedRep>(
      new ShardedRep(std::move(source), std::move(dir), views));
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::OpenFromSource(
    std::shared_ptr<ShardSource> source, ParsedDirectory dir) {
  return Build(std::move(source), std::move(dir), {});
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::OpenLocal(
    ByteSpan bytes, std::shared_ptr<MmapFile> file,
    std::shared_ptr<std::vector<uint8_t>> owned) {
  auto parsed = ParseContainer(bytes);
  if (!parsed.ok()) return parsed.status();
  std::vector<ByteSpan> payloads;
  for (const ShardDirEntry& row : parsed.value().dir.rows) {
    payloads.push_back(row.length > 0 ? bytes.subspan(row.offset, row.length)
                                      : ByteSpan());
  }
  auto source = std::make_shared<LocalShardSource>(
      std::move(file), std::move(owned), payloads);
  return Build(std::move(source), std::move(parsed).ValueOrDie().dir,
               payloads);
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
  return OpenLocal(span, nullptr, std::move(owned));
}

Result<std::unique_ptr<ShardedRep>> ShardedRep::Open(
    std::shared_ptr<MmapFile> file, ByteSpan bytes) {
  return OpenLocal(bytes, std::move(file), nullptr);
}

void ShardedRep::set_threads(int threads) {
  threads_.store(std::max(1, std::min(threads, 256)),
                 std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Bytes and whole-graph decode

// SerializeV2 rebuilds the container from the per-shard payload bytes
// each call (deterministic, so repeated calls are byte-identical)
// instead of caching a second full copy of the compressed bytes for
// the rep's lifetime; ByteSize computes the exact container size
// arithmetically without materializing anything.
std::vector<uint8_t> ShardedRep::Serialize() const { return SerializeV2(); }

std::vector<uint8_t> ShardedRep::SerializeV2() const {
  V2Encoder out(num_nodes_, store_.num_shards());
  if (!store_.EncodeShards(&out)) return {};
  return std::move(out).Finish();
}

size_t ShardedRep::ByteSize() const {
  size_t size = V2Encoder::FixedBytes();
  for (size_t s = 0; s < store_.num_shards(); ++s) {
    size += V2Encoder::RowBytes(store_.entry(s).nodes) +
            store_.PayloadSize(s);
  }
  return size;
}

Result<Hypergraph> ShardedRep::Decompress() const {
  return corpus_.Materialize(
      [this] { return store_.Decompress(num_nodes(), threads()); });
}

// ---------------------------------------------------------------------------
// Routing

// Shared routing for Out/InNeighbors: per owning shard (one owner-index
// lookup) either the decoded-neighborhood cache or a grammar-direct
// lookup in the shard's graph — faulted in on first touch, and charged
// to the shard's rent (ShardStore::Decoded) — then merge and apply the
// overlay.
Result<std::vector<uint64_t>> ShardedRep::RoutedNeighbors(uint64_t node,
                                                          bool out) const {
  GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(node, num_nodes()));
  // Reader protocol (mutable_corpus.h): overlay before shard state.
  std::shared_ptr<const DeltaOverlay> overlay = corpus_.ReaderSnapshot();
  const OwnerIndex::Run owners = store_.owner_index().Owners(node);
  std::vector<uint64_t> all;
  for (const ShardOwner& owner : owners) {
    const size_t i = owner.shard;
    const NodeId local = owner.local;
    auto cached = store_.Decoded(i, 1);
    if (cached != nullptr) {
      stat_hits_.fetch_add(1, std::memory_order_relaxed);
      const auto list = out ? cached->Out(local) : cached->In(local);
      all.insert(all.end(), list.begin(), list.end());
      continue;
    }
    stat_misses_.fetch_add(1, std::memory_order_relaxed);
    auto graph = store_.Graph(i);
    if (!graph.ok()) return graph.status();
    size_t before = all.size();
    GREPAIR_RETURN_IF_ERROR(AppendShardNeighbors(
        store_.entry(i), *graph.value(), local, out, &all));
    store_.ChargeLookups(i, 1 + (all.size() - before));
  }
  // Each shard's part is sorted and deduplicated: only a node with
  // several owners needs the merge.
  if (owners.size() > 1) {
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
  }
  if (overlay != nullptr) corpus_.Merge(*overlay, node, out, &all);
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
  for (uint64_t node : nodes) {
    GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(node, num_nodes()));
  }
  stat_batch_calls_.fetch_add(1, std::memory_order_relaxed);
  stat_batch_items_.fetch_add(nodes.size(), std::memory_order_relaxed);

  // Overlay snapshot before any shard state (reader protocol).
  std::shared_ptr<const DeltaOverlay> overlay = corpus_.ReaderSnapshot();

  // Answer each distinct node once; real batch workloads repeat hot
  // nodes, and duplicates are expanded from the unique answers at the
  // end.
  std::vector<uint64_t> uniq(nodes);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  size_t shard_count = store_.num_shards();
  // Group the unique nodes by owning shard: (unique index, local id)
  // per shard. Vertex-cut shards may share nodes, so one node can
  // appear in several groups.
  std::vector<std::vector<std::pair<size_t, NodeId>>> groups(shard_count);
  std::vector<uint32_t> owner_count(uniq.size(), 0);
  const OwnerIndex& owner_index = store_.owner_index();
  for (size_t u = 0; u < uniq.size(); ++u) {
    const OwnerIndex::Run owners = owner_index.Owners(uniq[u]);
    owner_count[u] = static_cast<uint32_t>(owners.size());
    for (const ShardOwner& owner : owners) {
      groups[owner.shard].emplace_back(u, owner.local);
    }
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
  RunIndexedOnPool(shard_count, threads(), [&](size_t i) {
    if (groups[i].empty()) return;
    used_cache[i] = store_.Decoded(i, groups[i].size());
    if (used_cache[i] != nullptr) {
      stat_hits_.fetch_add(groups[i].size(), std::memory_order_relaxed);
      return;
    }
    stat_misses_.fetch_add(groups[i].size(), std::memory_order_relaxed);
    auto graph = store_.Graph(i);
    if (!graph.ok()) {
      shard_status[i] = graph.status();
      return;
    }
    partial[i].resize(groups[i].size());
    uint64_t cost = 0;
    for (size_t k = 0; k < groups[i].size(); ++k) {
      // Sorted and deduplicated: single-owner answers need no re-sort.
      shard_status[i] =
          AppendShardNeighbors(store_.entry(i), *graph.value(),
                               groups[i][k].second, /*out=*/true,
                               &partial[i][k]);
      if (!shard_status[i].ok()) return;
      cost += 1 + partial[i][k].size();
    }
    store_.ChargeLookups(i, cost);
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
    if (overlay != nullptr) {
      corpus_.Merge(*overlay, uniq[u], /*out=*/true, &uniq_results[u]);
    }
  }

  // Each request position takes its node's answer: moved into the
  // node's last position, copied into any earlier one.
  std::vector<size_t> uniq_of(nodes.size());
  std::vector<size_t> uses_left(uniq.size(), 0);
  for (size_t j = 0; j < nodes.size(); ++j) {
    uniq_of[j] = static_cast<size_t>(
        std::lower_bound(uniq.begin(), uniq.end(), nodes[j]) -
        uniq.begin());
    ++uses_left[uniq_of[j]];
  }
  std::vector<std::vector<uint64_t>> results(nodes.size());
  for (size_t j = 0; j < nodes.size(); ++j) {
    const size_t u = uniq_of[j];
    if (--uses_left[u] == 0) {
      results[j] = std::move(uniq_results[u]);
    } else {
      results[j] = uniq_results[u];
    }
  }
  return results;
}

Result<std::vector<uint8_t>> ShardedRep::ReachableBatch(
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) const {
  for (const auto& [from, to] : pairs) {
    GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(from, num_nodes()));
    GREPAIR_RETURN_IF_ERROR(api::CheckNodeId(to, num_nodes()));
  }
  stat_batch_calls_.fetch_add(1, std::memory_order_relaxed);
  stat_batch_items_.fetch_add(pairs.size(), std::memory_order_relaxed);

  std::vector<uint8_t> results(pairs.size(), 0);
  std::vector<Status> pair_status(pairs.size(), Status::OK());
  RunIndexedOnPool(pairs.size(), threads(), [&](size_t k) {
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
  store_.AddStats(&stats);
  corpus_.AddStats(&stats);
  return stats;
}

// ---------------------------------------------------------------------------
// ShardedCodec

Result<std::unique_ptr<api::CompressedRep>> ShardedCodec::Compress(
    const Hypergraph& graph, const Alphabet& alphabet,
    const api::CodecOptions& options) const {
  PartitionOptions part_options;
  api::CodecOptions grepair_options;
  for (const auto& [key, value] : options.entries()) {
    if (key == "shards" || key == "threads") continue;
    grepair_options.Set(key, value);
  }
  auto compress_options = ParseCompressOptions(grepair_options);
  if (!compress_options.ok()) return compress_options.status();
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
  int threads = static_cast<int>(threads_opt.value());
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = static_cast<int>(
        std::min<unsigned>(std::max(1u, hw),
                           static_cast<unsigned>(part_options.num_shards)));
  }

  GREPAIR_RETURN_IF_ERROR(graph.Validate(alphabet));
  auto partition = PartitionGraph(graph, part_options);
  if (!partition.ok()) return partition.status();

  ParallelCompressor compressor(compress_options.value(), threads);
  auto payloads = compressor.CompressShards(partition.value(), alphabet);
  if (!payloads.ok()) return payloads.status();

  // Encode the container and open it like any other GRSHARD2 bytes, so
  // a fresh rep is exactly the rep its serialized form opens to.
  const std::vector<Shard>& parts = partition.value().shards;
  V2Encoder encoder(graph.num_nodes(), parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    ByteSpan payload = SpanOf(payloads.value()[i]);
    encoder.AddShard(parts[i].nodes, payload,
                     HashBytes(payload.data, payload.size));
  }
  return ShardedRep::Deserialize(std::move(encoder).Finish());
}

Result<std::unique_ptr<api::CompressedRep>> ShardedCodec::DeserializeSpan(
    ByteSpan bytes) const {
  return ShardedRep::Deserialize(bytes);
}

}  // namespace shard
}  // namespace grepair
