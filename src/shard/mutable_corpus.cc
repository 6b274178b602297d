#include "src/shard/mutable_corpus.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <tuple>
#include <vector>

#include "src/shard/parallel_compressor.h"
#include "src/util/hashing.h"

namespace grepair {
namespace shard {

namespace {

bool PairLess(const DeltaPair& a, const DeltaPair& b) {
  return std::tie(a.u, a.v) < std::tie(b.u, b.v);
}

bool EdgeLess(const DeltaEdge& a, const DeltaEdge& b) {
  return std::tie(a.u, a.v, a.label) < std::tie(b.u, b.v, b.label);
}

// One shard whose node map holds both ends of a pair, and their local
// ids there.
struct PairOwner {
  uint32_t shard;
  NodeId lu, lv;
};

// The shards whose node maps hold both `u` and `v`, in shard order: the
// two owner runs intersected into *out.
void PairOwners(const OwnerIndex& index, uint64_t u, uint64_t v,
                std::vector<PairOwner>* out) {
  out->clear();
  const OwnerIndex::Run ou = index.Owners(u);
  const OwnerIndex::Run ov = index.Owners(v);
  const ShardOwner* a = ou.begin();
  const ShardOwner* b = ov.begin();
  while (a != ou.end() && b != ov.end()) {
    if (a->shard < b->shard) {
      ++a;
    } else if (b->shard < a->shard) {
      ++b;
    } else {
      out->push_back({a->shard, a->local, b->local});
      ++a;
      ++b;
    }
  }
}

// Decompresses one shard, applies `kills` then `adds` (global ids; set
// semantics) and recompresses it with the default options.
Status FoldOneShard(const ShardStore& store, size_t shard,
                    const std::vector<DeltaPair>& kills,
                    const std::vector<DeltaEdge>& adds,
                    std::shared_ptr<FoldedShard>* out) {
  const ShardEntry& entry = store.entry(shard);
  auto graph = store.Graph(shard);
  if (!graph.ok()) return graph.status();
  if (graph.value() == nullptr) {
    return Status::Internal("cannot fold into an edgeless shard");
  }
  auto local_r = graph.value()->Decompress();
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
      killed.emplace_back(entry.LocalId(k.u), entry.LocalId(k.v));
    }
    std::sort(killed.begin(), killed.end());
    local.RemoveEdgesIf([&](const HEdge& e) {
      return e.att.size() == 2 &&
             std::binary_search(killed.begin(), killed.end(),
                                std::make_pair(e.att[0], e.att[1]));
    });
  }
  // Set semantics: an add that duplicates a surviving local edge must
  // not produce a second copy (the merge rule is a union). `adds` is a
  // slice of the overlay's sorted run and LocalId is one-to-one, so a
  // repeated add sits right after its twin.
  assert(std::is_sorted(adds.begin(), adds.end(), EdgeLess));
  std::vector<DeltaEdge> present;
  present.reserve(local.num_edges());
  for (const HEdge& e : local.edges()) {
    if (e.att.size() == 2) present.push_back({e.att[0], e.att[1], e.label});
  }
  std::sort(present.begin(), present.end(), EdgeLess);
  for (size_t i = 0; i < adds.size(); ++i) {
    if (i > 0 && adds[i] == adds[i - 1]) continue;
    const DeltaEdge local_add{entry.LocalId(adds[i].u),
                              entry.LocalId(adds[i].v), adds[i].label};
    if (std::binary_search(present.begin(), present.end(), local_add,
                           EdgeLess)) {
      continue;
    }
    local.AddSimpleEdge(local_add.u, local_add.v, local_add.label);
  }

  // The recompression needs an alphabet; the shard payload stores none.
  auto compressed = CompressedGraph::FromGraph(local, InferAlphabet(local));
  if (!compressed.ok()) return compressed.status();
  auto f = std::make_shared<FoldedShard>();
  f->graph = std::make_shared<const CompressedGraph>(
      std::move(compressed).ValueOrDie());
  if (f->graph->num_nodes() != entry.nodes.size()) {
    return Status::Internal("folded shard changed its node count");
  }
  f->payload = f->graph->Serialize();
  if (f->payload.empty()) {
    return Status::Internal("folded shard serialized to nothing");
  }
  f->checksum = HashBytes(f->payload.data(), f->payload.size());
  *out = std::move(f);
  return Status::OK();
}

}  // namespace

MutableCorpus::MutableCorpus(ShardStore* store, uint64_t base_nodes,
                             uint64_t directory_checksum)
    : store_(store),
      directory_checksum_(directory_checksum),
      total_nodes_(base_nodes) {}

std::shared_ptr<const DeltaOverlay> MutableCorpus::ReaderSnapshot() const {
  if (!has_overlay_.load(std::memory_order_acquire)) return nullptr;
  MutexLock lock(overlay_mu_);
  return overlay_;
}

void MutableCorpus::Merge(const DeltaOverlay& snap, uint64_t node, bool out,
                          std::vector<uint64_t>* answer) const {
  if (!(out ? snap.TouchesOut(node) : snap.TouchesIn(node))) return;
  *answer = out ? snap.MergeOut(node, std::move(*answer))
                : snap.MergeIn(node, std::move(*answer));
  stat_overlay_merges_.fetch_add(1, std::memory_order_relaxed);
}

void MutableCorpus::GrowNodes(uint64_t min_nodes) {
  // Writers are serialized by fold_mu_; readers load lock-free.
  if (min_nodes > total_nodes_.load(std::memory_order_relaxed)) {
    total_nodes_.store(min_nodes, std::memory_order_release);
  }
}

Status MutableCorpus::ApplyEdits(const std::vector<EdgeEdit>& edits,
                                 int threads) {
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
    GrowNodes(overlay_->min_num_nodes());
  }
  uint64_t budget = overlay_budget_bytes_.load(std::memory_order_relaxed);
  if (budget != ~0ull && overlay_bytes > budget) return FoldLocked(threads);
  return Status::OK();
}

Status MutableCorpus::FoldOverlay(int threads) {
  MutexLock fold_lock(fold_mu_);
  return FoldLocked(threads);
}

Status MutableCorpus::FoldLocked(int threads) {
  std::shared_ptr<const DeltaOverlay> snap;
  {
    MutexLock lock(overlay_mu_);
    snap = overlay_;
  }
  if (snap == nullptr || snap->empty()) return Status::OK();

  const size_t shard_count = store_->num_shards();
  const OwnerIndex& owner_index = store_->owner_index();
  std::vector<PairOwner> owners;  // reused per edit
  // True when a shard after the first owner holds the pair in its
  // current grammar, or cannot tell. Owners all have a payload, so each
  // has a graph.
  auto held_after = [&] {
    for (size_t k = 1; k < owners.size(); ++k) {
      auto graph = store_->Graph(owners[k].shard);
      if (!graph.ok() || graph.value() == nullptr) return true;
      const std::vector<uint64_t> out =
          graph.value()->OutNeighbors(owners[k].lu);
      if (std::binary_search(out.begin(), out.end(), owners[k].lv)) {
        return true;
      }
    }
    return false;
  };
  std::vector<std::vector<DeltaPair>> shard_kills(shard_count);
  std::vector<std::vector<DeltaEdge>> shard_adds(shard_count);
  std::vector<DeltaPair> residual_kills;
  std::vector<DeltaEdge> residual_adds;
  size_t spent_kills = 0;

  // Kill eligibility: a kill folds only into the *unique* shard whose
  // node map holds both endpoints — with the pair resolvable in two or
  // more shards, folding into one would leave another shard's base
  // copy alive and the residual kill gone. No shard holding both
  // endpoints means no base copy exists: the kill is spent (Apply
  // already erased pending adds of the pair).
  for (const DeltaPair& kill : snap->kills()) {
    PairOwners(owner_index, kill.u, kill.v, &owners);
    if (owners.empty()) {
      ++spent_kills;
      continue;
    }
    if (owners.size() > 1) {
      residual_kills.push_back(kill);
      continue;
    }
    shard_kills[owners[0].shard].push_back(kill);
  }

  // Add eligibility: the first shard holding both endpoints takes the
  // edge — unless the pair has a residual kill, in which case the
  // query-time merge (which applies kills to base answers) would
  // re-kill the folded edge; such adds stay residual with their kill.
  // Nor does it take the edge while a later shard's grammar holds the
  // pair: that shard may hold the very triple, which the fold would
  // then copy (the merge is a set union, a decompression is not).
  // Adds referencing fresh nodes (no shard holds them) stay residual
  // until a future full recompression. A pair's kill and adds thus
  // share their target: a kill's unique owner is also the first shard
  // holding its pair, so one shard slice folds or defers them together.
  for (const DeltaEdge& add : snap->adds()) {
    PairOwners(owner_index, add.u, add.v, &owners);
    bool killed_residual =
        std::binary_search(residual_kills.begin(), residual_kills.end(),
                           DeltaPair{add.u, add.v}, PairLess);
    if (owners.empty() || killed_residual || held_after()) {
      residual_adds.push_back(add);
      continue;
    }
    shard_adds[owners[0].shard].push_back(add);
  }

  // Byte parity: a shard is recompressed once its pending edits weigh
  // as much as its payload (counted as DeltaOverlay::ByteSize counts
  // them); a lighter slice stays residual, where it costs less than
  // the payload a fold adds to memory and to every delta. While the
  // residual outgrows the budget, the heaviest deferred shards fold
  // too, so a budget of 0 drains every eligible edit.
  auto pending_bytes = [&](size_t i) -> uint64_t {
    return shard_kills[i].size() * (2 * sizeof(DeltaPair)) +
           shard_adds[i].size() * (2 * sizeof(DeltaEdge));
  };
  uint64_t residual_bytes = residual_kills.size() * (2 * sizeof(DeltaPair)) +
                            residual_adds.size() * (2 * sizeof(DeltaEdge));
  std::vector<size_t> work;
  std::vector<size_t> deferred;
  for (size_t i = 0; i < shard_count; ++i) {
    const uint64_t bytes = pending_bytes(i);
    if (bytes == 0) continue;
    if (bytes >= store_->PayloadSize(i)) {
      work.push_back(i);
    } else {
      deferred.push_back(i);
      residual_bytes += bytes;
    }
  }
  std::stable_sort(deferred.begin(), deferred.end(), [&](size_t a, size_t b) {
    return pending_bytes(a) > pending_bytes(b);
  });
  const uint64_t budget =
      overlay_budget_bytes_.load(std::memory_order_relaxed);
  size_t bought = 0;
  while (bought < deferred.size() && residual_bytes > budget) {
    residual_bytes -= pending_bytes(deferred[bought]);
    work.push_back(deferred[bought++]);
  }
  std::sort(work.begin(), work.end());

  // Recompress the chosen shards on the compression pool. A shard
  // whose fold fails keeps its edits residual (fail-soft, never
  // lossy); the base container file is never touched, so a crash at
  // any point here leaves the on-disk corpus exactly as it was.
  std::vector<std::shared_ptr<FoldedShard>> folded(shard_count);
  RunIndexedOnPool(work.size(), threads, [&](size_t w) {
    size_t i = work[w];
    std::shared_ptr<FoldedShard> out;
    if (FoldOneShard(*store_, i, shard_kills[i], shard_adds[i], &out).ok()) {
      folded[i] = std::move(out);
    }
  });

  std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> publish;
  uint64_t folded_edits = 0;
  for (size_t i = 0; i < shard_count; ++i) {
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
  // A fold that recompressed no shard publishes nothing, unless spent
  // kills leave the overlay.
  if (publish.empty() && spent_kills == 0) return Status::OK();
  // Re-sort: deferred and failed shards' edits were appended out of
  // order.
  std::sort(residual_kills.begin(), residual_kills.end(), PairLess);
  std::sort(residual_adds.begin(), residual_adds.end(), EdgeLess);
  auto residual = DeltaOverlay::FromRuns(std::move(residual_adds),
                                         std::move(residual_kills));
  if (!residual.ok()) return residual.status();

  size_t fold_count = publish.size();
  Publish(std::move(publish), std::move(residual).ValueOrDie(),
          /*replace_all=*/false);
  stat_shard_folds_.fetch_add(fold_count, std::memory_order_relaxed);
  stat_folded_edits_.fetch_add(folded_edits, std::memory_order_relaxed);
  return Status::OK();
}

void MutableCorpus::Publish(
    std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
    std::shared_ptr<const DeltaOverlay> residual, bool replace_all) {
  MutexLock lock(overlay_mu_);
  // With no shard to swap, only the overlay changes: the store's fold
  // epoch and decoded cache stay as they are.
  if (!folds.empty() || replace_all) {
    store_->Publish(std::move(folds), replace_all);
  }
  overlay_ = std::move(residual);
  has_overlay_.store(overlay_ != nullptr && !overlay_->empty(),
                     std::memory_order_release);
}

Status MutableCorpus::ApplyDelta(const DeltaContainer& delta) {
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
    if (shard.index >= store_->num_shards()) {
      return Status::Corruption("delta shard index out of range");
    }
    const ShardEntry& entry = store_->entry(shard.index);
    if (!entry.has_payload()) {
      return Status::Corruption("delta changes an edgeless shard");
    }
    auto f = std::make_shared<FoldedShard>();
    f->payload = shard.payload;
    f->checksum = shard.checksum;  // verified by DecodeDeltaContainer
    auto graph = DecodeShardPayload(SpanOf(f->payload));
    if (!graph.ok()) return graph.status();
    if (graph.value().num_nodes() != entry.nodes.size()) {
      return Status::Corruption(
          "delta shard " + std::to_string(shard.index) +
          " node count does not match the base node map");
    }
    f->graph = std::make_shared<const CompressedGraph>(
        std::move(graph).ValueOrDie());
    publish.emplace_back(shard.index, std::move(f));
  }
  auto residual = DeltaOverlay::FromRuns(delta.adds, delta.kills);
  if (!residual.ok()) return residual.status();
  GrowNodes(std::max(delta.num_nodes, residual.value()->min_num_nodes()));
  Publish(std::move(publish), std::move(residual).ValueOrDie(),
          /*replace_all=*/true);
  return Status::OK();
}

Result<DeltaContainer> MutableCorpus::BuildDelta(uint64_t base_hash,
                                                 uint64_t base_size) const {
  DeltaContainer out;
  out.base_hash = base_hash;
  out.base_size = base_size;
  out.base_dir_checksum = directory_checksum_;
  out.num_nodes = num_nodes();
  // Folded set and residual change together under overlay_mu_
  // (Publish), so one lock hold captures a consistent pair.
  MutexLock lock(overlay_mu_);
  for (size_t i = 0; i < store_->num_shards(); ++i) {
    const FoldedShard* f = store_->Folded(i);
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

Result<Hypergraph> MutableCorpus::Materialize(
    const std::function<Result<Hypergraph>()>& base) const {
  // Holding fold_mu_ keeps the folded-shard set stable for the whole
  // walk, so the residual overlay snapshot below is exactly the set of
  // edits the shard payloads do NOT contain — a fold publishing
  // mid-walk would otherwise double-apply its adds.
  MutexLock fold_lock(fold_mu_);
  std::shared_ptr<const DeltaOverlay> overlay;
  {
    MutexLock lock(overlay_mu_);
    overlay = overlay_;
  }
  auto built = base();
  if (!built.ok() || overlay == nullptr || overlay->empty()) return built;
  Hypergraph global = std::move(built).ValueOrDie();
  // Kills remove every base copy of their pair; adds then contribute
  // exactly the edges the base does not already hold (the logical
  // corpus is a set union, so an add that duplicates a surviving base
  // edge must not produce a second copy).
  global.RemoveEdgesIf([&](const HEdge& e) {
    return e.att.size() == 2 && overlay->IsKilled(e.att[0], e.att[1]);
  });
  const std::vector<DeltaEdge>& adds = overlay->adds();
  std::vector<uint8_t> present(adds.size(), 0);
  for (const HEdge& e : global.edges()) {
    if (e.att.size() != 2) continue;
    DeltaEdge probe{e.att[0], e.att[1], e.label};
    auto it = std::lower_bound(adds.begin(), adds.end(), probe, EdgeLess);
    if (it != adds.end() && *it == probe) {
      present[static_cast<size_t>(it - adds.begin())] = 1;
    }
  }
  for (size_t k = 0; k < adds.size(); ++k) {
    if (present[k]) continue;
    global.AddSimpleEdge(adds[k].u, adds[k].v, adds[k].label);
  }
  return global;
}

void MutableCorpus::AddStats(api::QueryStats* stats) const {
  stats->overlay_merges += stat_overlay_merges_.load(std::memory_order_relaxed);
  stats->shard_folds += stat_shard_folds_.load(std::memory_order_relaxed);
  stats->folded_edits += stat_folded_edits_.load(std::memory_order_relaxed);
  MutexLock lock(overlay_mu_);
  if (overlay_ != nullptr) stats->overlay_edits += overlay_->edit_count();
}

}  // namespace shard
}  // namespace grepair
