// MutableCorpus: the edit side of a sharded rep — the delta overlay,
// folds of overlay edits back into shard grammars, and GRSHARD3 deltas
// in and out. Shard state itself lives in the ShardStore; the corpus
// publishes into it.
//
// Locks, always taken in this order:
//
//   fold_mu_     serializes fold, ApplyEdits and ApplyDelta bodies, and
//                Materialize (a full decompression) holds it so its
//                (folded shards, residual overlay) capture is consistent.
//   overlay_mu_  guards the overlay pointer; each snapshot is immutable.
//   ShardStore's cache_mutex_, nested inside overlay_mu_ by Publish.
//
// Reader protocol. A query takes ReaderSnapshot() before it reads any
// shard state from the store, and merges that snapshot into the
// answers the store's shards give. Publish swaps folded shards into
// the store (invalidating their cache slots) before it swaps in the
// residual overlay, both under overlay_mu_. So a reader holding the
// new residual always reads the new shards, and a reader holding an
// older snapshot may read old or new shards: re-applying the
// snapshot's edits over a folded shard is idempotent. A decode that
// straddles a publish is not cached by the store (its fold epoch). A
// residual may keep edits a fold deferred (byte parity, FoldOverlay);
// readers merge them over their shard's unchanged grammar like any
// other overlay edit. A publish without folded shards swaps only the
// overlay: the store, its fold epoch and its cache stay as they are.

#ifndef GREPAIR_SHARD_MUTABLE_CORPUS_H_
#define GREPAIR_SHARD_MUTABLE_CORPUS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/shard/delta_overlay.h"
#include "src/shard/shard_store.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace grepair {
namespace shard {

/// \brief Default overlay byte budget: once the resident overlay
/// outgrows this, ApplyEdits folds (see FoldOverlay).
inline constexpr uint64_t kDefaultOverlayBudgetBytes = 1ull << 20;

class MutableCorpus {
 public:
  /// `store` must outlive the corpus. `base_nodes` and
  /// `directory_checksum` describe the base container.
  MutableCorpus(ShardStore* store, uint64_t base_nodes,
                uint64_t directory_checksum);

  /// \brief Node count including nodes created by overlay adds (the
  /// base count until an edit references a fresh id; never shrinks).
  uint64_t num_nodes() const {
    return total_nodes_.load(std::memory_order_acquire);
  }

  /// \brief The base container's directory checksum, which deltas bind
  /// to.
  uint64_t directory_checksum() const { return directory_checksum_; }

  /// \brief Resident overlay bytes past which ApplyEdits folds, and
  /// the residual a fold may leave before it recompresses shards below
  /// byte parity (see FoldOverlay). Default kDefaultOverlayBudgetBytes;
  /// 0 makes every fold drain each eligible edit; ~0ull never folds
  /// automatically.
  void set_overlay_budget_bytes(uint64_t bytes) {
    overlay_budget_bytes_.store(bytes, std::memory_order_relaxed);
  }

  /// \brief The overlay a reader merges, or null when clean (a
  /// lock-free fast path). Take it before reading shard state.
  std::shared_ptr<const DeltaOverlay> ReaderSnapshot() const
      GREPAIR_LOCKS_EXCLUDED(overlay_mu_);

  /// \brief Merges `snap`'s edits at `node` into its sorted routed
  /// answer (out or in neighbors); a no-op for untouched nodes.
  void Merge(const DeltaOverlay& snap, uint64_t node, bool out,
             std::vector<uint64_t>* answer) const;

  /// \brief Applies `edits` in order to the overlay; past the budget,
  /// folds on up to `threads` workers before returning. Adds may
  /// reference fresh node ids; a self-loop add is kInvalidArgument.
  Status ApplyEdits(const std::vector<EdgeEdit>& edits, int threads);

  /// \brief Folds eligible overlay edits into their owning shards'
  /// grammars, recompressing shards on up to `threads` workers. A kill
  /// needs a unique shard holding both endpoints; an add goes to the
  /// first such shard unless its pair has a residual kill or a later
  /// such shard's grammar holds the pair. A pair's kill and adds thus
  /// share one shard. Byte parity picks the shards: one is recompressed
  /// once its eligible edits, counted as DeltaOverlay::ByteSize counts
  /// them, reach its payload size; while the residual then exceeds the
  /// overlay budget, the heaviest deferred shards are recompressed too
  /// (budget 0 drains every eligible edit). Everything else stays in
  /// the residual overlay, and a shard whose recompression fails keeps
  /// its edits residual. A fold that recompresses no shard publishes
  /// nothing, except that it drops spent kills (no shard holds their
  /// pair). The base container file is never touched.
  Status FoldOverlay(int threads);

  /// \brief Installs a decoded GRSHARD3 delta bound to this base: its
  /// shards replace the changed ones (every other shard reverts to its
  /// base grammar) and its runs replace the overlay. kCorruption on any
  /// mismatch.
  Status ApplyDelta(const DeltaContainer& delta);

  /// \brief The current edits as a GRSHARD3 delta body: all folded
  /// shards plus the residual overlay.
  Result<DeltaContainer> BuildDelta(uint64_t base_hash,
                                    uint64_t base_size) const
      GREPAIR_LOCKS_EXCLUDED(overlay_mu_);

  /// \brief Holds folds still while `base` decompresses the store's
  /// shards into global ids, then applies the residual overlay to it.
  Result<Hypergraph> Materialize(
      const std::function<Result<Hypergraph>()>& base) const
      GREPAIR_LOCKS_EXCLUDED(fold_mu_, overlay_mu_);

  /// \brief Adds the overlay and fold counters.
  void AddStats(api::QueryStats* stats) const
      GREPAIR_LOCKS_EXCLUDED(overlay_mu_);

 private:
  Status FoldLocked(int threads) GREPAIR_REQUIRES(fold_mu_);

  /// Publishes folded shards, then the residual overlay (see the
  /// reader protocol above); with no folds and !replace_all the store
  /// is left alone.
  void Publish(
      std::vector<std::pair<size_t, std::shared_ptr<FoldedShard>>> folds,
      std::shared_ptr<const DeltaOverlay> residual, bool replace_all)
      GREPAIR_REQUIRES(fold_mu_) GREPAIR_LOCKS_EXCLUDED(overlay_mu_);

  /// Raises the node count to at least `min_nodes`.
  void GrowNodes(uint64_t min_nodes) GREPAIR_REQUIRES(fold_mu_);

  ShardStore* const store_;
  const uint64_t directory_checksum_;
  mutable Mutex fold_mu_;
  mutable Mutex overlay_mu_;
  std::shared_ptr<const DeltaOverlay> overlay_
      GREPAIR_GUARDED_BY(overlay_mu_);
  std::atomic<bool> has_overlay_{false};  // lock-free clean fast path
  std::atomic<uint64_t> total_nodes_;
  std::atomic<uint64_t> overlay_budget_bytes_{kDefaultOverlayBudgetBytes};

  mutable std::atomic<uint64_t> stat_overlay_merges_{0};
  std::atomic<uint64_t> stat_shard_folds_{0};
  std::atomic<uint64_t> stat_folded_edits_{0};
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_MUTABLE_CORPUS_H_
