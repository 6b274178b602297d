// serve::TieredShardSource — a checksummed local-SSD shard cache
// stacked over any inner ShardSource, so a frontend fleet faults each
// shard across the WAN once and serves it from local disk after that.
//
// Layout: one content-addressed file per cached shard,
// "<hex payload checksum>-<length>.shard", in a flat cache directory,
// plus an in-memory LRU index (seeded from the directory at Create, so
// a warm cache survives process restarts — and even the server being
// gone). Content addressing makes the cache corpus-agnostic and
// self-verifying: the filename commits to the checksum, and every read
// is re-hashed against it before the bytes are served, so a corrupt or
// truncated cache file fails closed — it is deleted, counted, and the
// fetch falls through to the inner source.
//
// Writes are crash-safe: the payload goes through WriteFileBytesAtomic
// (a ".tmp" sibling rename(2)d into place — the helper this cache
// pioneered, now hoisted into src/util/mmap_file.h), so a crash
// mid-write leaves at worst a tmp file (ignored and eventually
// overwritten), never a truncated cache entry under the real name. A
// byte budget is enforced LRU: inserting past the budget evicts the
// stalest entries' files.
//
// Counters (cold fetches, warm hits, corrupt drops, evictions) flow
// into QueryStats through the AddStats seam, and the inner source's
// counters flow through this one — an SSD-warm run reports zero
// remote_fetches, which the bench asserts.

#ifndef GREPAIR_SERVE_TIERED_H_
#define GREPAIR_SERVE_TIERED_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/shard/sharded_codec.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace grepair {
namespace serve {

class TieredShardSource : public shard::ShardSource {
 public:
  struct Options {
    std::string cache_dir;              ///< created if missing
    uint64_t max_bytes = 256ull << 20;  ///< LRU byte budget
  };

  /// \brief Stacks a cache at `options.cache_dir` over `inner`. `rows`
  /// is the corpus' parsed directory (per-shard lengths + checksums —
  /// the content addresses). The directory is created if missing and
  /// scanned to seed the LRU with already-cached shards.
  static Result<std::shared_ptr<TieredShardSource>> Create(
      std::shared_ptr<shard::ShardSource> inner,
      const std::vector<shard::ShardDirEntry>& rows, const Options& options);

  const char* kind() const override { return "tiered-ssd"; }

  Result<ByteSpan> FetchShard(size_t shard,
                              std::vector<uint8_t>* owned) override
      GREPAIR_LOCKS_EXCLUDED(mu_);

  // Advise calls are about the inner source's own storage.
  uint64_t AdviseShard(size_t shard) override {
    return inner_->AdviseShard(shard);
  }
  uint64_t AdviseSequential() override { return inner_->AdviseSequential(); }
  uint64_t AdviseNormal() override { return inner_->AdviseNormal(); }

  void AddStats(api::QueryStats* stats) const override;

 private:
  TieredShardSource(std::shared_ptr<shard::ShardSource> inner,
                    std::string cache_dir, uint64_t max_bytes)
      : inner_(std::move(inner)),
        cache_dir_(std::move(cache_dir)),
        max_bytes_(max_bytes) {}

  Status SeedFromDisk() GREPAIR_LOCKS_EXCLUDED(mu_);
  std::string PathFor(size_t shard) const;
  /// Registers `filename` (size `bytes`) as most-recently-used and
  /// evicts past the budget.
  void InsertLocked(const std::string& filename, uint64_t bytes)
      GREPAIR_REQUIRES(mu_);
  void TouchLocked(const std::string& filename) GREPAIR_REQUIRES(mu_);
  void EraseLocked(const std::string& filename) GREPAIR_REQUIRES(mu_);

  std::shared_ptr<shard::ShardSource> inner_;
  std::string cache_dir_;
  uint64_t max_bytes_ = 0;

  // Content addresses, precomputed from the directory rows.
  std::vector<std::string> filenames_;  // "" for edgeless shards
  std::vector<uint64_t> lengths_;
  std::vector<uint64_t> checksums_;

  mutable Mutex mu_;  // guards the LRU index
  // Front = most recent. The map's value is (LRU position, file size).
  struct IndexEntry {
    std::list<std::string>::iterator lru_it;
    uint64_t bytes = 0;
  };
  std::list<std::string> lru_ GREPAIR_GUARDED_BY(mu_);
  std::unordered_map<std::string, IndexEntry> index_ GREPAIR_GUARDED_BY(mu_);
  uint64_t total_bytes_ GREPAIR_GUARDED_BY(mu_) = 0;

  mutable std::atomic<uint64_t> stat_warm_hits_{0};
  mutable std::atomic<uint64_t> stat_cold_fetches_{0};
  mutable std::atomic<uint64_t> stat_evictions_{0};
  mutable std::atomic<uint64_t> stat_corrupt_drops_{0};
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_TIERED_H_
