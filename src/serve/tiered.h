// serve::TieredShardSource — a checksummed local-SSD shard cache
// stacked over any inner ShardSource, so a frontend fleet faults each
// shard across the WAN once and serves it from local disk after that.
//
// Residency is a plan, fixed at Create: PlanByHeat (placement.h) fills
// the byte budget with the shards the corpus' hit histogram ranks
// hottest, then the cold ones in id order — the same rule the server
// pins by. With no histogram every shard is cold, so a cold start with
// room still caches every shard. A planned shard is read from disk and
// verified (a warm hit), or else fetched from the inner source and
// written; an unplanned shard always goes to the inner source. The
// plan never changes after Create, so the tier holds no index and no
// lock: only its four counters move.
//
// Layout: the tier owns one directory per corpus, holding one
// content-addressed file per planned shard,
// "<hex payload checksum>-<length>.shard". Create deletes every other
// ".shard" file there (counted as evictions); ".tmp" leftovers and
// other files are left alone. So after Create, and after every fetch,
// the directory holds at most the budget, and a shard larger than the
// whole budget is never cached. A warm directory survives process
// restarts, and even the server being gone. The filename commits to
// the checksum, and every read is re-hashed against it before the
// bytes are served, so a corrupt or truncated cache file fails closed:
// it is deleted, counted, and the fetch falls through to the inner
// source.
//
// Writes go through WriteFileBytesAtomic (a ".tmp" sibling renamed
// into place), so a crash mid-write never leaves a truncated file
// under the real name.
//
// Counters (cold fetches, warm hits, corrupt drops, evictions) flow
// into QueryStats through the AddStats seam, and the inner source's
// counters flow through this one — an SSD-warm run reports zero
// remote_fetches, which the bench asserts.

#ifndef GREPAIR_SERVE_TIERED_H_
#define GREPAIR_SERVE_TIERED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/shard/sharded_codec.h"
#include "src/util/status.h"

namespace grepair {
namespace serve {

class TieredShardSource : public shard::ShardSource {
 public:
  struct Options {
    std::string cache_dir;              ///< the corpus' own; created if missing
    uint64_t max_bytes = 256ull << 20;  ///< byte budget of the plan
  };

  /// \brief Stacks a cache at `options.cache_dir` over `inner`. `rows`
  /// is the corpus' parsed directory (per-shard lengths + checksums —
  /// the content addresses); `heat` is its hit histogram (empty, or
  /// one count per row). Plans the resident shards with PlanByHeat and
  /// deletes every unplanned ".shard" file in the directory.
  static Result<std::shared_ptr<TieredShardSource>> Create(
      std::shared_ptr<shard::ShardSource> inner,
      const std::vector<shard::ShardDirEntry>& rows,
      const std::vector<uint64_t>& heat, const Options& options);

  const char* kind() const override { return "tiered-ssd"; }

  Result<ByteSpan> FetchShard(size_t shard,
                              std::vector<uint8_t>* owned) override;

  void AddStats(api::QueryStats* stats) const override;

 private:
  explicit TieredShardSource(std::shared_ptr<shard::ShardSource> inner)
      : inner_(std::move(inner)) {}

  /// True when `bytes` are what the corpus directory promised.
  bool Matches(size_t shard, ByteSpan bytes) const;

  std::shared_ptr<shard::ShardSource> inner_;
  // Per shard: the cache file path ("" when unplanned) and the content
  // address, all fixed at Create.
  std::vector<std::string> paths_;
  std::vector<uint64_t> lengths_;
  std::vector<uint64_t> checksums_;

  mutable std::atomic<uint64_t> stat_warm_hits_{0};
  mutable std::atomic<uint64_t> stat_cold_fetches_{0};
  mutable std::atomic<uint64_t> stat_evictions_{0};
  mutable std::atomic<uint64_t> stat_corrupt_drops_{0};
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_TIERED_H_
