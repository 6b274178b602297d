#include "src/serve/tiered.h"

#include <cstdio>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

#include "src/serve/placement.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace serve {

namespace {

constexpr const char kCacheSuffix[] = ".shard";

}  // namespace

Result<std::shared_ptr<TieredShardSource>> TieredShardSource::Create(
    std::shared_ptr<shard::ShardSource> inner,
    const std::vector<shard::ShardDirEntry>& rows,
    const std::vector<uint64_t>& heat, const Options& options) {
  namespace fs = std::filesystem;
  if (inner == nullptr) {
    return Status::InvalidArgument("tiered cache needs an inner source");
  }
  const std::string& dir = options.cache_dir;
  if (dir.empty()) {
    return Status::InvalidArgument("tiered cache needs a cache directory");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir, ec)) {
    return Status::InvalidArgument("cannot create cache directory " + dir +
                                   (ec ? ": " + ec.message() : ""));
  }
  auto source = std::shared_ptr<TieredShardSource>(
      new TieredShardSource(std::move(inner)));
  source->paths_.resize(rows.size());
  for (const auto& row : rows) {
    source->lengths_.push_back(row.length);
    source->checksums_.push_back(row.checksum);
  }
  std::set<std::string> planned;
  for (size_t s : PlanByHeat(heat, source->lengths_, options.max_bytes)) {
    std::string name = HexU64(rows[s].checksum) + "-" +
                       std::to_string(rows[s].length) + kCacheSuffix;
    source->paths_[s] = dir + "/" + name;
    planned.insert(std::move(name));
  }
  // Every cached shard the plan leaves out goes, so the directory holds
  // at most the budget. Collected first: no removal while iterating.
  std::vector<fs::path> unplanned;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() == kCacheSuffix &&
        planned.count(path.filename().string()) == 0) {
      unplanned.push_back(path);
    }
  }
  if (ec) {
    return Status::InvalidArgument("cannot list cache directory " + dir +
                                   ": " + ec.message());
  }
  for (const fs::path& path : unplanned) {
    if (fs::remove(path, ec)) {
      source->stat_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return source;
}

bool TieredShardSource::Matches(size_t shard, ByteSpan bytes) const {
  return bytes.size == lengths_[shard] &&
         HashBytes(bytes.data, bytes.size) == checksums_[shard];
}

Result<ByteSpan> TieredShardSource::FetchShard(size_t shard,
                                               std::vector<uint8_t>* owned) {
  if (shard >= paths_.size()) {
    return Status::Internal("shard index " + std::to_string(shard) +
                            " out of range for tiered source");
  }
  const std::string& path = paths_[shard];
  if (!path.empty()) {
    // Warm probe: read, then verify against the content address. Every
    // bad outcome (missing, truncated, bit-flipped) falls through to
    // the inner source — the cache can only ever serve bytes that hash
    // to what the corpus directory promised.
    auto cached = ReadFileBytes(path);
    if (cached.ok()) {
      if (Matches(shard, SpanOf(cached.value()))) {
        stat_warm_hits_.fetch_add(1, std::memory_order_relaxed);
        *owned = std::move(cached).ValueOrDie();
        return SpanOf(*owned);
      }
      // Fails closed: delete the impostor, count it, refetch.
      stat_corrupt_drops_.fetch_add(1, std::memory_order_relaxed);
      std::remove(path.c_str());
    }
  }
  auto fetched = inner_->FetchShard(shard, owned);
  if (!fetched.ok()) return fetched.status();
  ByteSpan payload = fetched.value();
  stat_cold_fetches_.fetch_add(1, std::memory_order_relaxed);
  // Only verified bytes are cached (the caller re-verifies anyway;
  // this keeps a lying inner source from poisoning the disk).
  // Best-effort durable by design: no fsync — a file that loses a
  // power race is caught by the read-time checksum and refetched.
  if (!path.empty() && Matches(shard, payload)) {
    (void)WriteFileBytesAtomic(path, payload);
  }
  return payload;
}

void TieredShardSource::AddStats(api::QueryStats* stats) const {
  stats->tier_warm_hits += stat_warm_hits_.load(std::memory_order_relaxed);
  stats->tier_cold_fetches +=
      stat_cold_fetches_.load(std::memory_order_relaxed);
  stats->tier_evictions += stat_evictions_.load(std::memory_order_relaxed);
  stats->tier_corrupt_drops +=
      stat_corrupt_drops_.load(std::memory_order_relaxed);
  inner_->AddStats(stats);
}

}  // namespace serve
}  // namespace grepair
