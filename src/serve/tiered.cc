#include "src/serve/tiered.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace serve {

namespace {

constexpr const char kCacheSuffix[] = ".shard";

// mkdir -p, restricted to what a cache path needs.
Status EnsureDirectory(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("empty cache directory path");
  }
  std::string prefix;
  size_t start = 0;
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    prefix = path.substr(0, slash);
    start = slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::InvalidArgument("cannot create cache directory " +
                                     prefix + ": " + std::strerror(errno));
    }
  }
  struct stat st;
  if (stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("cache path " + path +
                                   " is not a directory");
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<TieredShardSource>> TieredShardSource::Create(
    std::shared_ptr<shard::ShardSource> inner,
    const std::vector<shard::ShardDirEntry>& rows, const Options& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("tiered cache needs an inner source");
  }
  if (options.cache_dir.empty()) {
    return Status::InvalidArgument("tiered cache needs a cache directory");
  }
  GREPAIR_RETURN_IF_ERROR(EnsureDirectory(options.cache_dir));
  auto source = std::shared_ptr<TieredShardSource>(new TieredShardSource(
      std::move(inner), options.cache_dir, options.max_bytes));
  source->filenames_.reserve(rows.size());
  source->lengths_.reserve(rows.size());
  source->checksums_.reserve(rows.size());
  for (const auto& row : rows) {
    source->lengths_.push_back(row.length);
    source->checksums_.push_back(row.checksum);
    if (row.length == 0) {
      source->filenames_.emplace_back();  // edgeless: nothing to cache
    } else {
      source->filenames_.push_back(HexU64(row.checksum) + "-" +
                                   std::to_string(row.length) +
                                   kCacheSuffix);
    }
  }
  GREPAIR_RETURN_IF_ERROR(source->SeedFromDisk());
  return source;
}

Status TieredShardSource::SeedFromDisk() {
  DIR* dir = opendir(cache_dir_.c_str());
  if (dir == nullptr) {
    return Status::InvalidArgument("cannot open cache directory " +
                                   cache_dir_ + ": " + std::strerror(errno));
  }
  struct Found {
    int64_t mtime;
    std::string name;
    uint64_t bytes;
  };
  std::vector<Found> found;
  for (struct dirent* entry = readdir(dir); entry != nullptr;
       entry = readdir(dir)) {
    std::string name = entry->d_name;
    size_t suffix_len = sizeof(kCacheSuffix) - 1;
    if (name.size() <= suffix_len ||
        name.compare(name.size() - suffix_len, suffix_len, kCacheSuffix) !=
            0) {
      continue;  // tmp files and strangers stay out of the index
    }
    struct stat st;
    std::string full = cache_dir_ + "/" + name;
    if (stat(full.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    found.push_back({static_cast<int64_t>(st.st_mtime), std::move(name),
                     static_cast<uint64_t>(st.st_size)});
  }
  closedir(dir);
  // Oldest first, so the newest files end up most-recently-used; ties
  // (coarse mtime clocks) break by name for determinism.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  MutexLock lock(mu_);
  for (const Found& f : found) {
    InsertLocked(f.name, f.bytes);
  }
  return Status::OK();
}

std::string TieredShardSource::PathFor(size_t shard) const {
  return cache_dir_ + "/" + filenames_[shard];
}

void TieredShardSource::InsertLocked(const std::string& filename,
                                     uint64_t bytes) {
  auto it = index_.find(filename);
  if (it != index_.end()) {
    TouchLocked(filename);
    return;
  }
  lru_.push_front(filename);
  index_[filename] = IndexEntry{lru_.begin(), bytes};
  total_bytes_ += bytes;
  // Evict past the budget, stalest first; the entry just inserted is
  // never the victim (a shard larger than the whole budget must still
  // be servable — it just won't have neighbors).
  while (total_bytes_ > max_bytes_ && lru_.size() > 1) {
    const std::string victim = lru_.back();
    std::remove((cache_dir_ + "/" + victim).c_str());
    stat_evictions_.fetch_add(1, std::memory_order_relaxed);
    EraseLocked(victim);
  }
}

void TieredShardSource::TouchLocked(const std::string& filename) {
  auto it = index_.find(filename);
  if (it == index_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  it->second.lru_it = lru_.begin();
}

void TieredShardSource::EraseLocked(const std::string& filename) {
  auto it = index_.find(filename);
  if (it == index_.end()) return;
  total_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  index_.erase(it);
}

Result<ByteSpan> TieredShardSource::FetchShard(size_t shard,
                                               std::vector<uint8_t>* owned) {
  if (shard >= lengths_.size()) {
    return Status::Internal("shard index " + std::to_string(shard) +
                            " out of range for tiered source");
  }
  if (filenames_[shard].empty()) {
    return inner_->FetchShard(shard, owned);  // edgeless passthrough
  }
  const std::string& filename = filenames_[shard];
  const std::string path = PathFor(shard);
  // Warm probe: read, then verify against the content address. Every
  // bad outcome (missing, truncated, bit-flipped) falls through to
  // the inner source — the cache can only ever serve bytes that hash
  // to what the corpus directory promised.
  auto cached = ReadFileBytes(path);
  if (cached.ok()) {
    const std::vector<uint8_t>& bytes = cached.value();
    if (bytes.size() == lengths_[shard] &&
        HashBytes(bytes.data(), bytes.size()) == checksums_[shard]) {
      stat_warm_hits_.fetch_add(1, std::memory_order_relaxed);
      {
        // InsertLocked, not TouchLocked: a valid file on disk that is
        // absent from the index (seeded externally, or raced past
        // SeedFromDisk) must start being byte-accounted here, or the
        // on-disk footprint silently outgrows the budget. For indexed
        // entries this degenerates to a touch.
        MutexLock lock(mu_);
        InsertLocked(filename, bytes.size());
      }
      *owned = std::move(cached).ValueOrDie();
      return SpanOf(*owned);
    }
    // Fails closed: delete the impostor, count it, refetch.
    stat_corrupt_drops_.fetch_add(1, std::memory_order_relaxed);
    std::remove(path.c_str());
    {
      MutexLock lock(mu_);
      EraseLocked(filename);
    }
  }
  auto fetched = inner_->FetchShard(shard, owned);
  if (!fetched.ok()) return fetched.status();
  ByteSpan payload = fetched.value();
  stat_cold_fetches_.fetch_add(1, std::memory_order_relaxed);
  // Only verified bytes are cached (the caller re-verifies anyway;
  // this keeps a lying inner source from poisoning the disk). The
  // write is tmp+rename (WriteFileBytesAtomic) so a crash mid-write
  // never leaves a truncated file under the real name. Best-effort
  // durable by design: no fsync — a file that loses a power race is
  // caught by the read-time checksum and refetched.
  if (payload.size == lengths_[shard] &&
      HashBytes(payload.data, payload.size) == checksums_[shard]) {
    if (WriteFileBytesAtomic(path, payload).ok()) {
      MutexLock lock(mu_);
      InsertLocked(filename, payload.size);
    }
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
