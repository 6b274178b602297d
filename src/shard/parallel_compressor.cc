#include "src/shard/parallel_compressor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "src/util/sync.h"

namespace grepair {
namespace shard {

void RunIndexedOnPool(size_t count, int threads,
                      const std::function<void(size_t)>& fn) {
  int clamped = std::max(1, std::min(threads, 256));
  int spawn = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(clamped), count));
  if (spawn <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // An exception escaping a std::thread entry function is
  // std::terminate; capture the first one and rethrow it on the
  // calling thread after the join, so e.g. a bad_alloc during a
  // shard task behaves the same at threads=8 as at threads=1.
  std::atomic<size_t> next{0};
  Mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex until join
  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(spawn);
  for (int t = 0; t < spawn; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

ParallelCompressor::ParallelCompressor(const api::GraphCodec& inner,
                                       int num_threads)
    : inner_(inner), num_threads_(std::max(1, std::min(num_threads, 256))) {}

Result<std::vector<std::vector<uint8_t>>> ParallelCompressor::CompressShards(
    const GraphPartition& partition, const Alphabet& alphabet,
    const api::CodecOptions& inner_options) const {
  size_t count = partition.shards.size();
  std::vector<std::vector<uint8_t>> results(count);
  std::vector<Status> statuses(count);

  RunIndexedOnPool(count, num_threads_, [&](size_t i) {
    const Shard& shard = partition.shards[i];
    if (shard.graph.num_edges() == 0) return;  // empty payload slot
    auto rep = inner_.Compress(shard.graph, alphabet, inner_options);
    if (!rep.ok()) {
      statuses[i] = rep.status();
      return;
    }
    results[i] = rep.value()->Serialize();
  });

  for (size_t i = 0; i < count; ++i) {
    if (!statuses[i].ok()) {
      if (statuses[i].code() == StatusCode::kInvalidArgument) {
        return Status::InvalidArgument("shard " + std::to_string(i) + ": " +
                                       statuses[i].message());
      }
      return statuses[i];
    }
  }
  return results;
}

}  // namespace shard
}  // namespace grepair
