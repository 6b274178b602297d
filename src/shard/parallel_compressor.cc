#include "src/shard/parallel_compressor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>

#include "src/graph/node_order.h"
#include "src/query/compressed_graph.h"
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

namespace {

// Integer option with loud range validation: the options narrow to
// int, so out-of-range values must fail, not wrap.
Result<int64_t> GetIntInRange(const api::CodecOptions& options,
                              const std::string& key, int64_t def,
                              int64_t min, int64_t max) {
  auto value = options.GetInt(key, def);
  if (!value.ok()) return value.status();
  if (value.value() < min || value.value() > max) {
    return Status::InvalidArgument(
        "option " + key + "=" + std::to_string(value.value()) +
        " out of range [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  return value.value();
}

}  // namespace

Result<CompressOptions> ParseCompressOptions(
    const api::CodecOptions& options) {
  GREPAIR_RETURN_IF_ERROR(
      options.ExpectKeys({"max-rank", "order", "seed", "virtual", "prune"}));
  CompressOptions opts;
  auto max_rank = GetIntInRange(options, "max-rank", opts.max_rank,
                                kMinMaxRank, kMaxMaxRank);
  if (!max_rank.ok()) return max_rank.status();
  opts.max_rank = static_cast<int>(max_rank.value());
  std::string order = options.GetString("order", "");
  if (!order.empty() && !ParseNodeOrderKind(order, &opts.node_order)) {
    return Status::InvalidArgument("unknown node order '" + order + "'");
  }
  auto seed = GetIntInRange(options, "seed",
                            static_cast<int64_t>(opts.order_seed), 0,
                            INT64_MAX);
  if (!seed.ok()) return seed.status();
  opts.order_seed = static_cast<uint64_t>(seed.value());
  auto virt = options.GetBool("virtual", opts.connect_components);
  if (!virt.ok()) return virt.status();
  opts.connect_components = virt.value();
  auto prune = options.GetBool("prune", opts.prune);
  if (!prune.ok()) return prune.status();
  opts.prune = prune.value();
  return opts;
}

ParallelCompressor::ParallelCompressor(const CompressOptions& options,
                                       int num_threads)
    : options_(options),
      num_threads_(std::max(1, std::min(num_threads, 256))) {}

Result<std::vector<std::vector<uint8_t>>> ParallelCompressor::CompressShards(
    const GraphPartition& partition, const Alphabet& alphabet) const {
  size_t count = partition.shards.size();
  std::vector<std::vector<uint8_t>> results(count);
  std::vector<Status> statuses(count);

  RunIndexedOnPool(count, num_threads_, [&](size_t i) {
    const Shard& shard = partition.shards[i];
    if (shard.graph.num_edges() == 0) return;  // empty payload slot
    auto graph = CompressedGraph::FromGraph(shard.graph, alphabet, options_);
    if (!graph.ok()) {
      statuses[i] = graph.status();
      return;
    }
    results[i] = graph.value().Serialize();
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
