// ParallelCompressor: compresses the shards of a GraphPartition into
// grepair payloads with a fixed-size thread pool.
//
// Output is deterministic regardless of thread count or scheduling:
// workers claim shard indices from an atomic counter and write results
// into per-index slots, so shard i's bytes are shard i's bytes whether
// they were produced first or last (the threads=1 vs threads=8
// byte-identity test in tests/parallel_compressor_test.cc pins this).

#ifndef GREPAIR_SHARD_PARALLEL_COMPRESSOR_H_
#define GREPAIR_SHARD_PARALLEL_COMPRESSOR_H_

#include <functional>
#include <vector>

#include "src/api/graph_codec.h"
#include "src/grepair/compressor.h"
#include "src/shard/partitioner.h"
#include "src/util/status.h"

namespace grepair {
namespace shard {

/// \brief Runs `fn(i)` for every index in [0, count) on up to
/// `threads` workers claiming indices from a shared atomic counter.
/// `fn` must be safe to call concurrently for distinct indices.
/// threads is clamped to [1, 256]; threads <= 1 runs inline.
void RunIndexedOnPool(size_t count, int threads,
                      const std::function<void(size_t)>& fn);

/// \brief The grepair codec options (max-rank, order, seed, virtual,
/// prune) as CompressOptions, checked against Compress's own bounds.
/// kInvalidArgument on an unknown key or a bad value. Both codecs call
/// it before any work, so an edgeless graph refuses what any other
/// graph refuses.
Result<CompressOptions> ParseCompressOptions(const api::CodecOptions& options);

class ParallelCompressor {
 public:
  /// \brief Compresses with `options`; `num_threads` is clamped to
  /// [1, 256].
  ParallelCompressor(const CompressOptions& options, int num_threads);

  /// \brief Compresses every shard of `partition` (over `alphabet`)
  /// and returns each shard's serialized grammar payload (psi' kept),
  /// in shard order. Edgeless shards get an empty payload. On any
  /// per-shard failure returns the failing status of the lowest shard
  /// index (deterministic even when several shards fail).
  Result<std::vector<std::vector<uint8_t>>> CompressShards(
      const GraphPartition& partition, const Alphabet& alphabet) const;

  int num_threads() const { return num_threads_; }

 private:
  CompressOptions options_;
  int num_threads_;
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_PARALLEL_COMPRESSOR_H_
