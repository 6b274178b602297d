// ParallelCompressor: drives any GraphCodec over the shards of a
// GraphPartition with a fixed-size thread pool.
//
// Output is deterministic regardless of thread count or scheduling:
// workers claim shard indices from an atomic counter and write results
// into per-index slots, so shard i's bytes are shard i's bytes whether
// they were produced first or last (the threads=1 vs threads=8
// byte-identity test in tests/parallel_compressor_test.cc pins this).
// GraphCodec::Compress is documented stateless/thread-safe; this class
// is what cashes that promise in.

#ifndef GREPAIR_SHARD_PARALLEL_COMPRESSOR_H_
#define GREPAIR_SHARD_PARALLEL_COMPRESSOR_H_

#include <functional>
#include <vector>

#include "src/api/graph_codec.h"
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

class ParallelCompressor {
 public:
  /// \brief `inner` must outlive the compressor; `num_threads` is
  /// clamped to [1, 256].
  ParallelCompressor(const api::GraphCodec& inner, int num_threads);

  /// \brief Compresses every shard of `partition` (over `alphabet`,
  /// with `inner_options` forwarded to the inner codec) and returns
  /// each shard's serialized inner payload, in shard order. Edgeless
  /// shards get an empty payload (inner codecs never see them). On
  /// any per-shard failure returns the failing status of the lowest
  /// shard index (deterministic even when several shards fail).
  Result<std::vector<std::vector<uint8_t>>> CompressShards(
      const GraphPartition& partition, const Alphabet& alphabet,
      const api::CodecOptions& inner_options) const;

  int num_threads() const { return num_threads_; }

 private:
  const api::GraphCodec& inner_;
  int num_threads_;
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_PARALLEL_COMPRESSOR_H_
