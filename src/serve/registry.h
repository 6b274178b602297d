// CorpusRegistry: the set of GRSHARD2 containers one shard-server
// process exports, each under an operator-chosen name.
//
// A corpus is registered from a file (`AddFile`, mmap-backed — the
// O(directory) lazy-open property of the storage layer carries over:
// registering N corpora faults no payload pages), from caller-owned
// bytes (`AddBytes`, the in-process test path), or by scanning a
// directory (`DiscoverDirectory`: every servable container found
// becomes a corpus named after its file). Every container is fully
// validated at registration — checksummed footer located, directory
// parsed with the hardened untrusted-input parser, and every frame the
// server could ever build from it checked against the GRNF body bound
// — so a corrupt corpus is refused at startup, never discovered by the
// first client.
//
// After the owning server starts, the registry is frozen: corpora are
// addressed by a dense u32 corpus id (their registration index), and
// lookups touch no locks. The per-corpus serving counters (request
// totals and the per-shard hit histogram behind the GRNF STATS verb)
// are atomics, mutated by connection threads and snapshot by stats
// readers without synchronization.

#ifndef GREPAIR_SERVE_REGISTRY_H_
#define GREPAIR_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/shard/sharded_codec.h"
#include "src/util/byte_io.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"

namespace grepair {
namespace serve {

/// \brief Corpus names are length-prefixed with a u8 on the wire.
inline constexpr size_t kMaxCorpusNameBytes = 255;

/// \brief One registered container plus its serving counters.
struct Corpus {
  std::string name;
  std::shared_ptr<MmapFile> file;  ///< pins payload_ when non-null
  ByteSpan payload;                ///< the GRSHARD2 container bytes
  ByteSpan dir_region;             ///< footer directory inside payload
  uint64_t dir_off = 0;
  std::string inner_name;
  uint64_t num_nodes = 0;
  std::vector<shard::ShardDirEntry> rows;

  // Serving counters (incremented by connection threads).
  mutable std::atomic<uint64_t> requests{0};
  /// Per-shard hit histogram (rows.size() slots): the hot-shard signal
  /// behind the STATS verb, the SSD tier's plan and open-time warming.
  std::unique_ptr<std::atomic<uint64_t>[]> shard_hits;
};

class CorpusRegistry {
 public:
  CorpusRegistry() = default;
  CorpusRegistry(CorpusRegistry&&) = default;
  CorpusRegistry& operator=(CorpusRegistry&&) = default;
  CorpusRegistry(const CorpusRegistry&) = delete;
  CorpusRegistry& operator=(const CorpusRegistry&) = delete;

  /// \brief Registers the container at `path` (a "sharded:grepair"
  /// tagged file or a bare GRSHARD2 container) under `name`.
  /// kInvalidArgument for bad names, duplicate names, old single-codec
  /// files (any other tag), and containers whose directory or shards
  /// exceed the frame bound; kNotFound when the tag or the directory
  /// names another inner codec than grepair; kCorruption for anything
  /// else that is not an intact GRSHARD2 container.
  Status AddFile(const std::string& name, const std::string& path);

  /// \brief Registers caller-owned container bytes under `name`. The
  /// caller keeps `payload`'s storage alive for the registry's
  /// lifetime (the in-process test path serving a serialized buffer).
  Status AddBytes(const std::string& name, ByteSpan payload);

  /// \brief Scans the directory at `path` (non-recursive) and
  /// registers every servable container in it, named by file basename
  /// minus extension. Files that are not servable containers are
  /// skipped (a corpus directory may hold sidecar files); name
  /// collisions with already-registered corpora are errors. *added
  /// (when non-null) receives the names registered, sorted.
  Status DiscoverDirectory(const std::string& path,
                           std::vector<std::string>* added = nullptr);

  /// \brief Resolves a client-supplied corpus name. The empty name
  /// resolves iff exactly one corpus is registered (so single-corpus
  /// deployments need no name); unknown names are kNotFound listing
  /// what is served. *corpus_id (when non-null) receives the dense id.
  Result<const Corpus*> Resolve(const std::string& name,
                                uint32_t* corpus_id = nullptr) const;

  size_t size() const { return corpora_.size(); }
  bool empty() const { return corpora_.empty(); }
  const Corpus& at(size_t corpus_id) const { return *corpora_[corpus_id]; }

 private:
  Status Add(const std::string& name, std::shared_ptr<MmapFile> file,
             ByteSpan payload);

  std::vector<std::unique_ptr<Corpus>> corpora_;
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_REGISTRY_H_
