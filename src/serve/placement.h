// Histogram-driven shard placement: turning the per-shard hit
// histograms the STATS verb collects into residency decisions on the
// client. The server only counts hits; it decides no residency.
//
// One heat rule decides residency: PlanByHeat fills a byte budget
// hottest-first. It is deterministic (heat descending, then id
// ascending), so an unchanged histogram gives an unchanged plan and
// tests can predict it exactly.
//
// The SSD tier (src/serve/tiered.h) caches exactly the shards
// PlanByHeat picks under its budget. The `.grdir` sidecar next to the
// tier's directory keeps the histogram (DirSidecar, format v2): a
// client that reopens a corpus knows which shards were hot *before*
// it issues the first query, so OpenRemoteContainer can plan the tier
// and prefetch hot shards at open time instead of rediscovering the
// working set one cold fault at a time.

#ifndef GREPAIR_SERVE_PLACEMENT_H_
#define GREPAIR_SERVE_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {
namespace serve {

/// \brief Shard ids ordered by heat: hits descending, id ascending as
/// the tie-break, shards with zero hits omitted. The one ranking the
/// open-time warmer and the SSD tier share, so their notions of "hot"
/// agree.
std::vector<size_t> RankByHeat(const std::vector<uint64_t>& histogram);

/// \brief The one budget-fill rule for shard residency: the shards
/// RankByHeat ranks, then the cold ones in id order, packed greedily
/// into `budget` bytes. Zero-length shards are skipped, and so is a
/// shard that would overflow — it is not a stopper, so smaller shards
/// behind it still fit. `heat` is empty (every shard cold) or holds
/// one hit count per entry of `lengths`. Returns the chosen ids in
/// fill order.
std::vector<size_t> PlanByHeat(const std::vector<uint64_t>& heat,
                               const std::vector<uint64_t>& lengths,
                               uint64_t budget);

/// \brief A persisted corpus directory plus the hit histogram that was
/// current when it was saved — the `.grdir` sidecar's contents.
struct DirSidecar {
  uint64_t dir_off = 0;                ///< directory offset in container
  std::vector<uint8_t> raw_directory;  ///< raw v2 directory bytes
  uint64_t histogram_epoch = 0;  ///< server's corpus request counter at
                                 ///< save time (0 = no histogram yet)
  std::vector<uint64_t> histogram;  ///< per-shard hits at save time
};

/// \brief The SSD tier's own directory for `corpus` inside `cache_dir`
/// (the empty corpus name maps to "_default").
std::string CorpusCacheDir(const std::string& cache_dir,
                           const std::string& corpus);

/// \brief Sidecar path for `corpus`: CorpusCacheDir plus ".grdir", a
/// sibling of the tier's directory.
std::string DirSidecarPath(const std::string& cache_dir,
                           const std::string& corpus);

/// \brief The sidecar's bytes (format v2: directory + histogram,
/// checksummed).
std::vector<uint8_t> EncodeDirSidecar(const DirSidecar& sidecar);

/// \brief Writes EncodeDirSidecar's bytes. Best-effort — a failed write
/// only costs the offline-open and open-time-warming features.
void SaveDirSidecar(const std::string& path, const DirSidecar& sidecar);

/// \brief Verifies and parses format-v2 sidecar bytes. kCorruption on
/// checksum/layout damage or any other version — a tampered or
/// foreign sidecar fails closed. The raw directory still needs
/// ParseV2Directory; the parser only peels the envelope.
Result<DirSidecar> ParseDirSidecar(ByteSpan bytes);

/// \brief Reads `path` and parses it like ParseDirSidecar; errors name
/// the path.
Result<DirSidecar> LoadDirSidecar(const std::string& path);

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_PLACEMENT_H_
