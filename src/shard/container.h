// GRSHARD2 bytes in and out: the sharded container's encoder, its
// footer-directory parser and the node-map codec both share.
//
// Layout (little-endian, pinned by golden tests in
// tests/container_format_test.cc; bump the magic to change it): the
// magic, shard payloads back to back, a footer directory of per-shard
// {offset, length, checksum, node map} rows, and a trailer holding the
// directory's offset, length and checksum. src/shard/README.md gives
// the exact byte layout. Nothing here decodes a shard payload.

#ifndef GREPAIR_SHARD_CONTAINER_H_
#define GREPAIR_SHARD_CONTAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/shard/partitioner.h"
#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {
namespace shard {

/// \brief The 8-byte sharded-container magic (version byte last).
extern const char kShardContainerMagicV2[8];  ///< "GRSHARD2"

/// \brief Most directory rows a container may hold: the data shards
/// plus the cut shard.
inline constexpr size_t kMaxShardCount = static_cast<size_t>(kMaxShards) + 1;

/// \brief One directory row.
struct ShardDirEntry {
  uint64_t offset = 0;      ///< payload offset from container start
  uint64_t length = 0;      ///< payload byte length (0 = edgeless)
  uint64_t checksum = 0;    ///< payload checksum (0 when edgeless)
  uint64_t node_count = 0;  ///< node-map length n_k
};

/// \brief A fully parsed GRSHARD2 footer directory: everything a lazy
/// rep needs except the payload bytes themselves. This is the unit
/// the shard server ships to remote clients (as the verbatim
/// directory byte region), so the network path reuses exactly the
/// hardened parser the file path uses.
struct ParsedDirectory {
  std::string inner_name;
  uint64_t num_nodes = 0;
  std::vector<ShardDirEntry> rows;
  std::vector<std::vector<NodeId>> node_maps;  ///< rows.size() entries
  /// Checksum of the raw directory bytes (the v2 trailer's value; a
  /// remote client recomputes it over the shipped region). This is a
  /// corpus *version identity*: GRSHARD3 deltas bind to it, and the
  /// serve tier compares it before trusting a persisted sidecar.
  uint64_t dir_checksum = 0;
};

/// \brief A container's parsed directory plus where it sits.
struct ParsedContainer {
  ParsedDirectory dir;
  uint64_t dir_off = 0;  ///< directory offset inside the container
  ByteSpan region;       ///< the raw directory bytes (borrows the input)
};

/// \brief Parses a whole GRSHARD2 container: checks the magic and its
/// version byte, the trailer and the directory checksum, then parses
/// the directory (ParseV2Directory). Every failure is kCorruption; a
/// wrong magic or version names "not a sharded v2 container".
Result<ParsedContainer> ParseContainer(ByteSpan container);

/// \brief Parses raw GRSHARD2 directory bytes shipped without their
/// container (the remote pool and the `.grdir` sidecar) with full
/// untrusted-input hardening: shard/node-count bounds, node-map range
/// checks, payload ranges confined to [8, dir_off), no trailing bytes.
/// `dir_off` is the directory's offset inside its container (remote
/// clients pass the server-reported value; they never dereference the
/// offsets).
Result<ParsedDirectory> ParseV2Directory(ByteSpan dir, uint64_t dir_off);

/// \brief Streams a GRSHARD2 container: payload blobs go out back to
/// back as shards are added, directory rows accumulate in a side
/// buffer, and Finish() appends the directory and the checksummed
/// trailer. The one encoder behind Compress and SerializeV2.
class V2Encoder {
 public:
  V2Encoder(const std::string& inner_name, uint64_t num_nodes,
            size_t shard_count);

  /// \brief Appends the next shard: its payload (empty = edgeless,
  /// recorded with offset and checksum 0) and its directory row.
  void AddShard(const std::vector<NodeId>& nodes, ByteSpan payload,
                uint64_t checksum);

  std::vector<uint8_t> Finish() &&;

  /// \brief Exact container size without encoding: FixedBytes, plus
  /// RowBytes and the payload length per shard.
  static size_t FixedBytes(const std::string& inner_name);
  static size_t RowBytes(const std::vector<NodeId>& nodes);

 private:
  std::vector<uint8_t> out_;
  std::vector<uint8_t> dir_;
};

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_CONTAINER_H_
