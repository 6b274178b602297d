#include "src/shard/container.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/util/elias.h"
#include "src/util/hashing.h"

namespace grepair {
namespace shard {

const char kShardContainerMagicV2[8] = {'G', 'R', 'S', 'H', 'A', 'R', 'D',
                                        '2'};

namespace {

// Trailer: u64 directory offset + u64 directory length + u64 directory
// checksum.
constexpr size_t kV2TrailerBytes = 24;

// Fixed bytes of one directory row: offset, length, checksum and
// node-map length (u64 each), then the u32 node-map byte length.
constexpr size_t kV2RowBytes = 4 * 8 + 4;

// Appends the sorted node map as Elias-delta gaps (ids shifted by one,
// gaps strictly positive), byte-aligned so payloads stay addressable.
void EncodeNodeMap(const std::vector<NodeId>& nodes,
                   std::vector<uint8_t>* out) {
  BitWriter w;
  uint64_t prev = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    uint64_t shifted = static_cast<uint64_t>(nodes[i]) + 1;
    EliasDeltaEncode(i == 0 ? shifted : shifted - prev, &w);
    prev = shifted;
  }
  w.AlignToByte();
  auto bytes = w.TakeBytes();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

// Decodes a node map off the cursor's remaining window, advancing it
// past the (data-dependent, byte-aligned) consumed length.
Status DecodeNodeMap(ByteSource* src, uint64_t count, uint64_t num_nodes,
                     std::vector<NodeId>* nodes) {
  if (count > num_nodes) {
    return Status::Corruption("shard node map larger than graph");
  }
  ByteSpan in = src->PeekRemaining();
  // num_nodes is itself untrusted (isolated nodes are free, so it
  // cannot be bounded by input size) — bound the allocation-driving
  // count by the remaining input instead: every map entry costs at
  // least one bit.
  if (count > in.size * 8) {
    return Status::Corruption("shard node map exceeds input size");
  }
  BitReader r(in.data, in.size * 8);
  nodes->clear();
  // One entry per input byte up front: an honest gap code takes about
  // 9 bits, so that is the whole map, while a count that claims 1-bit
  // entries gets 4 bytes per input byte before any gap is validated.
  // Growth past it is pay-as-you-decode, proportional to the input
  // actually consumed.
  nodes->reserve(static_cast<size_t>(std::min<uint64_t>(count, in.size)));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap = 0;
    Status decoded = EliasDeltaDecode(&r, &gap);
    if (!decoded.ok()) {
      // Normalize the bit reader's kOutOfRange exhaustion: to callers
      // (including remote clients parsing a served directory) a map
      // that ends early is corrupt input, full stop.
      return Status::Corruption("shard node map truncated at entry " +
                                std::to_string(i) + ": " +
                                decoded.message());
    }
    // Checked as `gap > limit`, not `prev + gap > num_nodes`: a gap
    // near 2^64 would wrap the sum back into range and smuggle in an
    // unsorted map that a binary search cannot query.
    if (gap > num_nodes - prev) {
      return Status::Corruption("shard node map id out of range");
    }
    uint64_t shifted = prev + gap;  // >= 1: Elias codes are >= 1
    nodes->push_back(static_cast<NodeId>(shifted - 1));
    prev = shifted;
  }
  return src->Skip((r.position() + 7) / 8);
}

}  // namespace

Result<ParsedDirectory> ParseV2Directory(ByteSpan dir_bytes,
                                         uint64_t dir_off) {
  ByteSource dir(dir_bytes, "sharded v2 directory");
  ParsedDirectory parsed;
  uint8_t name_len = 0;
  GREPAIR_RETURN_IF_ERROR(dir.ReadU8(&name_len));
  if (name_len == 0) {
    return Status::Corruption("sharded v2 container has empty codec name");
  }
  ByteSpan name;
  GREPAIR_RETURN_IF_ERROR(dir.ReadSpan(name_len, &name));
  parsed.inner_name.assign(name.begin(), name.end());
  uint32_t shard_count = 0;
  GREPAIR_RETURN_IF_ERROR(dir.ReadU64LE(&parsed.num_nodes));
  GREPAIR_RETURN_IF_ERROR(dir.ReadU32LE(&shard_count));
  if (parsed.num_nodes > 0xFFFFFFFFull) {
    return Status::Corruption("sharded container node count out of range");
  }
  if (shard_count < 1 || shard_count > kMaxShardCount) {
    return Status::Corruption("sharded container shard count out of range");
  }
  for (uint32_t i = 0; i < shard_count; ++i) {
    ShardDirEntry row;
    GREPAIR_RETURN_IF_ERROR(dir.ReadU64LE(&row.offset));
    GREPAIR_RETURN_IF_ERROR(dir.ReadU64LE(&row.length));
    GREPAIR_RETURN_IF_ERROR(dir.ReadU64LE(&row.checksum));
    GREPAIR_RETURN_IF_ERROR(dir.ReadU64LE(&row.node_count));
    uint32_t map_len = 0;
    ByteSpan map;
    GREPAIR_RETURN_IF_ERROR(dir.ReadU32LE(&map_len));
    GREPAIR_RETURN_IF_ERROR(dir.ReadSpan(map_len, &map));
    if (row.length == 0) {
      // Edgeless shards pin their unused fields to zero so single-bit
      // corruption there cannot hide until (a nonexistent) fault time.
      if (row.offset != 0 || row.checksum != 0) {
        return Status::Corruption(
            "shard " + std::to_string(i) +
            " is edgeless but has nonzero payload offset/checksum");
      }
    } else if (row.offset < 8 || row.offset > dir_off ||
               row.length > dir_off - row.offset) {
      return Status::Corruption(
          "shard " + std::to_string(i) + " payload out of range: offset " +
          std::to_string(row.offset) + " + length " +
          std::to_string(row.length) + " exceeds the payload region [8, " +
          std::to_string(dir_off) + ")");
    }
    std::vector<NodeId> nodes;
    ByteSource map_src(map, "shard " + std::to_string(i) + " node map");
    GREPAIR_RETURN_IF_ERROR(
        DecodeNodeMap(&map_src, row.node_count, parsed.num_nodes, &nodes));
    GREPAIR_RETURN_IF_ERROR(map_src.ExpectExhausted("node map"));
    parsed.rows.push_back(row);
    parsed.node_maps.push_back(std::move(nodes));
  }
  GREPAIR_RETURN_IF_ERROR(dir.ExpectExhausted("sharded v2 directory"));
  // The corpus version identity: equals the v2 trailer's checksum for
  // a local file (ParseContainer verified that), and is the
  // independent recomputation over the shipped region for a remote
  // directory. GRSHARD3 deltas bind to this value.
  parsed.dir_checksum = HashBytes(dir_bytes.data, dir_bytes.size);
  return parsed;
}

Result<ParsedContainer> ParseContainer(ByteSpan bytes) {
  // The first 7 magic bytes name the family, the eighth the version:
  // only GRSHARD2 is a standalone container, so any other version byte
  // fails as a version error rather than as a misparse.
  if (bytes.size < 8 ||
      std::memcmp(bytes.data, kShardContainerMagicV2, 7) != 0) {
    return Status::Corruption("not a sharded v2 container (bad magic)");
  }
  if (bytes[7] != kShardContainerMagicV2[7]) {
    return Status::Corruption(
        "not a sharded v2 container: unsupported sharded container "
        "version (expected GRSHARD2)");
  }
  if (bytes.size < 8 + kV2TrailerBytes) {
    return Status::Corruption(
        "not a sharded v2 container (" + std::to_string(bytes.size) +
        " byte(s), need at least " + std::to_string(8 + kV2TrailerBytes) +
        ")");
  }
  ByteSource trailer(
      bytes.subspan(bytes.size - kV2TrailerBytes, kV2TrailerBytes),
      "sharded v2 trailer");
  ParsedContainer out;
  uint64_t dir_len = 0, dir_checksum = 0;
  GREPAIR_RETURN_IF_ERROR(trailer.ReadU64LE(&out.dir_off));
  GREPAIR_RETURN_IF_ERROR(trailer.ReadU64LE(&dir_len));
  GREPAIR_RETURN_IF_ERROR(trailer.ReadU64LE(&dir_checksum));
  uint64_t body_end = bytes.size - kV2TrailerBytes;
  if (out.dir_off < 8 || out.dir_off > body_end ||
      dir_len != body_end - out.dir_off) {
    return Status::Corruption(
        "sharded v2 directory out of range: offset " +
        std::to_string(out.dir_off) + " + length " + std::to_string(dir_len) +
        " must end at byte " + std::to_string(body_end) + " of " +
        std::to_string(bytes.size));
  }
  out.region = bytes.subspan(out.dir_off, dir_len);
  uint64_t actual = HashBytes(out.region.data, out.region.size);
  if (actual != dir_checksum) {
    return Status::Corruption(
        "sharded v2 directory checksum mismatch (expected " +
        HexU64(dir_checksum) + ", got " + HexU64(actual) + ")");
  }
  auto dir = ParseV2Directory(out.region, out.dir_off);
  if (!dir.ok()) return dir.status();
  out.dir = std::move(dir).ValueOrDie();
  return out;
}

Status CheckInnerCodecName(const std::string& name) {
  if (name == kInnerCodecName) return Status::OK();
  return Status::NotFound("no codec named '" + name + "'");
}

V2Encoder::V2Encoder(uint64_t num_nodes, size_t shard_count)
    : out_(kShardContainerMagicV2, kShardContainerMagicV2 + 8) {
  const size_t name_len = sizeof(kInnerCodecName) - 1;
  dir_.push_back(static_cast<uint8_t>(name_len));
  dir_.insert(dir_.end(), kInnerCodecName, kInnerCodecName + name_len);
  PutU64LE(num_nodes, &dir_);
  PutU32LE(static_cast<uint32_t>(shard_count), &dir_);
}

void V2Encoder::AddShard(const std::vector<NodeId>& nodes, ByteSpan payload,
                         uint64_t checksum) {
  bool edgeless = payload.size == 0;
  PutU64LE(edgeless ? 0 : out_.size(), &dir_);
  PutU64LE(payload.size, &dir_);
  PutU64LE(edgeless ? 0 : checksum, &dir_);
  PutU64LE(nodes.size(), &dir_);
  std::vector<uint8_t> map;
  EncodeNodeMap(nodes, &map);
  PutU32LE(static_cast<uint32_t>(map.size()), &dir_);
  dir_.insert(dir_.end(), map.begin(), map.end());
  out_.insert(out_.end(), payload.begin(), payload.end());
}

std::vector<uint8_t> V2Encoder::Finish() && {
  uint64_t dir_off = out_.size();
  out_.insert(out_.end(), dir_.begin(), dir_.end());
  PutU64LE(dir_off, &out_);
  PutU64LE(dir_.size(), &out_);
  PutU64LE(HashBytes(dir_.data(), dir_.size()), &out_);
  return std::move(out_);
}

size_t V2Encoder::FixedBytes() {
  // Magic, directory head (name, node count, shard count), trailer.
  return 8 + 1 + (sizeof(kInnerCodecName) - 1) + 8 + 4 + kV2TrailerBytes;
}

size_t V2Encoder::RowBytes(const std::vector<NodeId>& nodes) {
  // The node map's byte length, computed without encoding it.
  size_t bits = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    uint64_t shifted = static_cast<uint64_t>(nodes[i]) + 1;
    bits += EliasDeltaLength(i == 0 ? shifted : shifted - prev);
    prev = shifted;
  }
  return kV2RowBytes + (bits + 7) / 8;
}

}  // namespace shard
}  // namespace grepair
