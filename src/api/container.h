// Tagged codec container: the on-disk framing of every compressed
// file.
//
// A container is `magic "GRPCODEC" | u8 name_len | name | payload`,
// where `name` is the registry name of the codec that produced
// `payload`. There is one file kind: the tag "sharded:grepair" around
// a checksummed GRSHARD2 payload (src/shard/container.h), which
// this module opens lazily (OpenCompressedFile), as a base plus
// GRSHARD3 deltas (OpenVersioned, ApplyDeltaChain), or as a bare frame
// (MapShardedFile). Untagged files are refused, and so is any other
// tag: an old single-codec file, which carried no checksum and must
// be recompressed, or the sharded tag of a deleted inner codec (k2).
// Golden-file tests (tests/container_format_test.cc) pin the frame
// bytes, so changing it means bumping the magic.

#ifndef GREPAIR_API_CONTAINER_H_
#define GREPAIR_API_CONTAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/shard/sharded_codec.h"
#include "src/util/byte_io.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"

namespace grepair {
namespace api {

/// \brief The 8-byte frame magic ("GRPCODEC", no terminator).
extern const char kCodecContainerMagic[8];

/// \brief Frames `payload` as a backend-tagged container. `name` must
/// be a registry-style codec name of at most 255 bytes.
std::vector<uint8_t> WrapCodecPayload(const std::string& name,
                                      const std::vector<uint8_t>& payload);

/// \brief True if `bytes` starts with the container magic.
bool IsCodecContainer(ByteSpan bytes);

/// \brief Splits a tagged container into codec name + payload without
/// copying: `*payload` is a borrowed view into `bytes`, so a
/// multi-gigabyte mapped container costs only the name parse here.
/// kInvalidArgument when the magic is absent (the bytes are not a
/// tagged container); kCorruption when the magic is present but the
/// frame is truncated.
Status UnwrapCodecPayloadView(ByteSpan bytes, std::string* name,
                              ByteSpan* payload);

/// \brief UnwrapCodecPayloadView for a tag that must be
/// "sharded:grepair". kInvalidArgument "<where> is not a
/// backend-tagged container" without the magic, and "<where> is an old
/// single-codec '<tag>' file; recompress it ..." for a tag without the
/// "sharded:" prefix; kNotFound "no codec named '<inner>'" for any
/// other "sharded:<inner>" (shard::CheckInnerCodecName); kCorruption
/// for a truncated frame.
Status UnwrapShardedPayload(const std::string& where, ByteSpan bytes,
                            ByteSpan* payload);

/// \brief Maps `path` and splits it with UnwrapShardedPayload; the
/// payload view lives as long as the returned mapping.
Result<std::shared_ptr<MmapFile>> MapShardedFile(const std::string& path,
                                                 ByteSpan* payload);

/// \brief Opens a file via mmap as a lazy sharded rep: the GRSHARD2
/// directory is verified at open, shards fault in on first touch, and
/// the rep keeps the mapping alive. Errors as MapShardedFile, plus the
/// container parser's and ShardedRep's (a directory naming another
/// inner codec than grepair is kNotFound).
Result<std::unique_ptr<shard::ShardedRep>> OpenCompressedFile(
    const std::string& path);

/// \brief Applies GRSHARD3 delta files, in chain order, to `rep`. Each
/// delta's lineage is verified before its payload is trusted: it must
/// record the (hash, size) of the previous file in the chain, its
/// directory checksum must match `rep`'s (checked inside
/// ShardedRep::ApplyDelta), and its own trailing checksum must hold.
/// `base_path` anchors the first link: the local file `rep` was opened
/// from, whose hash and size the first delta must record. An empty
/// `base_path` means a served base (api::OpenRemote): its bytes live
/// on the server, so the directory checksum alone anchors the first
/// link. Deltas are cumulative, so `rep` ends at the version the last
/// delta describes; an empty chain is a no-op. kCorruption on any
/// chain mismatch. On failure `rep` may hold an earlier link's
/// version: discard it.
Status ApplyDeltaChain(shard::ShardedRep* rep, const std::string& base_path,
                       const std::vector<std::string>& delta_paths);

/// \brief Opens a versioned corpus: `base_path` (opened as by
/// OpenCompressedFile) plus zero or more GRSHARD3 delta files in chain
/// order, through ApplyDeltaChain anchored at `base_path`. kCorruption
/// on any chain mismatch (fail closed: a wrong-base delta is never
/// partially applied).
Result<std::unique_ptr<shard::ShardedRep>> OpenVersioned(
    const std::string& base_path,
    const std::vector<std::string>& delta_paths);

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_CONTAINER_H_
