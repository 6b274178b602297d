// Tagged codec container: the on-disk framing for backend-tagged
// compressed files.
//
// A container is `magic "GRPCODEC" | u8 name_len | name | payload`,
// where `name` is the registry name of the codec that produced
// `payload` (its CompressedRep::Serialize() bytes). Every compressed
// file the CLI writes is one such frame, and this module is the one
// place that knows how a file on disk is recognized and opened: a
// tagged file (OpenCompressedFile), a versioned corpus of a base plus
// GRSHARD3 deltas (OpenVersioned, ApplyDeltaChain), or just the frame
// for inspection without decoding (MapCodecFile). Untagged files are
// refused. The layout is a stability surface: golden-file tests
// (tests/container_format_test.cc) pin the exact bytes, so any change
// here must bump the magic, not mutate the existing frame.

#ifndef GREPAIR_API_CONTAINER_H_
#define GREPAIR_API_CONTAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/byte_io.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"

namespace grepair {
namespace api {

class CompressedRep;

/// \brief The 8-byte frame magic ("GRPCODEC", no terminator).
extern const char kCodecContainerMagic[8];

/// \brief Frames `payload` as a backend-tagged container. `name` must
/// be a registry-style codec name of at most 255 bytes.
std::vector<uint8_t> WrapCodecPayload(const std::string& name,
                                      const std::vector<uint8_t>& payload);

/// \brief True if `bytes` starts with the container magic.
bool IsCodecContainer(ByteSpan bytes);
bool IsCodecContainer(const std::vector<uint8_t>& bytes);

/// \brief Splits a tagged container into codec name + payload.
/// kInvalidArgument when the magic is absent (the bytes are not a
/// tagged container); kCorruption when the magic is present but the
/// frame is truncated.
Status UnwrapCodecPayload(const std::vector<uint8_t>& bytes,
                          std::string* name, std::vector<uint8_t>* payload);

/// \brief Zero-copy unwrap: same contract as UnwrapCodecPayload, but
/// `*payload` is a borrowed view into `bytes` — nothing is copied, so
/// a multi-gigabyte mapped container costs only the name parse here.
Status UnwrapCodecPayloadView(ByteSpan bytes, std::string* name,
                              ByteSpan* payload);

/// \brief Maps `path` and splits its tagged frame without decoding
/// the payload: `*name` receives the codec name and `*payload` a view
/// into the returned mapping (valid while the mapping lives).
/// kInvalidArgument ("<path> is not a backend-tagged container") when
/// the file does not start with the magic; kCorruption when the frame
/// is truncated.
Result<std::shared_ptr<MmapFile>> MapCodecFile(const std::string& path,
                                               std::string* name,
                                               ByteSpan* payload);

/// \brief Opens a backend-tagged compressed file via mmap, resolving
/// the codec named in the frame through the registry; the codec's
/// OpenPayload decides eager vs lazy materialization (the sharded
/// GRSHARD2 path stays lazy and keeps the mapping alive). On success
/// `*backend_name` (optional) receives the embedded codec name.
/// Errors as MapCodecFile, plus the registry's for an unknown codec.
Result<std::unique_ptr<CompressedRep>> OpenCompressedFile(
    const std::string& path, std::string* backend_name = nullptr);

/// \brief Applies GRSHARD3 delta files, in chain order, to `rep`, an
/// open sharded corpus. Each delta's lineage is verified before its
/// payload is trusted: it must record the (hash, size) of the previous
/// file in the chain, its directory checksum must match `rep`'s
/// (checked inside ShardedRep::ApplyDelta), and its own trailing
/// checksum must hold. `base_path` anchors the first link: the local
/// file `rep` was opened from, whose hash and size the first delta must
/// record. An empty `base_path` means a served base (api::OpenRemote):
/// its bytes live on the server, so the directory checksum alone
/// anchors the first link. Deltas are cumulative, so `rep` ends at the
/// version the last delta describes; an empty chain is a no-op.
/// kInvalidArgument when deltas are given and `rep` is not a sharded
/// corpus; kCorruption on any chain mismatch. On failure
/// `rep` may hold an earlier link's version: discard it.
Status ApplyDeltaChain(CompressedRep* rep, const std::string& base_path,
                       const std::vector<std::string>& delta_paths);

/// \brief Opens a versioned corpus: `base_path` (a backend-tagged
/// sharded GRSHARD2 container) plus zero or more GRSHARD3 delta files
/// in chain order, through ApplyDeltaChain anchored at `base_path`.
/// kInvalidArgument when the base is not a sharded container;
/// kCorruption on any chain mismatch (fail closed — a wrong-base delta
/// is never partially applied).
Result<std::unique_ptr<CompressedRep>> OpenVersioned(
    const std::string& base_path,
    const std::vector<std::string>& delta_paths,
    std::string* backend_name = nullptr);

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_CONTAINER_H_
