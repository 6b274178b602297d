#include "src/api/container.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "src/shard/delta_overlay.h"
#include "src/util/hashing.h"

namespace grepair {
namespace api {

const char kCodecContainerMagic[8] = {'G', 'R', 'P', 'C', 'O', 'D', 'E', 'C'};

std::vector<uint8_t> WrapCodecPayload(const std::string& name,
                                      const std::vector<uint8_t>& payload) {
  assert(name.size() <= 255);
  std::vector<uint8_t> out(kCodecContainerMagic, kCodecContainerMagic + 8);
  out.push_back(static_cast<uint8_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool IsCodecContainer(ByteSpan bytes) {
  return bytes.size >= 8 &&
         std::memcmp(bytes.data, kCodecContainerMagic, 8) == 0;
}

Status UnwrapCodecPayloadView(ByteSpan bytes, std::string* name,
                              ByteSpan* payload) {
  if (!IsCodecContainer(bytes)) {
    return Status::InvalidArgument("not a codec container (bad magic)");
  }
  if (bytes.size < 9) {
    return Status::Corruption("codec container truncated before name");
  }
  size_t name_len = bytes[8];
  if (name_len == 0 || bytes.size < 9 + name_len) {
    return Status::Corruption("codec container truncated inside name");
  }
  name->assign(bytes.begin() + 9, bytes.begin() + 9 + name_len);
  *payload = bytes.subspan(9 + name_len, bytes.size - 9 - name_len);
  return Status::OK();
}

Status UnwrapShardedPayload(const std::string& where, ByteSpan bytes,
                            std::string* inner_name, ByteSpan* payload) {
  std::string tag;
  Status unwrap = UnwrapCodecPayloadView(bytes, &tag, payload);
  if (unwrap.code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument(where +
                                   " is not a backend-tagged container");
  }
  if (!unwrap.ok()) return Status::Corruption(where + ": " + unwrap.message());
  if (tag.rfind("sharded:", 0) != 0) {
    return Status::InvalidArgument(
        where + " is an old single-codec '" + tag +
        "' file; recompress it (grepair compress writes checksummed "
        "GRSHARD2 containers)");
  }
  *inner_name = tag.substr(8);
  return Status::OK();
}

Result<std::shared_ptr<MmapFile>> MapShardedFile(const std::string& path,
                                                 std::string* inner_name,
                                                 ByteSpan* payload) {
  auto file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  GREPAIR_RETURN_IF_ERROR(
      UnwrapShardedPayload(path, file.value()->span(), inner_name, payload));
  return file;
}

Status CheckTaggedInner(const std::string& path, const std::string& tagged,
                        const std::string& stored) {
  if (tagged == stored) return Status::OK();
  return Status::InvalidArgument(path +
                                 ": container was produced by 'sharded:" +
                                 stored + "', not 'sharded:" + tagged + "'");
}

Result<std::unique_ptr<shard::ShardedRep>> OpenCompressedFile(
    const std::string& path, std::string* backend_name) {
  std::string inner;
  ByteSpan payload;
  auto file = MapShardedFile(path, &inner, &payload);
  if (!file.ok()) return file.status();
  auto rep = shard::ShardedRep::Open(std::move(file).ValueOrDie(), payload);
  if (!rep.ok()) return rep.status();
  GREPAIR_RETURN_IF_ERROR(
      CheckTaggedInner(path, inner, rep.value()->inner_name()));
  if (backend_name != nullptr) *backend_name = "sharded:" + inner;
  return rep;
}

Status ApplyDeltaChain(shard::ShardedRep* rep, const std::string& base_path,
                       const std::vector<std::string>& delta_paths) {
  if (delta_paths.empty()) return Status::OK();
  // Lineage walk: delta[i] records the hash + size of the *entire*
  // previous file in the chain (the base for i == 0), so a swapped or
  // regenerated intermediate is caught before its payload is trusted.
  // A served base has no local bytes to hash: its first link is
  // anchored by the directory checksum ApplyDelta verifies.
  bool anchored = !base_path.empty();
  uint64_t prev_hash = 0;
  uint64_t prev_size = 0;
  if (anchored) {
    auto base_file = MmapFile::Open(base_path);
    if (!base_file.ok()) return base_file.status();
    ByteSpan span = base_file.value()->span();
    prev_hash = HashBytes(span.data, span.size);
    prev_size = span.size;
  }
  for (const std::string& path : delta_paths) {
    auto file = MmapFile::Open(path);
    if (!file.ok()) return file.status();
    ByteSpan span = file.value()->span();
    auto delta = shard::DecodeDeltaContainer(span, path);
    if (!delta.ok()) return delta.status();
    if (anchored && (delta.value().base_hash != prev_hash ||
                     delta.value().base_size != prev_size)) {
      return Status::Corruption(
          path + " does not continue this chain (expected predecessor " +
          HexU64(delta.value().base_hash) + "/" +
          std::to_string(delta.value().base_size) + " bytes, have " +
          HexU64(prev_hash) + "/" + std::to_string(prev_size) + ")");
    }
    // Deltas are cumulative: each ApplyDelta fully replaces the edit
    // state, so applying every link in order just re-verifies lineage
    // and lands on the newest version.
    GREPAIR_RETURN_IF_ERROR(rep->ApplyDelta(delta.value()));
    prev_hash = HashBytes(span.data, span.size);
    prev_size = span.size;
    anchored = true;
  }
  return Status::OK();
}

Result<std::unique_ptr<shard::ShardedRep>> OpenVersioned(
    const std::string& base_path,
    const std::vector<std::string>& delta_paths,
    std::string* backend_name) {
  auto rep = OpenCompressedFile(base_path, backend_name);
  if (!rep.ok()) return rep;
  GREPAIR_RETURN_IF_ERROR(
      ApplyDeltaChain(rep.value().get(), base_path, delta_paths));
  return rep;
}

}  // namespace api
}  // namespace grepair
