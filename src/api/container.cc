#include "src/api/container.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "src/api/codec_registry.h"
#include "src/api/graph_codec.h"
#include "src/shard/delta_overlay.h"
#include "src/shard/sharded_codec.h"
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

bool IsCodecContainer(const std::vector<uint8_t>& bytes) {
  return IsCodecContainer(SpanOf(bytes));
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

Status UnwrapCodecPayload(const std::vector<uint8_t>& bytes,
                          std::string* name, std::vector<uint8_t>* payload) {
  ByteSpan view;
  GREPAIR_RETURN_IF_ERROR(UnwrapCodecPayloadView(SpanOf(bytes), name, &view));
  payload->assign(view.begin(), view.end());
  return Status::OK();
}

Result<std::shared_ptr<MmapFile>> MapCodecFile(const std::string& path,
                                               std::string* name,
                                               ByteSpan* payload) {
  auto file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  auto unwrap = UnwrapCodecPayloadView(file.value()->span(), name, payload);
  if (unwrap.code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument(path +
                                   " is not a backend-tagged container");
  }
  if (!unwrap.ok()) return Status::Corruption(path + ": " + unwrap.message());
  return file;
}

Result<std::unique_ptr<CompressedRep>> OpenCompressedFile(
    const std::string& path, std::string* backend_name) {
  std::string name;
  ByteSpan payload;
  auto file = MapCodecFile(path, &name, &payload);
  if (!file.ok()) return file.status();
  auto codec = CodecRegistry::Create(name);
  if (!codec.ok()) return codec.status();
  if (backend_name != nullptr) *backend_name = name;
  return codec.value()->OpenPayload(std::move(file).ValueOrDie(), payload);
}

Status ApplyDeltaChain(CompressedRep* rep, const std::string& base_path,
                       const std::vector<std::string>& delta_paths) {
  if (delta_paths.empty()) return Status::OK();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep);
  if (sharded == nullptr) {
    return Status::InvalidArgument(
        "deltas need a sharded corpus; this one is not sharded");
  }
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
    GREPAIR_RETURN_IF_ERROR(sharded->ApplyDelta(delta.value()));
    prev_hash = HashBytes(span.data, span.size);
    prev_size = span.size;
    anchored = true;
  }
  return Status::OK();
}

Result<std::unique_ptr<CompressedRep>> OpenVersioned(
    const std::string& base_path,
    const std::vector<std::string>& delta_paths,
    std::string* backend_name) {
  std::string name;
  auto rep = OpenCompressedFile(base_path, &name);
  if (!rep.ok()) return rep.status();
  if (dynamic_cast<shard::ShardedRep*>(rep.value().get()) == nullptr) {
    return Status::InvalidArgument(
        base_path + " is not a sharded container; deltas need one");
  }
  if (backend_name != nullptr) *backend_name = name;
  GREPAIR_RETURN_IF_ERROR(
      ApplyDeltaChain(rep.value().get(), base_path, delta_paths));
  return rep;
}

}  // namespace api
}  // namespace grepair
