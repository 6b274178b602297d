#include "src/serve/placement.h"

#include <algorithm>

#include "src/util/byte_io.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace serve {

namespace {

// Sidecar envelope ("GRDC", version 2):
//   u32 magic   u32 version   u64 dir_off
//   u32 len     len raw directory bytes
//   u64 histogram_epoch  u32 shard_count  u64 x count hits
//   u64 HashBytes over everything above
constexpr uint32_t kDirSidecarMagic = 0x43445247;  // "GRDC"
constexpr uint32_t kDirSidecarV2 = 2;

// Histograms come off disk: bound the allocation-driving count by the
// wire's own size (8 bytes per slot) like every other untrusted
// parser in the tree. A GRSHARD2 directory tops out at kMaxShards+1
// anyway, so honest files never get near a suspicious count.
constexpr uint32_t kMaxSidecarShards = 1u << 20;

// The sidecar envelope's parser; `what` names the sidecar in errors.
Result<DirSidecar> ParseSidecar(ByteSpan body, const std::string& what) {
  if (body.size < 28) {
    return Status::Corruption(what + " is truncated");
  }
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(body.data[body.size - 8 + i]) << (8 * i);
  }
  if (HashBytes(body.data, body.size - 8) != stored) {
    return Status::Corruption(what + " fails its checksum");
  }
  ByteSource src(ByteSpan{body.data, body.size - 8}, "directory sidecar");
  uint32_t magic = 0, version = 0, len = 0;
  DirSidecar sidecar;
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&magic));
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&version));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&sidecar.dir_off));
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&len));
  if (magic != kDirSidecarMagic || version != kDirSidecarV2) {
    return Status::Corruption(what + " has a bad magic or version");
  }
  ByteSpan raw;
  GREPAIR_RETURN_IF_ERROR(src.ReadSpan(len, &raw));
  sidecar.raw_directory.assign(raw.begin(), raw.end());
  uint32_t count = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&sidecar.histogram_epoch));
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&count));
  if (count > kMaxSidecarShards ||
      src.PeekRemaining().size < static_cast<size_t>(count) * 8) {
    return Status::Corruption(what +
                              " histogram count disagrees with the file");
  }
  sidecar.histogram.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t hits = 0;
    GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&hits));
    sidecar.histogram.push_back(hits);
  }
  GREPAIR_RETURN_IF_ERROR(src.ExpectExhausted("directory sidecar"));
  return sidecar;
}

}  // namespace

std::vector<size_t> RankByHeat(const std::vector<uint64_t>& histogram) {
  std::vector<size_t> ranked;
  ranked.reserve(histogram.size());
  for (size_t i = 0; i < histogram.size(); ++i) {
    if (histogram[i] > 0) ranked.push_back(i);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&histogram](size_t a, size_t b) {
                     if (histogram[a] != histogram[b]) {
                       return histogram[a] > histogram[b];
                     }
                     return a < b;
                   });
  return ranked;
}

std::vector<size_t> PlanByHeat(const std::vector<uint64_t>& heat,
                               const std::vector<uint64_t>& lengths,
                               uint64_t budget) {
  std::vector<size_t> order = RankByHeat(heat);
  for (size_t i = 0; i < lengths.size(); ++i) {
    if (i >= heat.size() || heat[i] == 0) order.push_back(i);
  }
  std::vector<size_t> plan;
  uint64_t used = 0;
  for (size_t i : order) {
    if (lengths[i] == 0 || lengths[i] > budget - used) continue;
    plan.push_back(i);
    used += lengths[i];
  }
  return plan;
}

std::string CorpusCacheDir(const std::string& cache_dir,
                           const std::string& corpus) {
  return cache_dir + "/" + (corpus.empty() ? "_default" : corpus);
}

std::string DirSidecarPath(const std::string& cache_dir,
                           const std::string& corpus) {
  return CorpusCacheDir(cache_dir, corpus) + ".grdir";
}

std::vector<uint8_t> EncodeDirSidecar(const DirSidecar& sidecar) {
  std::vector<uint8_t> body;
  body.reserve(32 + sidecar.raw_directory.size() +
               8 * sidecar.histogram.size());
  PutU32LE(kDirSidecarMagic, &body);
  PutU32LE(kDirSidecarV2, &body);
  PutU64LE(sidecar.dir_off, &body);
  PutU32LE(static_cast<uint32_t>(sidecar.raw_directory.size()), &body);
  body.insert(body.end(), sidecar.raw_directory.begin(),
              sidecar.raw_directory.end());
  PutU64LE(sidecar.histogram_epoch, &body);
  PutU32LE(static_cast<uint32_t>(sidecar.histogram.size()), &body);
  for (uint64_t hits : sidecar.histogram) PutU64LE(hits, &body);
  PutU64LE(HashBytes(body.data(), body.size()), &body);
  return body;
}

void SaveDirSidecar(const std::string& path, const DirSidecar& sidecar) {
  // Best effort: a failed write only costs a feature, never an answer.
  Status ignored = WriteFileBytes(path, EncodeDirSidecar(sidecar));
  (void)ignored;
}

Result<DirSidecar> ParseDirSidecar(ByteSpan bytes) {
  return ParseSidecar(bytes, "directory sidecar");
}

Result<DirSidecar> LoadDirSidecar(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return ParseSidecar(SpanOf(bytes.value()), "directory sidecar " + path);
}

}  // namespace serve
}  // namespace grepair
