#include "src/serve/registry.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/api/container.h"
#include "src/net/frame.h"
#include "src/shard/container.h"

namespace grepair {
namespace serve {

namespace {

// Fixed per-verb body overhead ahead of the variable part, used to
// prove at registration time that every response fits one frame:
// kCorpusDir = u64 req_id + u32 corpus_id + u64 dir_off; kShard2 =
// u64 req_id + u32 corpus_id + u32 shard index.
constexpr size_t kCorpusDirOverhead = 8 + 4 + 8;
constexpr size_t kShardOverhead = 8 + 4 + 4;

Status CheckCorpusName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("corpus name must not be empty");
  }
  if (name.size() > kMaxCorpusNameBytes) {
    return Status::InvalidArgument(
        "corpus name \"" + name.substr(0, 32) + "...\" is " +
        std::to_string(name.size()) + " bytes (max " +
        std::to_string(kMaxCorpusNameBytes) + ")");
  }
  for (char c : name) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u >= 0x7F || c == '/') {
      return Status::InvalidArgument(
          "corpus name \"" + name +
          "\" contains a byte outside printable ASCII (or '/', or "
          "whitespace)");
    }
  }
  return Status::OK();
}

// A tagged frame must carry a sharded tag (any other tag is an old
// single-codec file); raw GRSHARD2 bytes are served as they are.
Status UnwrapIfTagged(const std::string& where, ByteSpan* payload) {
  if (!api::IsCodecContainer(*payload)) return Status::OK();
  return api::UnwrapShardedPayload(where, *payload, payload);
}

// Basename minus the last extension: "/data/web.graph.grc" -> a
// discovery name of "web.graph".
std::string DiscoveryName(const std::string& filename) {
  size_t dot = filename.rfind('.');
  if (dot == std::string::npos || dot == 0) return filename;
  return filename.substr(0, dot);
}

}  // namespace

Status CorpusRegistry::AddFile(const std::string& name,
                               const std::string& path) {
  auto file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  ByteSpan payload = file.value()->span();
  GREPAIR_RETURN_IF_ERROR(UnwrapIfTagged(path, &payload));
  Status added = Add(name, std::move(file).ValueOrDie(), payload);
  if (!added.ok() && added.code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument(path + ": " + added.message());
  }
  return added;
}

Status CorpusRegistry::AddBytes(const std::string& name, ByteSpan payload) {
  GREPAIR_RETURN_IF_ERROR(
      UnwrapIfTagged("corpus \"" + name + "\"", &payload));
  return Add(name, nullptr, payload);
}

Status CorpusRegistry::Add(const std::string& name,
                           std::shared_ptr<MmapFile> file, ByteSpan payload) {
  GREPAIR_RETURN_IF_ERROR(CheckCorpusName(name));
  for (const auto& corpus : corpora_) {
    if (corpus->name == name) {
      return Status::InvalidArgument("corpus \"" + name +
                                     "\" is already registered");
    }
  }
  // Full parse up front: a corrupt container is refused at
  // registration, not discovered by the first client.
  auto parsed = shard::ParseContainer(payload);
  if (!parsed.ok()) return parsed.status();
  shard::ParsedContainer& container = parsed.value();
  // So is one whose shards no client can decode: the inner codec name
  // is checked here as the client's ShardedRep::Build checks it.
  GREPAIR_RETURN_IF_ERROR(
      shard::CheckInnerCodecName(container.dir.inner_name));
  // Everything this server will ever put in a frame must fit the
  // frame bound — refuse oversized containers here with a clear error
  // instead of letting clients misdiagnose a too-long response frame
  // as wire corruption.
  if (kCorpusDirOverhead + container.region.size > net::kMaxFrameBody) {
    return Status::InvalidArgument(
        "container directory (" + std::to_string(container.region.size) +
        " bytes) exceeds the " + std::to_string(net::kMaxFrameBody) +
        "-byte frame bound; re-shard with more shards");
  }
  for (size_t i = 0; i < container.dir.rows.size(); ++i) {
    if (kShardOverhead + container.dir.rows[i].length > net::kMaxFrameBody) {
      return Status::InvalidArgument(
          "shard " + std::to_string(i) + " payload (" +
          std::to_string(container.dir.rows[i].length) +
          " bytes) exceeds the " + std::to_string(net::kMaxFrameBody) +
          "-byte frame bound; re-shard with more shards");
    }
  }

  auto corpus = std::make_unique<Corpus>();
  corpus->name = name;
  corpus->file = std::move(file);
  corpus->payload = payload;
  corpus->dir_region = container.region;
  corpus->dir_off = container.dir_off;
  corpus->inner_name = std::move(container.dir.inner_name);
  corpus->num_nodes = container.dir.num_nodes;
  corpus->rows = std::move(container.dir.rows);
  size_t shards = corpus->rows.size();
  corpus->shard_hits =
      std::make_unique<std::atomic<uint64_t>[]>(shards > 0 ? shards : 1);
  corpus->shard_pinned =
      std::make_unique<std::atomic<uint8_t>[]>(shards > 0 ? shards : 1);
  for (size_t i = 0; i < shards; ++i) {
    corpus->shard_hits[i].store(0, std::memory_order_relaxed);
    corpus->shard_pinned[i].store(0, std::memory_order_relaxed);
  }
  corpora_.push_back(std::move(corpus));
  return Status::OK();
}

Status CorpusRegistry::DiscoverDirectory(const std::string& path,
                                         std::vector<std::string>* added) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    return Status::InvalidArgument("cannot open corpus directory " + path +
                                   ": " + std::strerror(errno));
  }
  std::vector<std::string> files;
  for (struct dirent* entry = readdir(dir); entry != nullptr;
       entry = readdir(dir)) {
    std::string filename = entry->d_name;
    if (filename == "." || filename == "..") continue;
    files.push_back(std::move(filename));
  }
  closedir(dir);
  // Deterministic registration order (and therefore corpus ids)
  // regardless of readdir order.
  std::sort(files.begin(), files.end());
  std::vector<std::string> names;
  for (const std::string& filename : files) {
    std::string full = path + "/" + filename;
    struct stat st;
    if (stat(full.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    std::string name = DiscoveryName(filename);
    if (!CheckCorpusName(name).ok()) continue;
    // A name collision is an operator error; everything else that
    // fails registration is just not a servable container (corpus
    // directories may hold sidecar files) and is skipped.
    for (const auto& corpus : corpora_) {
      if (corpus->name == name) {
        return Status::InvalidArgument(
            full + ": discovered corpus name \"" + name +
            "\" is already registered");
      }
    }
    Status status = AddFile(name, full);
    if (status.ok()) names.push_back(name);
  }
  if (added != nullptr) *added = std::move(names);
  return Status::OK();
}

Result<const Corpus*> CorpusRegistry::Resolve(const std::string& name,
                                              uint32_t* corpus_id) const {
  auto served = [this]() {
    std::string list;
    for (const auto& corpus : corpora_) {
      if (!list.empty()) list += ", ";
      list += corpus->name;
    }
    return list.empty() ? std::string("<none>") : list;
  };
  if (name.empty()) {
    if (corpora_.size() == 1) {
      if (corpus_id != nullptr) *corpus_id = 0;
      return corpora_[0].get();
    }
    return Status::InvalidArgument(
        "no corpus name given and the server hosts " +
        std::to_string(corpora_.size()) + " corpora (" + served() +
        "); open \"host:port/name\"");
  }
  for (size_t i = 0; i < corpora_.size(); ++i) {
    if (corpora_[i]->name == name) {
      if (corpus_id != nullptr) *corpus_id = static_cast<uint32_t>(i);
      return corpora_[i].get();
    }
  }
  return Status::NotFound("corpus \"" + name + "\" is not served (serving: " +
                          served() + ")");
}

}  // namespace serve
}  // namespace grepair
