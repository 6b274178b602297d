#include "src/api/graph_codec.h"

#include <cerrno>
#include <cstdlib>

namespace grepair {
namespace api {

Result<CodecOptions> CodecOptions::Parse(const std::string& spec) {
  CodecOptions options;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("bad option '" + item +
                                     "' (want key=value)");
    }
    options.Set(item.substr(0, eq), item.substr(eq + 1));
  }
  return options;
}

Result<int64_t> CodecOptions::GetInt(const std::string& key,
                                     int64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("option " + key + "=" + it->second +
                                   " is not an integer");
  }
  return static_cast<int64_t>(v);
}

Result<bool> CodecOptions::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  return Status::InvalidArgument("option " + key + "=" + it->second +
                                 " is not a boolean");
}

std::string CodecOptions::GetString(const std::string& key,
                                    const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

Status CodecOptions::ExpectKeys(
    const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : values_) {
    bool known = false;
    for (const auto& a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      // List what the codec does accept: a typo'd key should not send
      // the user to the sources to find the option table.
      std::string accepted;
      for (const auto& a : allowed) {
        if (!accepted.empty()) accepted += ", ";
        accepted += a;
      }
      if (accepted.empty()) accepted = "none";
      return Status::InvalidArgument("unknown codec option '" + key +
                                     "' (accepted keys: " + accepted + ")");
    }
  }
  return Status::OK();
}

Status CheckNodeId(uint64_t node, uint64_t num_nodes) {
  if (node >= num_nodes) {
    return Status::InvalidArgument(
        "node id " + std::to_string(node) + " out of range [0, " +
        std::to_string(num_nodes) + ")");
  }
  return Status::OK();
}

Status CompressedRep::ForEachRank2Edge(const Rank2EdgeSink& sink) const {
  auto graph = Decompress();
  if (!graph.ok()) return graph.status();
  if (graph.value().num_nodes() != num_nodes()) {
    return Status::Corruption("decompressed node count disagrees with rep");
  }
  for (const HEdge& e : graph.value().edges()) {
    if (e.att.size() == 2) sink(e.att[0], e.att[1]);
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> CompressedRep::OutNeighbors(uint64_t) const {
  return Status::Unimplemented("codec does not support neighbor queries");
}

Result<std::vector<uint64_t>> CompressedRep::InNeighbors(uint64_t) const {
  return Status::Unimplemented("codec does not support neighbor queries");
}

Result<bool> CompressedRep::Reachable(uint64_t, uint64_t) const {
  return Status::Unimplemented(
      "codec does not support reachability queries");
}

Result<std::vector<std::vector<uint64_t>>> CompressedRep::OutNeighborsBatch(
    const std::vector<uint64_t>& nodes) const {
  std::vector<std::vector<uint64_t>> results;
  results.reserve(nodes.size());
  for (uint64_t node : nodes) {
    auto r = OutNeighbors(node);
    if (!r.ok()) return r.status();
    results.push_back(std::move(r).ValueOrDie());
  }
  return results;
}

Result<std::vector<uint8_t>> CompressedRep::ReachableBatch(
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) const {
  std::vector<uint8_t> results;
  results.reserve(pairs.size());
  for (const auto& [from, to] : pairs) {
    auto r = Reachable(from, to);
    if (!r.ok()) return r.status();
    results.push_back(r.value() ? 1 : 0);
  }
  return results;
}

Result<std::unique_ptr<CompressedRep>> GraphCodec::DeserializeSpan(
    ByteSpan bytes) const {
  return Deserialize(bytes.ToVector());
}

}  // namespace api
}  // namespace grepair
