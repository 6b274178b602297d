// Shared helpers for the programs under bench/: the paper's codec set
// and their compressed sizes, a flat JSON ledger writer, the one
// `--json PATH` argument the flag-free programs take, and a
// self-removing temporary directory.
//
// bench/paper.cc reproduces the paper's tables and figures; absolute
// values differ from the paper (synthetic scaled stand-ins, different
// hardware), the *shape* — who wins and by roughly what factor — is
// what it checks. End-to-end timings are the job of the benchmark
// declared in BENCHMARK.json (see e2ebench/README.md).

#ifndef GREPAIR_BENCH_BENCH_UTIL_H_
#define GREPAIR_BENCH_BENCH_UTIL_H_

#include <stdlib.h>  // mkdtemp

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/baselines/hn.h"
#include "src/baselines/lm.h"
#include "src/baselines/string_repair.h"

namespace grepair {
namespace bench {

inline double Seconds(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// \brief The paper's codecs in table column order (alphabetical): the
/// two file backends (grepair, k2) and the size-only baselines (hn, lm,
/// repair-adj); bench/shard_scaling.cc covers the sharded layer.
inline std::vector<std::string> PaperCodecNames() {
  return {"grepair", "hn", "k2", "lm", "repair-adj"};
}

/// \brief Compressed bytes of one of PaperCodecNames() over `gg`:
/// grepair and k2 through the codec registry, the size-only baselines
/// through their encoders with default options. The baselines compress
/// unlabeled simple graphs only, so a labeled or hyperedge input is
/// InvalidArgument (printed as n/a).
inline Result<size_t> PaperCodecBytes(const std::string& name,
                                      const GeneratedGraph& gg) {
  if (name == "grepair" || name == "k2") {
    auto codec = api::CodecRegistry::Create(name);
    if (!codec.ok()) return codec.status();
    auto rep = codec.value()->Compress(gg.graph, gg.alphabet);
    if (!rep.ok()) return rep.status();
    return rep.value()->ByteSize();
  }
  GREPAIR_RETURN_IF_ERROR(gg.graph.Validate(gg.alphabet));
  if (gg.alphabet.size() > 1) {
    return Status::InvalidArgument(
        name + " is an unlabeled baseline (alphabet must have at most 1 "
               "label)");
  }
  for (const auto& e : gg.graph.edges()) {
    if (e.rank() != 2) {
      return Status::InvalidArgument(
          name + " requires a simple graph (rank-2 edges)");
    }
  }
  if (name == "hn") return HnCompress(gg.graph).SizeBytes();
  if (name == "lm") return LmCompress(gg.graph).SizeBytes();
  if (name == "repair-adj") return AdjListRePairSizeBytes(gg.graph);
  return Status::NotFound("no paper codec named '" + name + "'");
}

/// \brief Flat key→value metrics sink for `--json <out>`: CI diffs or
/// uploads the file (BENCH_*.json) so runs are comparable across
/// commits. Insertion order is preserved; values are numbers or
/// strings only — benches emit scalars, not structure.
class JsonWriter {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    rows_.emplace_back(key, buf);
  }
  void Add(const std::string& key, uint64_t value) {
    rows_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, int value) {
    rows_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    rows_.emplace_back(key, "\"" + Escaped(value) + "\"");
  }

  /// Writes `{ "k": v, ... }`; false (with a stderr note) on IO error.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", Escaped(rows_[i].first).c_str(),
                   rows_[i].second.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    bool ok = std::fclose(f) == 0;
    if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> rows_;
};

/// \brief The only command line a flag-free bench accepts: nothing, or
/// `--json PATH` (stored in `*json_path`). False, after a usage line on
/// stderr, on anything else; the caller exits 2.
inline bool ParseJsonArg(int argc, char** argv, std::string* json_path) {
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) {
    *json_path = argv[2];
    return true;
  }
  if (argc == 1) return true;
  std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
  return false;
}

/// \brief A fresh directory under the system temp dir, removed with
/// everything in it when the object dies, so concurrent runs never
/// share files.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix) {
    std::error_code ec;
    std::string tmpl = (std::filesystem::temp_directory_path(ec) /
                        ("grepair_" + prefix + ".XXXXXX"))
                           .string();
    if (!ec && mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

}  // namespace bench
}  // namespace grepair

#endif  // GREPAIR_BENCH_BENCH_UTIL_H_
