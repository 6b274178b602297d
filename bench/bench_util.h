// Shared helpers for the table/figure reproduction benches: run each
// compressor on a dataset and report bits-per-edge / byte sizes in the
// paper's format, with the published numbers printed alongside.
//
// Every bench is a plain executable printing one table; absolute values
// differ from the paper (synthetic scaled stand-ins, different
// hardware), the *shape* — who wins and by roughly what factor — is
// what they check. End-to-end timings are the job of the benchmark
// declared in BENCHMARK.json (see e2ebench/README.md).

#ifndef GREPAIR_BENCH_BENCH_UTIL_H_
#define GREPAIR_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/baselines/hn.h"
#include "src/baselines/lm.h"
#include "src/baselines/string_repair.h"
#include "src/datasets/paper_datasets.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"

namespace grepair {
namespace bench {

inline double Seconds(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// \brief gRePair end-to-end: compress + binary encode; returns bpe.
/// Fails loud: a failed compress, or (when the options track the node
/// mapping) a grammar that does not reproduce the input exactly, prints
/// the error and exits the bench with status 1.
struct GrepairRun {
  double bpe = 0;
  size_t bytes = 0;
  CompressStats stats;
  GrammarStats grammar;
  double seconds = 0;
};

inline GrepairRun RunGrepair(const GeneratedGraph& gg,
                             CompressOptions options = {}) {
  auto t0 = std::chrono::steady_clock::now();
  auto result = Compress(gg.graph, gg.alphabet, options);
  GrepairRun run;
  if (!result.ok()) {
    std::fprintf(stderr, "compress failed on %s: %s\n", gg.name.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  auto bytes = EncodeGrammar(result.value().grammar);
  auto t1 = std::chrono::steady_clock::now();
  if (options.track_node_mapping) {
    auto back = DeriveOriginal(result.value().grammar, result.value().origins);
    if (!back.ok() || !back.value().EqualUpToEdgeOrder(gg.graph)) {
      std::fprintf(stderr, "%s: the grammar does not reproduce the input%s%s\n",
                   gg.name.c_str(), back.ok() ? "" : ": ",
                   back.ok() ? "" : back.status().ToString().c_str());
      std::exit(1);
    }
  }
  run.bytes = bytes.size();
  run.bpe = BitsPerEdge(bytes.size(), gg.graph.num_edges());
  run.stats = result.value().stats;
  run.grammar = ComputeGrammarStats(result.value().grammar);
  run.seconds = Seconds(t0, t1);
  return run;
}

/// \brief The paper's codecs in table column order (alphabetical): the
/// two file backends (grepair, k2) and the size-only baselines (hn, lm,
/// repair-adj); bench/shard_scaling.cc covers the sharded layer.
inline std::vector<std::string> PaperCodecNames() {
  return {"grepair", "hn", "k2", "lm", "repair-adj"};
}

/// \brief One codec's run over a dataset.
struct CodecRun {
  bool ok = false;       ///< false: failed or not applicable to the input
  std::string error;     ///< status message when !ok
  size_t bytes = 0;      ///< compressed size, the tables' size metric
  double bpe = 0;
  double seconds = 0;
};

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

/// \brief Times PaperCodecBytes(backend, gg).
inline CodecRun RunCodec(const std::string& backend,
                         const GeneratedGraph& gg) {
  CodecRun run;
  auto t0 = std::chrono::steady_clock::now();
  auto bytes = PaperCodecBytes(backend, gg);
  auto t1 = std::chrono::steady_clock::now();
  if (!bytes.ok()) {
    run.error = bytes.status().ToString();
    return run;
  }
  run.ok = true;
  run.bytes = bytes.value();
  run.bpe = BitsPerEdge(run.bytes, gg.graph.num_edges());
  run.seconds = Seconds(t0, t1);
  return run;
}

/// \brief Plain k^2-tree baseline bpe.
inline double RunK2(const GeneratedGraph& gg) {
  return RunCodec("k2", gg).bpe;
}

inline size_t RunK2Bytes(const GeneratedGraph& gg) {
  return RunCodec("k2", gg).bytes;
}

/// \brief LM baseline bpe (unlabeled out-adjacency).
inline double RunLm(const GeneratedGraph& gg) {
  return RunCodec("lm", gg).bpe;
}

/// \brief HN baseline bpe (unlabeled out-adjacency).
inline double RunHn(const GeneratedGraph& gg) {
  return RunCodec("hn", gg).bpe;
}

/// \brief Flat key→value metrics sink for `--json <out>`: CI uploads
/// the file as a build artifact (BENCH_*.json) so runs are diffable
/// across commits. Insertion order is preserved; values are numbers or
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

inline void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

inline void PrintScaleNote(const PaperDataset& d) {
  std::printf("   [%s: stand-in V=%u E=%u, paper V=%llu E=%llu, "
              "edge scale %.3f]\n",
              d.paper.name.c_str(), d.data.graph.num_nodes(),
              d.data.graph.num_edges(),
              static_cast<unsigned long long>(d.paper.nodes),
              static_cast<unsigned long long>(d.paper.edges), d.scale);
}

}  // namespace bench
}  // namespace grepair

#endif  // GREPAIR_BENCH_BENCH_UTIL_H_
