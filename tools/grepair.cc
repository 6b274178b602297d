// grepair — command-line driver for the library.
//
// Usage:
//   grepair compress <in.graph> <out> [--backend NAME]
//           [--options k=v,...] [--shards K (default 1)] [--threads T]
//   grepair decompress <in> <out.graph> [--threads T]
//   grepair bench --backend NAME|all --gen KIND [--size N]
//           [--options k=v,...] [--shards K] [--threads T]
//   grepair backends
//   grepair query <in>|--remote host:port[/corpus] [--nodes 1,2,3]
//           [--pairs 1:2,3:4] [--batch] [--cache-bytes N] [--threads T]
//           [--prefetch P] [--pool N] [--ssd-cache DIR]
//           [--ssd-cache-bytes N] [--warm-from-histogram 0|1]
//           [--delta file.grs3]...
//   grepair append <base> [chain.grs3]... --edits <file> -o <out.grs3>
//           [--fold-budget BYTES]
//   grepair diff <base> <delta.grs3>...
//   grepair serve [<file>|<dir>]... [--corpus name=path]
//           [--host H] [--port P] [--pin-bytes N]
//   grepair info <in> | info --remote host:port[/corpus]
//   grepair stats <in>
//   grepair components <in>
//   grepair gen <kind> <out.graph> [size]
//
// Both file backends sit behind the GraphCodec registry (src/api/):
// `--backend` selects one ("grepair", the default, or "k2"; see
// `grepair backends`), `--options` passes codec-specific key=value
// options (for grepair: order, max-rank, prune, virtual, ...; for k2:
// k), and `bench` runs any backend (or all of them) over any generated
// dataset with a round-trip check; there `--shards`/`--threads`
// rewrite the backend to its sharded variant "sharded:<inner>"
// (src/shard/). The paper's size-only baselines (HN, LM, adjacency
// RePair) are not backends; bench/ compares against them. Graph files
// use the native text format of src/graph/graph_io.h. `gen` kinds: er,
// ba, coauth, rdf-types, rdf-entities, copies, dblp.
//
// One file kind: `compress` always writes "sharded:<backend>", one
// edge-range shard unless `--shards` asks for more, as a checksummed
// GRSHARD2 container inside the backend-tagged GRPCODEC frame
// (src/api/container.h). Every command opens files through src/api/:
// an untagged file is refused, and so is an old single-codec file
// (any tag but "sharded:..."), which must be recompressed. The grepair
// shard payload is the paper's binary grammar encoding plus the node
// mapping, so `decompress` restores the input's node ids. `stats` and
// `components` read the grammar of a 1-shard sharded:grepair file:
// its size and shape, and its connected components counted in one
// grammar pass plus the edgeless nodes the shard leaves out.
//
// `query` answers neighbor/reachability queries on a compressed file
// without decompressing it: --nodes asks for out-neighbors, --pairs
// for reachability, --batch switches to the batched entry points
// (shard-parallel), --cache-bytes sets the byte budget of the rep's
// one query cache (decoded shards), --threads the rep's thread pool,
// --prefetch starts a background pool that warms the shards batches
// touch. A query-stats line (cache hits/misses, shard decodes/faults,
// memo-table sizes) is printed at the end.
//
// Zero-copy storage: every compressed file is opened via mmap as a
// lazy GRSHARD2 footer-directory container, so `decompress`/`query`
// materialize only the shards they touch. `info` prints a container's
// directory — backend, shard offsets/lengths/checksums — without
// decoding a single shard.
//
// Versioned corpora: `append` replays a text edit stream (`a u v
// [label]` / `d u v`, '#' comments) against a GRSHARD2 base (plus any
// earlier deltas) and writes a GRSHARD3 delta container — changed
// shards and residual overlay runs only, chained to the base by
// content hash. `query --delta` (repeatable) applies the chain through
// api::ApplyDeltaChain, verifying lineage before anything is trusted;
// it composes with --remote, where the deltas are read locally and
// applied over the served base. `diff` prints each delta's size,
// changed-shard count, and edit counts against the full base reship.
//
// Remote serving: `serve` exports GRSHARD2 containers over TCP (the
// GRNF v2 frame protocol of src/net/ + src/serve/). One server hosts
// many corpora: `--corpus name=path` registers each explicitly, and a
// bare directory argument auto-discovers every servable container in
// it (named by file basename); `--pin-bytes` keeps the hottest shard
// payloads pinned in server memory. `query --remote host:port/corpus`
// runs the exact same query paths against a served corpus — cold
// shards fault across the connection pool (`--pool`), optionally
// through a checksummed local SSD shard cache (`--ssd-cache`), and the
// answers are byte-identical to a local open of the same file.
// `info --remote` asks a running server for its per-corpus serving
// stats and hot-shard histograms over the GRNF STATS verb.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "src/api/grepair_api.h"
#include "src/grammar/derivation.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/stats.h"
#include "src/util/hashing.h"

using namespace grepair;

namespace {

int Usage() {
  std::string backends;
  for (const auto& name : api::CodecRegistry::Names()) {
    if (!backends.empty()) backends += "|";
    backends += name;
  }
  std::fprintf(
      stderr,
      "usage: grepair <command> ...\n"
      "  compress <in.graph> <out> [--backend %s]\n"
      "           (default grepair) [--options k=v,...] [--shards K]\n"
      "           [--threads T]\n"
      "  decompress <in> <out.graph> [--threads T]\n"
      "  bench --backend NAME|all --gen KIND [--size N] "
      "[--options k=v,...]\n"
      "        [--shards K] [--threads T]\n"
      "  backends\n"
      "  query <in>|--remote host:port[/corpus] [--nodes 1,2,3]\n"
      "        [--pairs 1:2,3:4] [--batch] [--cache-bytes N] [--threads T]\n"
      "        [--prefetch P] [--pool N] [--ssd-cache DIR]\n"
      "        [--ssd-cache-bytes N] [--warm-from-histogram 0|1]\n"
      "        [--delta file.grs3]...\n"
      "  append <base> [chain.grs3]... --edits <file> -o <out.grs3>\n"
      "         [--fold-budget BYTES]\n"
      "  diff <base> <delta.grs3>...\n"
      "  serve [<file>|<dir>]... [--corpus name=path] [--host H] "
      "[--port P]\n"
      "        [--pin-bytes N]\n"
      "  info <in> | info --remote host:port[/corpus]\n"
      "  stats <in>\n"
      "  components <in>\n"
      "  gen <er|ba|coauth|rdf-types|rdf-entities|copies|dblp> "
      "<out.graph> [size]\n",
      backends.c_str());
  return 2;
}

// Compressed graphs are opened only through src/api/
// (OpenCompressedFile, ApplyDeltaChain, MapShardedFile); `append` and
// `diff` map files themselves only to hash or size them. Writes go
// through WriteFileBytes. Both report Status errors naming the path.
bool WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  auto status = WriteFileBytes(path, bytes);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

// Sharding knobs shared by compress and bench: --shards/--threads
// rewrite `backend` to its sharded:<inner> variant and land in
// `options` as codec options.
struct ShardFlags {
  int shards = 0;   // 0 = not requested
  int threads = 0;  // 0 = not requested

  bool requested() const { return shards != 0 || threads != 0; }
};

// Strictly positive integer flag value; atoi would silently turn
// "--shards abc" into an unsharded run and "--shards -8" into the
// default shard count. `max` matches the codec's own validation so
// out-of-range values fail fast here instead of deep in Compress.
bool ParseCountFlag(const char* flag, const char* text, int max, int* out) {
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 1 || value > max) {
    std::fprintf(stderr, "%s expects an integer in [1, %d], got '%s'\n",
                 flag, max, text);
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

constexpr int kMaxShards = shard::kMaxShards;
constexpr int kMaxThreads = 256;  // ParallelCompressor's clamp

// Consumes one --shards/--threads argument pair shared by
// CmdCompress and CmdBench (one parser, so the two commands cannot
// drift apart). Advances *i past the flag's value on a match.
enum class ShardFlagParse { kNoMatch, kOk, kError };

ShardFlagParse MatchShardFlag(const std::string& arg, int argc, char** argv,
                              int* i, ShardFlags* flags) {
  if (arg == "--shards" && *i + 1 < argc) {
    return ParseCountFlag("--shards", argv[++*i], kMaxShards,
                          &flags->shards)
               ? ShardFlagParse::kOk
               : ShardFlagParse::kError;
  }
  if (arg == "--threads" && *i + 1 < argc) {
    return ParseCountFlag("--threads", argv[++*i], kMaxThreads,
                          &flags->threads)
               ? ShardFlagParse::kOk
               : ShardFlagParse::kError;
  }
  return ShardFlagParse::kNoMatch;
}

void ApplyShardFlags(const ShardFlags& flags, std::string* backend,
                     api::CodecOptions* options) {
  if (!flags.requested()) return;
  if (backend->rfind("sharded:", 0) != 0) {
    *backend = "sharded:" + *backend;
  }
  if (flags.shards > 0) options->Set("shards", std::to_string(flags.shards));
  if (flags.threads > 0) {
    options->Set("threads", std::to_string(flags.threads));
  }
}

int CmdCompress(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string backend = "grepair";
  std::string option_spec;
  ShardFlags shard_flags;
  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      backend = argv[++i];
    } else if (arg == "--options" && i + 1 < argc) {
      option_spec = argv[++i];
    } else if (ShardFlagParse m =
                   MatchShardFlag(arg, argc, argv, &i, &shard_flags);
               m != ShardFlagParse::kNoMatch) {
      if (m == ShardFlagParse::kError) return 2;
    } else {
      return Usage();
    }
  }
  auto loaded = LoadGraphText(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto options = api::CodecOptions::Parse(option_spec);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  // Every file is a sharded container: one shard unless --shards asks
  // for more.
  if (shard_flags.shards == 0) shard_flags.shards = 1;
  ApplyShardFlags(shard_flags, &backend, &options.value());
  auto codec = api::CodecRegistry::Create(backend);
  if (!codec.ok()) {
    std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
    return 1;
  }
  auto rep = codec.value()->Compress(loaded.value().graph,
                                     loaded.value().alphabet,
                                     options.value());
  if (!rep.ok()) {
    std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
    return 1;
  }
  auto bytes = api::WrapCodecPayload(backend, rep.value()->Serialize());
  if (!WriteBytes(argv[3], bytes)) return 1;
  std::printf("[%s] %u edges -> %zu bytes on disk (%.3f bpe as measured "
              "by the bench tables)\n",
              backend.c_str(), loaded.value().graph.num_edges(),
              bytes.size(),
              BitsPerEdge(rep.value()->ByteSize(),
                          loaded.value().graph.num_edges()));
  return 0;
}

int CmdDecompress(int argc, char** argv) {
  if (argc < 4) return Usage();
  int threads = 0;
  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      if (!ParseCountFlag("--threads", argv[++i], kMaxThreads, &threads)) {
        return 2;
      }
    } else {
      return Usage();
    }
  }
  // The file opens lazily and Decompress faults the shards on the
  // decompress thread pool.
  std::string backend;
  auto rep = api::OpenCompressedFile(argv[2], &backend);
  if (!rep.ok()) {
    std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
    return 1;
  }
  if (threads > 1) rep.value()->set_threads(threads);
  auto graph = rep.value()->Decompress();
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  // Codec payloads carry no label names, only labeled edges.
  auto status =
      SaveGraphText(graph.value(), InferAlphabet(graph.value()), argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("[%s] wrote %u nodes, %u edges\n", backend.c_str(),
              graph.value().num_nodes(), graph.value().num_edges());
  return 0;
}

// Strict unsigned integer parse for query ids and byte budgets; atoi
// would silently accept "12abc" and negative values.
bool ParseU64(const std::string& text, uint64_t* out) {
  // Leading digit required: strtoull alone would accept whitespace,
  // '+' and (wrapping!) '-' prefixes.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

// "1,2,3" -> ids. Malformed entries are a hard error, not a skip.
bool ParseNodeList(const std::string& spec, std::vector<uint64_t>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    uint64_t v = 0;
    if (!ParseU64(spec.substr(pos, end - pos), &v)) {
      std::fprintf(stderr, "--nodes expects comma-separated ids, got '%s'\n",
                   spec.c_str());
      return false;
    }
    out->push_back(v);
    pos = end + 1;
  }
  return true;
}

// "1:2,3:4" -> (from, to) pairs.
bool ParsePairList(const std::string& spec,
                   std::vector<std::pair<uint64_t, uint64_t>>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    size_t colon = item.find(':');
    uint64_t from = 0, to = 0;
    if (colon == std::string::npos ||
        !ParseU64(item.substr(0, colon), &from) ||
        !ParseU64(item.substr(colon + 1), &to)) {
      std::fprintf(stderr,
                   "--pairs expects comma-separated from:to pairs, got "
                   "'%s'\n",
                   spec.c_str());
      return false;
    }
    out->push_back({from, to});
    pos = end + 1;
  }
  return true;
}

void PrintNeighborLine(uint64_t node, const std::vector<uint64_t>& out) {
  std::printf("out[%llu] (%zu):", static_cast<unsigned long long>(node),
              out.size());
  for (uint64_t v : out) std::printf(" %llu", (unsigned long long)v);
  std::printf("\n");
}

// The query half of `query`, shared by local files and --remote reps:
// apply the tuning knobs, run the node/pair queries (batched or not),
// print answers plus the query-stats line.
int RunQueries(std::unique_ptr<shard::ShardedRep> rep,
               const std::vector<uint64_t>& nodes,
               const std::vector<std::pair<uint64_t, uint64_t>>& pairs,
               bool batch, int threads, bool have_cache_bytes,
               uint64_t cache_bytes, int prefetch) {
  if (threads > 1) rep->set_threads(threads);
  if (have_cache_bytes) {
    rep->set_query_cache_bytes(static_cast<size_t>(cache_bytes));
  }
  if (prefetch > 0) rep->set_prefetch_threads(prefetch);
  std::printf("[sharded:%s] %llu nodes\n", rep->inner_name().c_str(),
              static_cast<unsigned long long>(rep->num_nodes()));

  if (!nodes.empty()) {
    if (batch) {
      auto results = rep->OutNeighborsBatch(nodes);
      if (!results.ok()) {
        std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
        return 1;
      }
      for (size_t j = 0; j < nodes.size(); ++j) {
        PrintNeighborLine(nodes[j], results.value()[j]);
      }
    } else {
      for (uint64_t node : nodes) {
        auto out = rep->OutNeighbors(node);
        if (!out.ok()) {
          std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
          return 1;
        }
        PrintNeighborLine(node, out.value());
      }
    }
  }
  if (!pairs.empty()) {
    std::vector<uint8_t> verdicts;
    if (batch) {
      auto results = rep->ReachableBatch(pairs);
      if (!results.ok()) {
        std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
        return 1;
      }
      verdicts = std::move(results).ValueOrDie();
    } else {
      for (const auto& [from, to] : pairs) {
        auto r = rep->Reachable(from, to);
        if (!r.ok()) {
          std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
          return 1;
        }
        verdicts.push_back(r.value() ? 1 : 0);
      }
    }
    for (size_t k = 0; k < pairs.size(); ++k) {
      std::printf("reach %llu -> %llu: %s\n",
                  static_cast<unsigned long long>(pairs[k].first),
                  static_cast<unsigned long long>(pairs[k].second),
                  verdicts[k] ? "yes" : "no");
    }
  }
  api::QueryStats stats = rep->query_stats();
  std::printf("stats: singles=%llu batch_calls=%llu batch_items=%llu "
              "cache_hits=%llu cache_misses=%llu shard_decodes=%llu "
              "evictions=%llu cache_bytes=%llu memo_entries=%llu "
              "memo_hits=%llu shard_faults=%llu prefetched=%llu "
              "bytes_hinted=%llu remote_fetches=%llu remote_bytes=%llu\n",
              (unsigned long long)stats.single_queries,
              (unsigned long long)stats.batch_calls,
              (unsigned long long)stats.batch_items,
              (unsigned long long)stats.cache_hits,
              (unsigned long long)stats.cache_misses,
              (unsigned long long)stats.shard_decodes,
              (unsigned long long)stats.cache_evictions,
              (unsigned long long)stats.cache_bytes_used,
              (unsigned long long)stats.memo_entries,
              (unsigned long long)stats.memo_hits,
              (unsigned long long)stats.shard_faults,
              (unsigned long long)stats.shards_prefetched,
              (unsigned long long)stats.bytes_hinted,
              (unsigned long long)stats.remote_fetches,
              (unsigned long long)stats.remote_bytes);
  // The serving-tier counters get their own line: pool dials/redials
  // and the SSD tier's hit/miss/eviction/corruption counts are zero
  // for purely local opens, and the warm-vs-remote split is the number
  // CI asserts on (an SSD-warm run must show remote_fetches=0).
  if (stats.pool_dials != 0 || stats.tier_warm_hits != 0 ||
      stats.tier_cold_fetches != 0 || stats.tier_corrupt_drops != 0) {
    std::printf("tier: pool_dials=%llu pool_redials=%llu "
                "pool_peak_in_flight=%llu tier_warm_hits=%llu "
                "tier_cold_fetches=%llu tier_evictions=%llu "
                "tier_corrupt_drops=%llu\n",
                (unsigned long long)stats.pool_dials,
                (unsigned long long)stats.pool_redials,
                (unsigned long long)stats.pool_peak_in_flight,
                (unsigned long long)stats.tier_warm_hits,
                (unsigned long long)stats.tier_cold_fetches,
                (unsigned long long)stats.tier_evictions,
                (unsigned long long)stats.tier_corrupt_drops);
  }
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 3) return Usage();
  // `query <file>` or `query --remote host:port`: same flags, same
  // query paths — only where cold shards fault from differs.
  std::string remote_spec;
  const char* in_path = argv[2];
  int flag_start = 3;
  if (std::strcmp(argv[2], "--remote") == 0) {
    if (argc < 4) return Usage();
    remote_spec = argv[3];
    in_path = nullptr;
    flag_start = 4;
  }
  std::string nodes_spec, pairs_spec;
  bool batch = false;
  int threads = 0;
  int prefetch = 0;
  bool have_cache_bytes = false;
  uint64_t cache_bytes = 0;
  std::vector<std::string> delta_paths;
  api::RemoteOptions remote_options;
  bool have_remote_flags = false;
  for (int i = flag_start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      nodes_spec = argv[++i];
    } else if (arg == "--pairs" && i + 1 < argc) {
      pairs_spec = argv[++i];
    } else if (arg == "--batch") {
      batch = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseCountFlag("--threads", argv[++i], kMaxThreads, &threads)) {
        return 2;
      }
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      if (!ParseU64(argv[++i], &cache_bytes)) {
        std::fprintf(stderr, "--cache-bytes expects a byte count, got "
                             "'%s'\n", argv[i]);
        return 2;
      }
      have_cache_bytes = true;
    } else if (arg == "--prefetch" && i + 1 < argc) {
      if (!ParseCountFlag("--prefetch", argv[++i], 64, &prefetch)) {
        return 2;
      }
    } else if (arg == "--pool" && i + 1 < argc) {
      if (!ParseCountFlag("--pool", argv[++i], 64,
                          &remote_options.pool_size)) {
        return 2;
      }
      have_remote_flags = true;
    } else if (arg == "--ssd-cache" && i + 1 < argc) {
      remote_options.ssd_cache_dir = argv[++i];
      have_remote_flags = true;
    } else if (arg == "--ssd-cache-bytes" && i + 1 < argc) {
      if (!ParseU64(argv[++i], &remote_options.ssd_cache_bytes)) {
        std::fprintf(stderr, "--ssd-cache-bytes expects a byte count, "
                             "got '%s'\n", argv[i]);
        return 2;
      }
      have_remote_flags = true;
    } else if (arg == "--warm-from-histogram" && i + 1 < argc) {
      std::string value = argv[++i];
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--warm-from-histogram expects 0 or 1, got "
                             "'%s'\n", value.c_str());
        return 2;
      }
      remote_options.warm_from_histogram = value == "1";
      have_remote_flags = true;
    } else if (arg == "--delta" && i + 1 < argc) {
      delta_paths.push_back(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (have_remote_flags && remote_spec.empty()) {
    std::fprintf(stderr,
                 "--pool/--ssd-cache/--ssd-cache-bytes/"
                 "--warm-from-histogram tune the remote tier; they "
                 "require --remote\n");
    return 2;
  }
  if (nodes_spec.empty() && pairs_spec.empty()) {
    std::fprintf(stderr, "query needs --nodes and/or --pairs\n");
    return 2;
  }
  std::vector<uint64_t> nodes;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  if (!nodes_spec.empty() && !ParseNodeList(nodes_spec, &nodes)) return 2;
  if (!pairs_spec.empty() && !ParsePairList(pairs_spec, &pairs)) return 2;

  // Local and served corpora open differently, then share everything:
  // the delta chain (anchored at the local base file, or by directory
  // checksum alone for a served base) and the query paths.
  auto rep = remote_spec.empty()
                 ? api::OpenCompressedFile(in_path)
                 : api::OpenRemote(remote_spec, remote_options);
  if (!rep.ok()) {
    std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
    return 1;
  }
  auto chained = api::ApplyDeltaChain(
      rep.value().get(), remote_spec.empty() ? in_path : "", delta_paths);
  if (!chained.ok()) {
    std::fprintf(stderr, "%s\n", chained.ToString().c_str());
    return 1;
  }
  return RunQueries(std::move(rep).ValueOrDie(), nodes, pairs, batch,
                    threads, have_cache_bytes, cache_bytes, prefetch);
}

// `append`: replay a text edit stream against a versioned corpus and
// write the result as a GRSHARD3 delta container. Edit lines are
// `a u v [label]` (append a rank-2 edge) or `d u v` (delete every
// rank-2 edge u -> v); '#' starts a comment, blank lines are skipped.
// The produced delta chains to the *last* input file (the base when no
// chain files are given) by whole-file hash + size, and is cumulative:
// it carries every edit since the base, so shipping only the newest
// link reproduces the full corpus.
bool ParseEditsFile(const std::string& path,
                    std::vector<shard::EdgeEdit>* edits) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open edits file %s\n", path.c_str());
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    char op = 0;
    unsigned long long u = 0, v = 0, label = 0;
    int fields = std::sscanf(line.c_str(), " %c %llu %llu %llu",
                             &op, &u, &v, &label);
    if (fields <= 0) continue;  // blank / comment-only line
    bool ok = u <= 0xFFFFFFFFull && v <= 0xFFFFFFFFull &&
              label <= 0xFFFFFFFFull;
    if (ok && op == 'a' && (fields == 3 || fields == 4)) {
      edits->push_back(shard::EdgeEdit::Add(
          static_cast<uint32_t>(u), static_cast<uint32_t>(v),
          static_cast<uint32_t>(label)));
    } else if (ok && op == 'd' && fields == 3) {
      edits->push_back(shard::EdgeEdit::Delete(
          static_cast<uint32_t>(u), static_cast<uint32_t>(v)));
    } else {
      std::fprintf(stderr, "%s:%zu: expected 'a u v [label]' or "
                           "'d u v', got '%s'\n",
                   path.c_str(), line_no, line.c_str());
      return false;
    }
  }
  return true;
}

int CmdAppend(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string base_path = argv[2];
  std::vector<std::string> chain;
  std::string edits_path, out_path;
  uint64_t fold_budget = 0;
  bool have_fold_budget = false;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--edits" && i + 1 < argc) {
      edits_path = argv[++i];
    } else if ((arg == "-o" || arg == "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--fold-budget" && i + 1 < argc) {
      if (!ParseU64(argv[++i], &fold_budget)) {
        std::fprintf(stderr, "--fold-budget expects a byte count, got "
                             "'%s'\n", argv[i]);
        return 2;
      }
      have_fold_budget = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      chain.push_back(arg);  // an earlier delta in the chain
    }
  }
  if (edits_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "append needs --edits <file> and -o <out>\n");
    return 2;
  }
  std::vector<shard::EdgeEdit> edits;
  if (!ParseEditsFile(edits_path, &edits)) return 1;

  std::string backend;
  auto rep = api::OpenVersioned(base_path, chain, &backend);
  if (!rep.ok()) {
    std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
    return 1;
  }
  if (have_fold_budget) rep.value()->set_overlay_budget_bytes(fold_budget);
  auto applied = rep.value()->ApplyEdits(edits);
  if (!applied.ok()) {
    std::fprintf(stderr, "%s\n", applied.ToString().c_str());
    return 1;
  }
  // The new delta chains to the newest existing file: the base when
  // this is the first delta, else the last chain link.
  const std::string& prev_path = chain.empty() ? base_path : chain.back();
  uint64_t prev_hash = 0, prev_size = 0;
  {
    auto prev = MmapFile::Open(prev_path);
    if (!prev.ok()) {
      std::fprintf(stderr, "%s\n", prev.status().ToString().c_str());
      return 1;
    }
    ByteSpan span = prev.value()->span();
    prev_hash = HashBytes(span.data, span.size);
    prev_size = span.size;
  }
  auto delta = rep.value()->BuildDelta(prev_hash, prev_size);
  if (!delta.ok()) {
    std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
    return 1;
  }
  if (!WriteBytes(out_path, shard::EncodeDeltaContainer(delta.value()))) {
    return 1;
  }
  std::printf("append: %s <- %zu edits (%zu changed shards, %zu adds + "
              "%zu kills residual) backend=%s\n",
              out_path.c_str(), edits.size(),
              delta.value().shards.size(), delta.value().adds.size(),
              delta.value().kills.size(), backend.c_str());
  return 0;
}

// `diff`: size a delta chain against re-shipping the whole base. Pure
// container inspection — nothing is decoded, so it works on corrupt
// payloads too (the trailing checksum is still verified).
int CmdDiff(int argc, char** argv) {
  if (argc < 4) return Usage();
  uint64_t base_size = 0;
  {
    auto base = MmapFile::Open(argv[2]);
    if (!base.ok()) {
      std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
      return 1;
    }
    base_size = base.value()->span().size;
  }
  std::printf("base: %s %llu bytes\n", argv[2],
              (unsigned long long)base_size);
  for (int i = 3; i < argc; ++i) {
    auto file = MmapFile::Open(argv[i]);
    if (!file.ok()) {
      std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
      return 1;
    }
    ByteSpan span = file.value()->span();
    auto delta = shard::DecodeDeltaContainer(span, argv[i]);
    if (!delta.ok()) {
      std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
      return 1;
    }
    uint64_t payload = 0;
    for (const auto& shard : delta.value().shards) {
      payload += shard.payload.size();
    }
    double pct = base_size == 0
                     ? 0.0
                     : 100.0 * (double)span.size / (double)base_size;
    std::printf("delta: %s %llu bytes (%.2f%% of base) shards=%zu "
                "shard_payload=%llu adds=%zu kills=%zu base=%s/%llu\n",
                argv[i], (unsigned long long)span.size, pct,
                delta.value().shards.size(),
                (unsigned long long)payload, delta.value().adds.size(),
                delta.value().kills.size(),
                HexU64(delta.value().base_hash).c_str(),
                (unsigned long long)delta.value().base_size);
  }
  return 0;
}

// `serve`: export GRSHARD2 containers over TCP until SIGINT or
// SIGTERM. Corpora come from repeatable `--corpus name=path` flags
// and/or bare arguments — a file registers under its basename (minus
// extension), a directory is scanned for every servable container.
// The listening line goes to stdout (flushed) so scripts can wait for
// it; everything after runs in the server's own threads.
std::atomic<bool> g_serve_stop{false};

void ServeSignalHandler(int) { g_serve_stop.store(true); }

// Basename minus the last extension, the same naming rule
// CorpusRegistry::DiscoverDirectory applies inside a directory.
std::string CorpusNameForPath(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) return base;
  return base.substr(0, dot);
}

int CmdServe(int argc, char** argv) {
  serve::ShardServer::Options options;
  serve::CorpusRegistry registry;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      int port = 0;
      if (!ParseCountFlag("--port", argv[++i], 65535, &port)) return 2;
      options.port = static_cast<uint16_t>(port);
    } else if (arg == "--pin-bytes" && i + 1 < argc) {
      if (!ParseU64(argv[++i], &options.pin_bytes)) {
        std::fprintf(stderr, "--pin-bytes expects a byte count, got "
                             "'%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--corpus" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "--corpus expects name=path, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      auto status = registry.AddFile(spec.substr(0, eq), spec.substr(eq + 1));
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    } else if (!arg.empty() && arg[0] != '-') {
      struct stat st;
      if (stat(arg.c_str(), &st) != 0) {
        std::fprintf(stderr, "serve: cannot stat %s: %s\n", arg.c_str(),
                     std::strerror(errno));
        return 1;
      }
      Status status = S_ISDIR(st.st_mode)
                          ? registry.DiscoverDirectory(arg)
                          : registry.AddFile(CorpusNameForPath(arg), arg);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    } else {
      return Usage();
    }
  }
  if (registry.empty()) {
    std::fprintf(stderr,
                 "serve needs at least one corpus (--corpus name=path, a "
                 "container file, or a directory of containers)\n");
    return 2;
  }
  size_t num_corpora = registry.size();
  auto server = serve::ShardServer::Start(std::move(registry), options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %zu corpus(es) on %s\n", num_corpora,
              server.value()->host_port().c_str());
  for (size_t i = 0; i < num_corpora; ++i) {
    const serve::Corpus& corpus = server.value()->registry().at(i);
    std::printf("  %s: inner=%s, %zu shards, %llu nodes\n",
                corpus.name.c_str(), corpus.inner_name.c_str(),
                corpus.rows.size(),
                (unsigned long long)corpus.num_nodes);
  }
  std::fflush(stdout);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.value()->Stop();
  auto stats = server.value()->stats();
  std::printf("served %llu request(s) on %llu connection(s), "
              "%llu byte(s) sent, %llu error(s)\n",
              (unsigned long long)stats.requests,
              (unsigned long long)stats.connections,
              (unsigned long long)stats.bytes_sent,
              (unsigned long long)stats.errors);
  for (const auto& corpus : stats.corpora) {
    std::printf("  %s: %llu request(s)\n", corpus.name.c_str(),
                (unsigned long long)corpus.requests);
  }
  return 0;
}

// `info --remote host:port[/corpus]`: asks a running shard server
// over the GRNF STATS verb. Without a corpus name it prints the
// serving totals and the corpus list; with one it additionally fetches
// that corpus's footer directory (the same bytes `info <file>` reads
// locally) and prints the shard table with the server's hot-shard hit
// histogram alongside.
int CmdInfoRemote(const std::string& target) {
  std::string host_port, corpus;
  auto split = serve::SplitTarget(target, &host_port, &corpus);
  if (!split.ok()) {
    std::fprintf(stderr, "%s\n", split.ToString().c_str());
    return 2;
  }
  auto stats = serve::FetchServerStats(host_port);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  const serve::ServerStatsSnapshot& snapshot = stats.value();
  std::printf("shard server %s: %zu corpus(es), %llu connection(s), "
              "%llu request(s), %llu byte(s) sent, %llu error(s)\n",
              host_port.c_str(), snapshot.corpora.size(),
              (unsigned long long)snapshot.connections,
              (unsigned long long)snapshot.requests,
              (unsigned long long)snapshot.bytes_sent,
              (unsigned long long)snapshot.errors);
  for (const auto& c : snapshot.corpora) {
    std::printf("  %s: inner=%s nodes=%llu shards=%zu requests=%llu\n",
                c.name.c_str(), c.inner_name.c_str(),
                (unsigned long long)c.num_nodes, c.shard_hits.size(),
                (unsigned long long)c.requests);
  }
  if (corpus.empty() && snapshot.corpora.size() != 1) return 0;
  std::string resolved;
  auto dir = serve::FetchCorpusDirectory(host_port, corpus,
                                         /*io_timeout_ms=*/30000, &resolved);
  if (!dir.ok()) {
    std::fprintf(stderr, "%s\n", dir.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint64_t>* hits = nullptr;
  const std::vector<uint8_t>* pinned = nullptr;
  for (const auto& c : snapshot.corpora) {
    if (c.name == resolved) {
      hits = &c.shard_hits;
      pinned = &c.shard_pinned;
    }
  }
  std::printf("corpus %s: inner=%s nodes=%llu shards=%zu\n",
              resolved.empty() ? corpus.c_str() : resolved.c_str(),
              dir.value().inner_name.c_str(),
              (unsigned long long)dir.value().num_nodes,
              dir.value().rows.size());
  // heat = this shard's share of all hits; pinned reflects the
  // server's current placement (blank when it has no pin budget).
  uint64_t total_hits = 0;
  if (hits != nullptr) {
    for (uint64_t h : *hits) total_hits += h;
  }
  std::printf("%6s %10s %10s %18s %10s %10s %7s %7s\n", "shard", "offset",
              "length", "checksum", "nodes", "hits", "heat", "pinned");
  for (size_t i = 0; i < dir.value().rows.size(); ++i) {
    const auto& s = dir.value().rows[i];
    uint64_t shard_hit_count =
        hits != nullptr && i < hits->size() ? (*hits)[i] : 0;
    double heat = total_hits > 0
                      ? 100.0 * static_cast<double>(shard_hit_count) /
                            static_cast<double>(total_hits)
                      : 0.0;
    bool is_pinned =
        pinned != nullptr && i < pinned->size() && (*pinned)[i] != 0;
    std::printf("%6zu %10llu %10llu 0x%016llx %10llu %10llu %6.1f%% %7s\n",
                i, (unsigned long long)s.offset,
                (unsigned long long)s.length,
                (unsigned long long)s.checksum,
                (unsigned long long)s.node_count,
                (unsigned long long)shard_hit_count, heat,
                is_pinned ? "yes" : "-");
  }
  return 0;
}

// `info`: the container directory without decoding a shard — the
// backend tag and the per-shard offset/length/checksum/node-count
// table from the parsed GRSHARD2 directory. No inner rep is ever
// constructed, and a tag that names another inner codec than the
// directory fails as it does at open.
int CmdInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::strcmp(argv[2], "--remote") == 0) {
    if (argc < 4) return Usage();
    return CmdInfoRemote(argv[3]);
  }
  std::string inner;
  ByteSpan payload;
  auto file = api::MapShardedFile(argv[2], &inner, &payload);
  if (!file.ok()) {
    std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
    return 1;
  }
  auto parsed = shard::ParseContainer(payload);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[2],
                 parsed.status().ToString().c_str());
    return 1;
  }
  const shard::ParsedDirectory& dir = parsed.value().dir;
  Status tag = api::CheckTaggedInner(argv[2], inner, dir.inner_name);
  if (!tag.ok()) {
    std::fprintf(stderr, "%s\n", tag.ToString().c_str());
    return 1;
  }
  size_t size = file.value()->span().size;
  std::printf("%s: %zu bytes (%s)\n", argv[2], size,
              file.value()->is_mapped() ? "mmap" : "heap");
  std::printf("backend: sharded:%s (payload %zu bytes at offset %zu)\n",
              inner.c_str(), payload.size, size - payload.size);
  std::printf("sharded container GRSHARD2: inner=%s nodes=%llu shards=%zu\n",
              dir.inner_name.c_str(),
              static_cast<unsigned long long>(dir.num_nodes),
              dir.rows.size());
  std::printf("%6s %10s %10s %18s %10s\n", "shard", "offset", "length",
              "checksum", "nodes");
  for (size_t i = 0; i < dir.rows.size(); ++i) {
    const auto& s = dir.rows[i];
    std::printf("%6zu %10llu %10llu 0x%016llx %10llu\n", i,
                (unsigned long long)s.offset, (unsigned long long)s.length,
                (unsigned long long)s.checksum,
                (unsigned long long)s.node_count);
  }
  return 0;
}

// `stats` and `components` work on the grammar itself, so they take a
// file of one sharded:grepair shard (what `compress` writes by
// default). The shard's payload comes through the rep's
// checksum-verified fault path; its grammar covers the nodes that
// have an edge. `*dropped_nodes` receives the edgeless nodes the
// partitioner left out of the shard. A graph without edges has no
// grammar (nullopt).
Result<std::optional<CompressedGraph>> LoadOneGrammar(
    const std::string& path, uint64_t* dropped_nodes) {
  auto rep = api::OpenCompressedFile(path);
  if (!rep.ok()) return rep.status();
  const shard::ShardedRep& sharded = *rep.value();
  if (sharded.inner_name() != "grepair") {
    return Status::InvalidArgument(path + " holds 'sharded:" +
                                   sharded.inner_name() +
                                   "' shards; this command needs "
                                   "'sharded:grepair'");
  }
  // The directory lists the data shards, then the cut shard.
  size_t data_shards = sharded.num_shards() - 1;
  if (data_shards != 1 || sharded.entry(1).has_payload()) {
    return Status::InvalidArgument(
        path + " holds " + std::to_string(data_shards) +
        " data shards; this command reads the one grammar of a 1-shard "
        "file (compress without --shards)");
  }
  *dropped_nodes = sharded.num_nodes() - sharded.entry(0).nodes.size();
  if (!sharded.entry(0).has_payload()) return {std::nullopt};
  std::vector<uint8_t> fetched;
  auto payload = sharded.store().VerifiedPayload(0, &fetched);
  if (!payload.ok()) return payload.status();
  return CompressedGraph::Deserialize(payload.value());
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  uint64_t dropped_nodes = 0;
  auto graph = LoadOneGrammar(argv[2], &dropped_nodes);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  if (!graph.value()) {
    std::fprintf(stderr, "%s holds a graph without edges\n", argv[2]);
    return 1;
  }
  const SlhrGrammar& grammar = graph.value()->grammar();
  auto s = ComputeGrammarStats(grammar);
  std::printf("rules:            %u\n", s.num_rules);
  std::printf("height:           %u\n", s.height);
  std::printf("max NT rank:      %u\n", s.max_nonterminal_rank);
  std::printf("|G| (rules):      %llu\n",
              static_cast<unsigned long long>(s.rule_size));
  std::printf("|S| (start):      %llu (%u nodes, %u edges)\n",
              static_cast<unsigned long long>(s.start_size), s.start_nodes,
              s.start_edges);
  const ValSize val = ComputeValSize(grammar);
  std::printf("val(G):           %llu nodes, %llu edges\n",
              static_cast<unsigned long long>(val.nodes),
              static_cast<unsigned long long>(val.edges));
  return 0;
}

int CmdComponents(int argc, char** argv) {
  if (argc < 3) return Usage();
  uint64_t dropped_nodes = 0;
  auto graph = LoadOneGrammar(argv[2], &dropped_nodes);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  // Each edgeless node is a component of its own.
  uint64_t components =
      dropped_nodes +
      (graph.value() ? graph.value()->NumConnectedComponents() : 0);
  std::printf("%llu connected components\n",
              static_cast<unsigned long long>(components));
  return 0;
}

// Builds the named synthetic dataset; false on unknown kind. `size`
// is the kind's primary scale knob (0 = default).
bool MakeGenerated(const std::string& kind, uint32_t size,
                   GeneratedGraph* g) {
  if (kind == "er") {
    uint32_t n = size ? size : 1000;
    *g = ErdosRenyi(n, n * 4, 1);
  } else if (kind == "ba") {
    *g = BarabasiAlbert(size ? size : 1000, 4, 1);
  } else if (kind == "coauth") {
    uint32_t n = size ? size : 1000;
    *g = CoAuthorship(n, n * 3 / 2, 1);
  } else if (kind == "rdf-types") {
    *g = RdfTypes(size ? size : 10000, 50, 1);
  } else if (kind == "rdf-entities") {
    *g = RdfEntities(size ? size : 2000, 12, 100, 1);
  } else if (kind == "copies") {
    *g = DisjointCopies(CycleWithDiagonal(), size ? size : 256, "copies");
  } else if (kind == "dblp") {
    *g = DblpVersions(size ? size : 8, 200, 100, 1, "dblp");
  } else {
    return false;
  }
  return true;
}

int CmdGen(int argc, char** argv) {
  if (argc < 4) return Usage();
  uint32_t size = 0;
  if (argc >= 5) {
    // atoi would wrap negatives/overflow through the uint32_t cast
    // into enormous generator sizes.
    uint64_t parsed = 0;
    if (!ParseU64(argv[4], &parsed) || parsed > 0xFFFFFFFFull) {
      std::fprintf(stderr,
                   "gen expects a size in [0, 4294967295], got '%s'\n",
                   argv[4]);
      return 2;
    }
    size = static_cast<uint32_t>(parsed);
  }
  GeneratedGraph g;
  if (!MakeGenerated(argv[2], size, &g)) return Usage();
  auto status = SaveGraphText(g.graph, g.alphabet, argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %u edges, %zu labels\n", argv[3],
              g.graph.num_nodes(), g.graph.num_edges(), g.alphabet.size());
  return 0;
}

// Sorted unique (source, target) pairs; the round-trip invariant every
// codec guarantees (the unlabeled baselines drop labels, so the bench
// check compares structure, not labels).
std::vector<std::pair<uint32_t, uint32_t>> UnlabeledEdgeSet(
    const Hypergraph& g) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2) edges.push_back({e.att[0], e.att[1]});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// Runs one codec over a generated dataset: compress, size, timing, and
// a full serialize -> deserialize -> decompress round-trip check.
// Returns 1 on hard failure, 0 on success or not-applicable.
int BenchOne(const std::string& backend, const GeneratedGraph& gg,
             const api::CodecOptions& options, bool* applicable) {
  *applicable = false;
  auto codec = api::CodecRegistry::Create(backend);
  if (!codec.ok()) {
    std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
    return 1;
  }
  auto t0 = std::chrono::steady_clock::now();
  auto rep = codec.value()->Compress(gg.graph, gg.alphabet, options);
  auto t1 = std::chrono::steady_clock::now();
  if (!rep.ok()) {
    if (rep.status().code() == StatusCode::kInvalidArgument) {
      std::printf("%-12s %12s   (%s)\n", backend.c_str(), "n/a",
                  rep.status().message().c_str());
      return 0;
    }
    std::fprintf(stderr, "%s: %s\n", backend.c_str(),
                 rep.status().ToString().c_str());
    return 1;
  }
  *applicable = true;
  auto bytes = rep.value()->Serialize();
  auto round = codec.value()->Deserialize(bytes);
  const char* roundtrip = "FAIL";
  if (round.ok()) {
    auto back = round.value()->Decompress();
    if (back.ok() && back.value().num_nodes() == gg.graph.num_nodes() &&
        UnlabeledEdgeSet(back.value()) == UnlabeledEdgeSet(gg.graph)) {
      roundtrip = "ok";
    }
  }
  double seconds = std::chrono::duration<double>(t1 - t0).count();
  std::printf("%-12s %12zu %9.3f %10.1f %10s %10s\n", backend.c_str(),
              rep.value()->ByteSize(),
              BitsPerEdge(rep.value()->ByteSize(), gg.graph.num_edges()),
              seconds * 1e3,
              (codec.value()->capabilities() & api::kNeighborQueries)
                  ? "yes"
                  : "no",
              roundtrip);
  return std::strcmp(roundtrip, "ok") == 0 ? 0 : 1;
}

int CmdBench(int argc, char** argv) {
  std::string backend = "all";
  std::string kind;
  std::string option_spec;
  ShardFlags shard_flags;
  uint32_t size = 0;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      backend = argv[++i];
    } else if (arg == "--gen" && i + 1 < argc) {
      kind = argv[++i];
    } else if (arg == "--size" && i + 1 < argc) {
      int parsed = 0;
      if (!ParseCountFlag("--size", argv[++i], 1 << 30, &parsed)) return 2;
      size = static_cast<uint32_t>(parsed);
    } else if (arg == "--options" && i + 1 < argc) {
      option_spec = argv[++i];
    } else if (ShardFlagParse m =
                   MatchShardFlag(arg, argc, argv, &i, &shard_flags);
               m != ShardFlagParse::kNoMatch) {
      if (m == ShardFlagParse::kError) return 2;
    } else {
      return Usage();
    }
  }
  if (kind.empty()) return Usage();
  if (shard_flags.requested() && backend == "all") {
    std::fprintf(stderr,
                 "--shards/--threads need a single --backend "
                 "(run e.g. --backend grepair --shards 8)\n");
    return 2;
  }
  GeneratedGraph gg;
  if (!MakeGenerated(kind, size, &gg)) {
    std::fprintf(stderr, "unknown dataset kind %s\n", kind.c_str());
    return 2;
  }
  auto options = api::CodecOptions::Parse(option_spec);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  ApplyShardFlags(shard_flags, &backend, &options.value());
  std::printf("dataset %s: %u nodes, %u edges, %zu labels\n",
              gg.name.c_str(), gg.graph.num_nodes(), gg.graph.num_edges(),
              gg.alphabet.size());
  std::printf("%-12s %12s %9s %10s %10s %10s\n", "backend", "bytes", "bpe",
              "ms", "queries", "roundtrip");
  int rc = 0;
  if (backend == "all") {
    bool any_applicable = false;
    for (const auto& name : api::CodecRegistry::Names()) {
      bool applicable = false;
      rc |= BenchOne(name, gg, options.value(), &applicable);
      any_applicable |= applicable;
    }
    if (!any_applicable && rc == 0) {
      // Every codec refusing usually means the --options spec itself is
      // bad (a typo'd key rejects everywhere), not a benign mismatch.
      std::fprintf(stderr, "no codec ran; check --options\n");
      rc = 1;
    }
  } else {
    bool applicable = false;
    rc |= BenchOne(backend, gg, options.value(), &applicable);
    if (rc == 0 && !applicable) rc = 1;  // asked-for backend must run
  }
  return rc;
}

int CmdBackends() {
  for (const auto& name : api::CodecRegistry::Names()) {
    auto codec = api::CodecRegistry::Create(name).ValueOrDie();
    uint32_t caps = codec->capabilities();
    std::printf("%-12s labels=%s hyperedges=%s neighbors=%s "
                "reachability=%s\n",
                name.c_str(),
                (caps & api::kSupportsLabels) ? "yes" : "no",
                (caps & api::kSupportsHyperedges) ? "yes" : "no",
                (caps & api::kNeighborQueries) ? "yes" : "no",
                (caps & api::kReachabilityQueries) ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "compress") return CmdCompress(argc, argv);
  if (cmd == "decompress") return CmdDecompress(argc, argv);
  if (cmd == "bench") return CmdBench(argc, argv);
  if (cmd == "backends") return CmdBackends();
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "append") return CmdAppend(argc, argv);
  if (cmd == "diff") return CmdDiff(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "components") return CmdComponents(argc, argv);
  if (cmd == "gen") return CmdGen(argc, argv);
  return Usage();
}
