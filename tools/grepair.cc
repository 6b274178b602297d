// grepair — command-line driver for the library. Usage() lists every
// command and flag; `grepair` with no arguments prints it.
//
// One file kind: `compress` writes "sharded:grepair", one edge-range
// shard unless `--shards` asks for more, as a checksummed GRSHARD2
// container inside the backend-tagged GRPCODEC frame; `--options`
// passes the grepair key=value options, and `bench` runs the same
// compression over a generated dataset with a round-trip check. The
// paper's size-only baselines (k^2-trees, HN, LM, adjacency RePair)
// live in bench/, not here. Every command opens files lazily through
// src/api/container.h, so `query` and `decompress` fault in only the
// shards they touch and `info` prints the directory without decoding
// one; untagged and old single-codec files are refused. Shards carry
// the node mapping, so answers use the input's node ids. `stats` and
// `components` read the one grammar of a 1-shard file.
//
// `query` answers out-neighbor (--nodes) and reachability (--pairs)
// queries without decompressing and ends with one `stats:` line of
// every api::QueryStats counter. `append` writes an edit stream as a
// GRSHARD3 delta chained to its base by content hash, `query --delta`
// applies a verified chain and `diff` sizes it against the base.
// `serve` exports many corpora over TCP (GRNF v2, src/serve/); `query
// --remote host:port/corpus` runs the same query paths against one,
// through a connection pool (--pool) and an optional checksummed SSD
// cache (--ssd-cache), and `info --remote` prints a server's
// per-corpus stats and hot-shard histograms.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <variant>
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

// The one codec every command writes and reads.
constexpr char kFileCodec[] = "sharded:grepair";

int Usage() {
  std::fprintf(
      stderr,
      "usage: grepair <command> ...\n"
      "  compress <in.graph> <out> [--options k=v,...] [--shards K]\n"
      "           [--threads T]\n"
      "  decompress <in> <out.graph> [--threads T]\n"
      "  bench --gen KIND [--size N] [--options k=v,...] [--shards K]\n"
      "        [--threads T]\n"
      "  query <in>|--remote host:port[/corpus] [--nodes 1,2,3]\n"
      "        [--pairs 1:2,3:4] [--batch] [--cache-bytes N] [--threads T]\n"
      "        [--pool N] [--ssd-cache DIR] [--ssd-cache-bytes N]\n"
      "        [--warm-from-histogram 0|1]\n"
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
      "<out.graph> [size]\n");
  return 2;
}

// The one failure path: a Status error (opens and writes name their
// path) goes to stderr, and the command exits 1.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

// Arguments: each command declares its flags and how many positional
// arguments it takes, and ParseArgs is the only loop over argv.

// A bounded integer value. atoi would turn "--shards abc" into an
// unsharded run; the bounds match the consumer's own validation.
struct Count {
  int* out;
  long min, max;
};
// A 0|1 value.
struct Bit {
  bool* out;
};
// Where a flag's value lands, which also says how it parses: a string,
// a repeatable string, a switch (it takes no value), a byte count, a
// bounded count or 0|1.
using FlagTarget = std::variant<std::string*, std::vector<std::string>*,
                                bool*, uint64_t*, Count, Bit>;
struct Flag {
  const char* name;
  FlagTarget target;
};

// A parsed command line: the positional arguments in order, and the
// flags that were given (their values are already in their targets).
struct Args {
  std::vector<std::string> positional;
  std::set<std::string> given;
  bool has(const char* flag) const { return given.count(flag) != 0; }
};

constexpr size_t kAnyCount = SIZE_MAX;
constexpr int kMaxThreads = 256;  // ParallelCompressor's clamp

// Strict unsigned integer parse for query ids and byte counts; atoi
// would silently accept "12abc" and negative values.
bool ParseU64(const std::string& text, uint64_t* out) {
  // Leading digit required: strtoull alone would accept whitespace,
  // '+' and (wrapping!) '-' prefixes.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

// Stores `text` (empty for a switch) through `target`. Returns what
// the flag expects when `text` is malformed, else "".
std::string SetFlag(const FlagTarget& target, const std::string& text) {
  if (auto* on = std::get_if<bool*>(&target)) {
    **on = true;
  } else if (auto* str = std::get_if<std::string*>(&target)) {
    **str = text;
  } else if (auto* list = std::get_if<std::vector<std::string>*>(&target)) {
    (*list)->push_back(text);
  } else if (auto* bytes = std::get_if<uint64_t*>(&target)) {
    if (!ParseU64(text, *bytes)) return "a byte count";
  } else if (auto* count = std::get_if<Count>(&target)) {
    char* end = nullptr;
    long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || value < count->min ||
        value > count->max) {
      return "an integer in [" + std::to_string(count->min) + ", " +
             std::to_string(count->max) + "]";
    }
    *count->out = static_cast<int>(value);
  } else if (auto* bit = std::get_if<Bit>(&target)) {
    if (text != "0" && text != "1") return "0 or 1";
    *bit->out = text == "1";
  }
  return "";
}

// Parses argv[2..] against `flags`; anything not starting with '-' is
// positional. nullopt means exit 2: after the usage text on an unknown
// flag, a flag without its value or a positional count outside
// [min_positional, max_positional], after one "<flag> expects <what>,
// got '<text>'" line on a malformed value.
std::optional<Args> ParseArgs(int argc, char** argv,
                              std::initializer_list<Flag> flags,
                              size_t min_positional, size_t max_positional) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      args.positional.push_back(arg);
      continue;
    }
    const Flag* flag = std::find_if(
        flags.begin(), flags.end(),
        [&](const Flag& f) { return arg == f.name; });
    bool takes_value =
        flag != flags.end() && !std::holds_alternative<bool*>(flag->target);
    if (flag == flags.end() || (takes_value && i + 1 == argc)) {
      Usage();
      return std::nullopt;
    }
    args.given.insert(arg);
    const char* text = takes_value ? argv[++i] : "";
    std::string expects = SetFlag(flag->target, text);
    if (!expects.empty()) {
      std::fprintf(stderr, "%s expects %s, got '%s'\n", flag->name,
                   expects.c_str(), text);
      return std::nullopt;
    }
  }
  if (args.positional.size() < min_positional ||
      args.positional.size() > max_positional) {
    Usage();
    return std::nullopt;
  }
  return args;
}

// Parses the --options spec and adds --shards/--threads to it;
// nullopt (exit 1, reported) on a malformed spec.
std::optional<api::CodecOptions> FileCodecOptions(const std::string& spec,
                                                  int shards, int threads) {
  auto options = api::CodecOptions::Parse(spec);
  if (!options.ok()) {
    Fail(options.status());
    return std::nullopt;
  }
  if (shards > 0) options.value().Set("shards", std::to_string(shards));
  if (threads > 0) options.value().Set("threads", std::to_string(threads));
  return std::move(options).ValueOrDie();
}

int CmdCompress(int argc, char** argv) {
  std::string option_spec;
  int shards = 1;  // every file is a sharded container
  int threads = 0;
  auto args = ParseArgs(argc, argv,
                        {{"--options", &option_spec},
                         {"--shards", Count{&shards, 1, shard::kMaxShards}},
                         {"--threads", Count{&threads, 1, kMaxThreads}}},
                        2, 2);
  if (!args) return 2;
  auto loaded = LoadGraphText(args->positional[0]);
  if (!loaded.ok()) return Fail(loaded.status());
  auto options = FileCodecOptions(option_spec, shards, threads);
  if (!options) return 1;
  const Hypergraph& graph = loaded.value().graph;
  auto rep = shard::ShardedCodec().Compress(graph, loaded.value().alphabet,
                                            *options);
  if (!rep.ok()) return Fail(rep.status());
  auto bytes = api::WrapCodecPayload(kFileCodec, rep.value()->Serialize());
  Status written = WriteFileBytes(args->positional[1], bytes);
  if (!written.ok()) return Fail(written);
  std::printf("[%s] %u edges -> %zu bytes on disk (%.3f bpe as measured "
              "by the bench tables)\n",
              kFileCodec, graph.num_edges(), bytes.size(),
              BitsPerEdge(rep.value()->ByteSize(), graph.num_edges()));
  return 0;
}

int CmdDecompress(int argc, char** argv) {
  int threads = 0;
  auto args = ParseArgs(
      argc, argv, {{"--threads", Count{&threads, 1, kMaxThreads}}}, 2, 2);
  if (!args) return 2;
  // The file opens lazily and Decompress faults the shards on the
  // decompress thread pool.
  auto rep = api::OpenCompressedFile(args->positional[0]);
  if (!rep.ok()) return Fail(rep.status());
  if (threads > 1) rep.value()->set_threads(threads);
  auto graph = rep.value()->Decompress();
  if (!graph.ok()) return Fail(graph.status());
  // Codec payloads carry no label names, only labeled edges.
  Status saved = SaveGraphText(graph.value(), InferAlphabet(graph.value()),
                               args->positional[1]);
  if (!saved.ok()) return Fail(saved);
  std::printf("[%s] wrote %u nodes, %u edges\n", kFileCodec,
              graph.value().num_nodes(), graph.value().num_edges());
  return 0;
}

// Splits `flag`'s "a,b,c" value, if given, and parses each item; a
// malformed item is a hard error, not a skip.
template <typename T, typename Parse>
bool ParseList(const char* flag, const char* items, const std::string& spec,
               Parse parse, std::vector<T>* out) {
  if (spec.empty()) return true;
  for (size_t pos = 0; pos <= spec.size();) {
    size_t end = std::min(spec.find(',', pos), spec.size());
    T item{};
    if (!parse(spec.substr(pos, end - pos), &item)) {
      std::fprintf(stderr, "%s expects comma-separated %s, got '%s'\n", flag,
                   items, spec.c_str());
      return false;
    }
    out->push_back(item);
    pos = end + 1;
  }
  return true;
}

// "from:to", one --pairs item.
bool ParsePair(const std::string& item, std::pair<uint64_t, uint64_t>* out) {
  size_t colon = item.find(':');
  return colon != std::string::npos &&
         ParseU64(item.substr(0, colon), &out->first) &&
         ParseU64(item.substr(colon + 1), &out->second);
}

int CmdQuery(int argc, char** argv) {
  std::string remote_spec, nodes_spec, pairs_spec;
  bool batch = false;
  int threads = 0;
  uint64_t cache_bytes = 0;
  std::vector<std::string> delta_paths;
  api::RemoteOptions remote_options;
  auto args = ParseArgs(
      argc, argv,
      {{"--remote", &remote_spec},
       {"--nodes", &nodes_spec},
       {"--pairs", &pairs_spec},
       {"--batch", &batch},
       {"--threads", Count{&threads, 1, kMaxThreads}},
       {"--cache-bytes", &cache_bytes},
       {"--pool", Count{&remote_options.pool_size, 1, 64}},
       {"--ssd-cache", &remote_options.ssd_cache_dir},
       {"--ssd-cache-bytes", &remote_options.ssd_cache_bytes},
       {"--warm-from-histogram", Bit{&remote_options.warm_from_histogram}},
       {"--delta", &delta_paths}},
      0, 1);
  if (!args) return 2;
  // `query <file>` or `query --remote host:port`: same flags, same
  // query paths — only where cold shards fault from differs.
  const bool remote = args->has("--remote");
  if (remote == (args->positional.size() == 1)) return Usage();
  if (!remote && (args->has("--pool") || args->has("--ssd-cache") ||
                  args->has("--ssd-cache-bytes") ||
                  args->has("--warm-from-histogram"))) {
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
  if (!ParseList("--nodes", "ids", nodes_spec, ParseU64, &nodes) ||
      !ParseList("--pairs", "from:to pairs", pairs_spec, ParsePair, &pairs)) {
    return 2;
  }

  // Local and served corpora open differently, then share everything:
  // the delta chain (anchored at the local base file, or by directory
  // checksum alone for a served base) and the query paths.
  const std::string in_path = remote ? "" : args->positional[0];
  auto opened = remote ? api::OpenRemote(remote_spec, remote_options)
                       : api::OpenCompressedFile(in_path);
  if (!opened.ok()) return Fail(opened.status());
  shard::ShardedRep& rep = *opened.value();
  Status chained = api::ApplyDeltaChain(&rep, in_path, delta_paths);
  if (!chained.ok()) return Fail(chained);
  if (threads > 1) rep.set_threads(threads);
  if (args->has("--cache-bytes")) {
    rep.set_query_cache_bytes(static_cast<size_t>(cache_bytes));
  }
  std::printf("[%s] %llu nodes\n", kFileCodec,
              static_cast<unsigned long long>(rep.num_nodes()));
  std::vector<std::vector<uint64_t>> outs;
  if (batch && !nodes.empty()) {
    auto results = rep.OutNeighborsBatch(nodes);
    if (!results.ok()) return Fail(results.status());
    outs = std::move(results).ValueOrDie();
  }
  for (size_t j = 0; j < nodes.size(); ++j) {
    if (!batch) {
      auto out = rep.OutNeighbors(nodes[j]);
      if (!out.ok()) return Fail(out.status());
      outs.push_back(std::move(out).ValueOrDie());
    }
    std::printf("out[%llu] (%zu):", static_cast<unsigned long long>(nodes[j]),
                outs[j].size());
    for (uint64_t v : outs[j]) std::printf(" %llu", (unsigned long long)v);
    std::printf("\n");
  }
  if (!pairs.empty()) {
    std::vector<uint8_t> verdicts;
    if (batch) {
      auto results = rep.ReachableBatch(pairs);
      if (!results.ok()) return Fail(results.status());
      verdicts = std::move(results).ValueOrDie();
    } else {
      for (const auto& [from, to] : pairs) {
        auto r = rep.Reachable(from, to);
        if (!r.ok()) return Fail(r.status());
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
  // Every counter by field name; CI asserts remote_fetches=0 on an
  // SSD-warm remote run.
  api::QueryStats stats = rep.query_stats();
  std::printf("stats:");
  for (const api::QueryStatsField& field : api::kQueryStatsFields) {
    std::printf(" %s=%llu", field.name,
                static_cast<unsigned long long>(stats.*field.member));
  }
  std::printf("\n");
  return 0;
}

// `append`: replay an edit stream against a versioned corpus and write
// a GRSHARD3 delta container. The delta chains to the *last* input
// file (the base when no chain files are given) by whole-file hash +
// size, and is cumulative: it carries every edit since the base, so
// shipping only the newest link reproduces the full corpus.
int CmdAppend(int argc, char** argv) {
  std::string edits_path, out_path;
  uint64_t fold_budget = 0;
  auto args = ParseArgs(argc, argv,
                        {{"--edits", &edits_path},
                         {"-o", &out_path},
                         {"--out", &out_path},
                         {"--fold-budget", &fold_budget}},
                        1, kAnyCount);
  if (!args) return 2;
  if (edits_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "append needs --edits <file> and -o <out>\n");
    return 2;
  }
  // The edit text (format at shard::ParseEditText), read in full before
  // the corpus opens; a bad line names its file and line number.
  std::ifstream edits_file(edits_path, std::ios::binary);
  if (!edits_file) {
    std::fprintf(stderr, "cannot open edits file %s\n", edits_path.c_str());
    return 1;
  }
  const std::string edits_text((std::istreambuf_iterator<char>(edits_file)),
                               std::istreambuf_iterator<char>());
  auto parsed = shard::ParseEditText(edits_text, edits_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    return 1;
  }
  const std::vector<shard::EdgeEdit>& edits = parsed.value();

  // The base, then any earlier deltas of the chain.
  const std::string& base_path = args->positional[0];
  const std::vector<std::string> chain(args->positional.begin() + 1,
                                       args->positional.end());
  auto rep = api::OpenVersioned(base_path, chain);
  if (!rep.ok()) return Fail(rep.status());
  if (args->has("--fold-budget")) {
    rep.value()->set_overlay_budget_bytes(fold_budget);
  }
  Status applied = rep.value()->ApplyEdits(edits);
  if (!applied.ok()) return Fail(applied);
  // The new delta chains to the newest existing file: the base when
  // this is the first delta, else the last chain link.
  uint64_t prev_hash = 0, prev_size = 0;
  {
    auto prev = MmapFile::Open(chain.empty() ? base_path : chain.back());
    if (!prev.ok()) return Fail(prev.status());
    ByteSpan span = prev.value()->span();
    prev_hash = HashBytes(span.data, span.size);
    prev_size = span.size;
  }
  auto delta = rep.value()->BuildDelta(prev_hash, prev_size);
  if (!delta.ok()) return Fail(delta.status());
  Status written =
      WriteFileBytes(out_path, shard::EncodeDeltaContainer(delta.value()));
  if (!written.ok()) return Fail(written);
  std::printf("append: %s <- %zu edits (%zu changed shards, %zu adds + "
              "%zu kills residual) backend=%s\n",
              out_path.c_str(), edits.size(),
              delta.value().shards.size(), delta.value().adds.size(),
              delta.value().kills.size(), kFileCodec);
  return 0;
}

// `diff`: size a delta chain against re-shipping the whole base. Pure
// container inspection — nothing is decoded, so it works on corrupt
// payloads too (the trailing checksum is still verified).
int CmdDiff(int argc, char** argv) {
  auto args = ParseArgs(argc, argv, {}, 2, kAnyCount);
  if (!args) return 2;
  const std::string& base_path = args->positional[0];
  auto base = MmapFile::Open(base_path);
  if (!base.ok()) return Fail(base.status());
  const uint64_t base_size = base.value()->span().size;
  std::printf("base: %s %llu bytes\n", base_path.c_str(),
              (unsigned long long)base_size);
  for (size_t i = 1; i < args->positional.size(); ++i) {
    const std::string& path = args->positional[i];
    auto file = MmapFile::Open(path);
    if (!file.ok()) return Fail(file.status());
    ByteSpan span = file.value()->span();
    auto delta = shard::DecodeDeltaContainer(span, path);
    if (!delta.ok()) return Fail(delta.status());
    uint64_t payload = 0;
    for (const auto& shard : delta.value().shards) {
      payload += shard.payload.size();
    }
    double pct = base_size == 0
                     ? 0.0
                     : 100.0 * (double)span.size / (double)base_size;
    std::printf("delta: %s %llu bytes (%.2f%% of base) shards=%zu "
                "shard_payload=%llu adds=%zu kills=%zu base=%s/%llu\n",
                path.c_str(), (unsigned long long)span.size, pct,
                delta.value().shards.size(),
                (unsigned long long)payload, delta.value().adds.size(),
                delta.value().kills.size(),
                HexU64(delta.value().base_hash).c_str(),
                (unsigned long long)delta.value().base_size);
  }
  return 0;
}

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

// `serve`: export GRSHARD2 containers over TCP until SIGINT or
// SIGTERM. Corpora come from repeatable `--corpus name=path` flags
// and/or bare arguments — a file registers under its basename (minus
// extension), a directory is scanned for every servable container.
// The listening line goes to stdout (flushed) so scripts can wait for
// it; everything after runs in the server's own threads.
int CmdServe(int argc, char** argv) {
  serve::ShardServer::Options options;
  int port = options.port;  // 0 picks an ephemeral port
  std::vector<std::string> corpus_specs;
  auto args = ParseArgs(argc, argv,
                        {{"--host", &options.host},
                         {"--port", Count{&port, 0, 65535}},
                         {"--pin-bytes", &options.pin_bytes},
                         {"--corpus", &corpus_specs}},
                        0, kAnyCount);
  if (!args) return 2;
  options.port = static_cast<uint16_t>(port);
  serve::CorpusRegistry registry;
  for (const std::string& spec : corpus_specs) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      std::fprintf(stderr, "--corpus expects name=path, got '%s'\n",
                   spec.c_str());
      return 2;
    }
    Status added = registry.AddFile(spec.substr(0, eq), spec.substr(eq + 1));
    if (!added.ok()) return Fail(added);
  }
  for (const std::string& path : args->positional) {
    struct stat st;
    if (stat(path.c_str(), &st) != 0) {
      std::fprintf(stderr, "serve: cannot stat %s: %s\n", path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    Status added = S_ISDIR(st.st_mode)
                       ? registry.DiscoverDirectory(path)
                       : registry.AddFile(CorpusNameForPath(path), path);
    if (!added.ok()) return Fail(added);
  }
  if (registry.empty()) {
    std::fprintf(stderr,
                 "serve needs at least one corpus (--corpus name=path, a "
                 "container file, or a directory of containers)\n");
    return 2;
  }
  size_t num_corpora = registry.size();
  auto server = serve::ShardServer::Start(std::move(registry), options);
  if (!server.ok()) return Fail(server.status());
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

// The shard table of `info`: one row per directory entry. `served`
// (`info --remote` only: the server's stats for this corpus) adds its
// hit histogram as hits/heat columns — heat is a shard's share of all
// hits — and its current placement as a pinned column.
void PrintShardTable(const shard::ParsedDirectory& dir,
                     const serve::CorpusServeStats* served) {
  std::printf("%6s %10s %10s %18s %10s", "shard", "offset", "length",
              "checksum", "nodes");
  uint64_t total_hits = 0;
  if (served != nullptr) {
    std::printf(" %10s %7s %7s", "hits", "heat", "pinned");
    for (uint64_t h : served->shard_hits) total_hits += h;
  }
  std::printf("\n");
  for (size_t i = 0; i < dir.rows.size(); ++i) {
    const auto& s = dir.rows[i];
    std::printf("%6zu %10llu %10llu 0x%016llx %10llu", i,
                (unsigned long long)s.offset, (unsigned long long)s.length,
                (unsigned long long)s.checksum,
                (unsigned long long)s.node_count);
    if (served != nullptr) {
      uint64_t hits =
          i < served->shard_hits.size() ? served->shard_hits[i] : 0;
      double heat = total_hits > 0 ? 100.0 * static_cast<double>(hits) /
                                         static_cast<double>(total_hits)
                                   : 0.0;
      bool pinned =
          i < served->shard_pinned.size() && served->shard_pinned[i] != 0;
      std::printf(" %10llu %6.1f%% %7s", (unsigned long long)hits, heat,
                  pinned ? "yes" : "-");
    }
    std::printf("\n");
  }
}

// `info --remote host:port[/corpus]`: asks a running shard server
// over the GRNF STATS verb. Without a corpus name it prints the
// serving totals and the corpus list; with one it additionally fetches
// that corpus's footer directory (the same bytes `info <file>` reads
// locally) and prints the shard table with the server's hot-shard hit
// histogram alongside.
int CmdInfoRemote(const std::string& target) {
  std::string host_port, corpus;
  Status split = serve::SplitTarget(target, &host_port, &corpus);
  if (!split.ok()) {
    Fail(split);
    return 2;  // a malformed target is an argument error
  }
  auto stats = serve::FetchServerStats(host_port);
  if (!stats.ok()) return Fail(stats.status());
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
  if (!dir.ok()) return Fail(dir.status());
  // A corpus missing from the snapshot prints zero hits, nothing pinned.
  serve::CorpusServeStats served;
  for (const auto& c : snapshot.corpora) {
    if (c.name == resolved) served = c;
  }
  std::printf("corpus %s: inner=%s nodes=%llu shards=%zu\n",
              resolved.empty() ? corpus.c_str() : resolved.c_str(),
              dir.value().inner_name.c_str(),
              (unsigned long long)dir.value().num_nodes,
              dir.value().rows.size());
  PrintShardTable(dir.value(), &served);
  return 0;
}

// `info`: the container directory without decoding a shard — the
// backend tag and the per-shard offset/length/checksum/node-count
// table from the parsed GRSHARD2 directory. No shard is ever decoded,
// and a tag or directory naming another inner codec than grepair
// fails as it does at open.
int CmdInfo(int argc, char** argv) {
  std::string remote_target;
  auto args = ParseArgs(argc, argv, {{"--remote", &remote_target}}, 0, 1);
  if (!args) return 2;
  if (args->has("--remote") == (args->positional.size() == 1)) return Usage();
  if (args->has("--remote")) return CmdInfoRemote(remote_target);
  const std::string& path = args->positional[0];
  ByteSpan payload;
  auto file = api::MapShardedFile(path, &payload);
  if (!file.ok()) return Fail(file.status());
  auto parsed = shard::ParseContainer(payload);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: ", path.c_str());
    return Fail(parsed.status());
  }
  const shard::ParsedDirectory& dir = parsed.value().dir;
  Status inner = shard::CheckInnerCodecName(dir.inner_name);
  if (!inner.ok()) return Fail(inner);
  size_t size = file.value()->span().size;
  std::printf("%s: %zu bytes (%s)\n", path.c_str(), size,
              file.value()->is_mapped() ? "mmap" : "heap");
  std::printf("backend: %s (payload %zu bytes at offset %zu)\n", kFileCodec,
              payload.size, size - payload.size);
  std::printf("sharded container GRSHARD2: inner=%s nodes=%llu shards=%zu\n",
              dir.inner_name.c_str(),
              static_cast<unsigned long long>(dir.num_nodes),
              dir.rows.size());
  PrintShardTable(dir, nullptr);
  return 0;
}

// `stats` and `components` read the grammar of a 1-shard file (what
// `compress` writes by default) through the rep's checksum-verified
// fault path. It covers the nodes that
// have an edge; `*dropped_nodes` receives the edgeless ones. A graph
// without edges has no grammar (nullopt).
Result<std::optional<CompressedGraph>> LoadOneGrammar(
    const std::string& path, uint64_t* dropped_nodes) {
  auto rep = api::OpenCompressedFile(path);
  if (!rep.ok()) return rep.status();
  const shard::ShardedRep& sharded = *rep.value();
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
  auto args = ParseArgs(argc, argv, {}, 1, 1);
  if (!args) return 2;
  const std::string& path = args->positional[0];
  uint64_t dropped_nodes = 0;
  auto graph = LoadOneGrammar(path, &dropped_nodes);
  if (!graph.ok()) return Fail(graph.status());
  if (!graph.value()) {
    std::fprintf(stderr, "%s holds a graph without edges\n", path.c_str());
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
  auto args = ParseArgs(argc, argv, {}, 1, 1);
  if (!args) return 2;
  uint64_t dropped_nodes = 0;
  auto graph = LoadOneGrammar(args->positional[0], &dropped_nodes);
  if (!graph.ok()) return Fail(graph.status());
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
  auto n = [size](uint32_t def) { return size ? size : def; };
  if (kind == "er") {
    *g = ErdosRenyi(n(1000), n(1000) * 4, 1);
  } else if (kind == "ba") {
    *g = BarabasiAlbert(n(1000), 4, 1);
  } else if (kind == "coauth") {
    *g = CoAuthorship(n(1000), n(1000) * 3 / 2, 1);
  } else if (kind == "rdf-types") {
    *g = RdfTypes(n(10000), 50, 1);
  } else if (kind == "rdf-entities") {
    *g = RdfEntities(n(2000), 12, 100, 1);
  } else if (kind == "copies") {
    *g = DisjointCopies(CycleWithDiagonal(), n(256), "copies");
  } else if (kind == "dblp") {
    *g = DblpVersions(n(8), 200, 100, 1, "dblp");
  } else {
    return false;
  }
  return true;
}

int CmdGen(int argc, char** argv) {
  auto args = ParseArgs(argc, argv, {}, 2, 3);
  if (!args) return 2;
  const std::string& out_path = args->positional[1];
  uint64_t size = 0;
  // atoi would wrap negatives/overflow through the uint32_t cast into
  // enormous generator sizes.
  if (args->positional.size() == 3 &&
      (!ParseU64(args->positional[2], &size) || size > 0xFFFFFFFFull)) {
    std::fprintf(stderr, "gen expects a size in [0, 4294967295], got '%s'\n",
                 args->positional[2].c_str());
    return 2;
  }
  GeneratedGraph g;
  if (!MakeGenerated(args->positional[0], static_cast<uint32_t>(size), &g)) {
    return Usage();
  }
  Status saved = SaveGraphText(g.graph, g.alphabet, out_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %u nodes, %u edges, %zu labels\n", out_path.c_str(),
              g.graph.num_nodes(), g.graph.num_edges(), g.alphabet.size());
  return 0;
}

// `bench`: compresses a generated dataset the way `compress` does and
// prints bytes, bpe and time, plus a serialize -> deserialize ->
// decompress round-trip check ("roundtrip ok"; exit 1 otherwise).
int CmdBench(int argc, char** argv) {
  std::string kind;
  std::string option_spec;
  int size = 0;  // 0 = the kind's default
  int shards = 1;
  int threads = 0;
  auto args = ParseArgs(argc, argv,
                        {{"--gen", &kind},
                         {"--size", Count{&size, 1, 1 << 30}},
                         {"--options", &option_spec},
                         {"--shards", Count{&shards, 1, shard::kMaxShards}},
                         {"--threads", Count{&threads, 1, kMaxThreads}}},
                        0, 0);
  if (!args) return 2;
  if (kind.empty()) return Usage();
  GeneratedGraph gg;
  if (!MakeGenerated(kind, static_cast<uint32_t>(size), &gg)) {
    std::fprintf(stderr, "unknown dataset kind %s\n", kind.c_str());
    return 2;
  }
  auto options = FileCodecOptions(option_spec, shards, threads);
  if (!options) return 1;
  std::printf("dataset %s: %u nodes, %u edges, %zu labels\n",
              gg.name.c_str(), gg.graph.num_nodes(), gg.graph.num_edges(),
              gg.alphabet.size());
  const shard::ShardedCodec codec;
  auto t0 = std::chrono::steady_clock::now();
  auto rep = codec.Compress(gg.graph, gg.alphabet, *options);
  auto t1 = std::chrono::steady_clock::now();
  if (!rep.ok()) return Fail(rep.status());
  auto round = codec.Deserialize(rep.value()->Serialize());
  if (!round.ok()) return Fail(round.status());
  auto back = round.value()->Decompress();
  if (!back.ok()) return Fail(back.status());
  const bool same = back.value().EqualUpToEdgeOrder(gg.graph);
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  std::printf("%-16s %12s %9s %10s %10s\n", "backend", "bytes", "bpe", "ms",
              "roundtrip");
  std::printf("%-16s %12zu %9.3f %10.1f %10s\n", kFileCodec,
              rep.value()->ByteSize(),
              BitsPerEdge(rep.value()->ByteSize(), gg.graph.num_edges()),
              seconds * 1e3, same ? "ok" : "FAIL");
  return same ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "compress") return CmdCompress(argc, argv);
  if (cmd == "decompress") return CmdDecompress(argc, argv);
  if (cmd == "bench") return CmdBench(argc, argv);
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
