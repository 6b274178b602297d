// Decode throughput: word-at-a-time decode engine vs the retained
// bit-at-a-time scalar path, on the per-shard decode of a 16-shard
// dblp container.
//
//   decode_throughput [--size N] [--shards K] [--iters I]
//                     [--min-speedup X] [--dir PATH] [--json OUT]
//
// For each container codec, builds a GRSHARD2 container over the same
// dblp graph, slices the per-shard payload spans out of its footer
// directory (the exact bytes a shard fault hands the inner codec), and
// times repeated inner-codec deserialization twice: once with the fast
// clz/Peek64 word-at-a-time readers, and once with every decode routed
// through the retained bit-at-a-time path via
// SetEliasDecodeScalarForTest (scalar Elias decoders plus the per-bit
// k2 bitmap loop). Decoded answers are verified byte-identical
// (re-serialization and decompressed graphs) between the two modes
// before any number is printed.
//
// The gate runs on the sharded:k2 container, whose shard decode is
// bit-stream bound end to end (Elias headers + k^2-tree bitmaps + a
// rank directory over the loaded words), so the fast-vs-scalar ratio
// measures the decode engine itself. The sharded:grepair container is
// reported alongside for context: most of its deserialization time
// goes to enumerating the start graph's per-label k^2-trees (a
// level-order walk plus a sort per tree) and building the grammar and
// node mapping, none of which the Elias decoders speed up, so its
// fast-vs-scalar ratio stays near 1x by design.
//
// Also reports an informational cold/warm whole-container sweep (open
// + batch query, first touch vs cached) so the shard-cache win stays
// visible next to the raw decode win.
//
// Exits nonzero when the fast k2 decode is not at least --min-speedup
// times the scalar edges/sec (default 2; --min-speedup 0 waives the
// gate, matching the remote_throughput pattern). The margin is
// structural — one ReadBits+PushWord per 64 bits vs one branch per
// bit — so it holds on noisy shared runners.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/shard/sharded_codec.h"
#include "src/util/elias.h"
#include "src/util/mmap_file.h"

using namespace grepair;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: decode_throughput [--size N] [--shards K] [--iters I]\n"
               "                         [--min-speedup X] [--dir PATH]\n"
               "                         [--json OUT]\n");
  return 2;
}

// One container codec's sliced payloads, ready to decode repeatedly.
struct Prepared {
  std::string codec_name;
  std::vector<uint8_t> container;
  std::vector<std::vector<uint8_t>> payloads;
  std::unique_ptr<api::GraphCodec> inner;
  uint64_t edges_per_pass = 0;
};

// Decodes every shard payload once; returns false on any failure.
// `out_reps` (optional) receives the decoded reps for verification.
bool DecodeAllShards(
    api::GraphCodec* inner,
    const std::vector<std::vector<uint8_t>>& payloads,
    std::vector<std::unique_ptr<api::CompressedRep>>* out_reps) {
  for (const auto& payload : payloads) {
    auto rep = inner->Deserialize(payload);
    if (!rep.ok()) {
      std::fprintf(stderr, "shard decode failed: %s\n",
                   rep.status().ToString().c_str());
      return false;
    }
    if (out_reps != nullptr) {
      out_reps->push_back(std::move(rep).ValueOrDie());
    }
  }
  return true;
}

// Compresses the graph with `codec_name`, slices the per-shard payload
// spans out of the GRSHARD2 footer directory, and verifies that fast
// and scalar decode agree byte for byte on every shard.
bool Prepare(const GeneratedGraph& gg, const std::string& codec_name,
             int shards, Prepared* out) {
  auto codec = api::CodecRegistry::Create(codec_name).ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  if (!rep.ok()) {
    std::fprintf(stderr, "%s compress: %s\n", codec_name.c_str(),
                 rep.status().ToString().c_str());
    return false;
  }
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  if (sharded == nullptr) {
    std::fprintf(stderr, "%s: rep is not sharded\n", codec_name.c_str());
    return false;
  }
  out->codec_name = codec_name;
  out->container = sharded->SerializeV2();

  auto parsed = shard::ParseContainer(SpanOf(out->container));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return false;
  }
  for (const auto& row : parsed.value().dir.rows) {
    if (row.length == 0) continue;  // edgeless shard: nothing to decode
    out->payloads.emplace_back(out->container.begin() + row.offset,
                               out->container.begin() + row.offset +
                                   row.length);
  }
  auto inner = api::CodecRegistry::Create(parsed.value().dir.inner_name);
  if (!inner.ok()) {
    std::fprintf(stderr, "%s\n", inner.status().ToString().c_str());
    return false;
  }
  out->inner = std::move(inner).ValueOrDie();

  // Verification pass: decode every shard under both modes; the
  // decompressed graphs and re-serializations must be byte-identical.
  std::vector<std::unique_ptr<api::CompressedRep>> fast_reps, scalar_reps;
  if (!DecodeAllShards(out->inner.get(), out->payloads, &fast_reps)) {
    return false;
  }
  SetEliasDecodeScalarForTest(true);
  bool scalar_ok =
      DecodeAllShards(out->inner.get(), out->payloads, &scalar_reps);
  SetEliasDecodeScalarForTest(false);
  if (!scalar_ok) return false;
  out->edges_per_pass = 0;
  for (size_t i = 0; i < fast_reps.size(); ++i) {
    if (fast_reps[i]->Serialize() != scalar_reps[i]->Serialize()) {
      std::fprintf(stderr,
                   "FAIL: %s shard %zu re-serializes differently under "
                   "the scalar oracle\n", codec_name.c_str(), i);
      return false;
    }
    auto fast_graph = fast_reps[i]->Decompress();
    auto scalar_graph = scalar_reps[i]->Decompress();
    if (!fast_graph.ok() || !scalar_graph.ok() ||
        !fast_graph.value().EqualUpToEdgeOrder(scalar_graph.value())) {
      std::fprintf(stderr,
                   "FAIL: %s shard %zu decodes differently under the "
                   "scalar oracle\n", codec_name.c_str(), i);
      return false;
    }
    out->edges_per_pass += fast_graph.value().num_edges();
  }
  std::printf("%s: verified %zu shard payloads byte-identical fast vs "
              "scalar (%llu edges per pass)\n",
              codec_name.c_str(), out->payloads.size(),
              (unsigned long long)out->edges_per_pass);
  return true;
}

// Repeats the all-shard decode `iters` times, returning
// decodes-per-second worth of edges.
double MeasureEdgesPerSec(const Prepared& p, int iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    if (!DecodeAllShards(p.inner.get(), p.payloads, nullptr)) return 0.0;
  }
  auto t1 = std::chrono::steady_clock::now();
  double secs = bench::Seconds(t0, t1);
  return secs > 0 ? static_cast<double>(p.edges_per_pass) * iters / secs
                  : 0.0;
}

// Warmup + timed A/B; returns fast/scalar edges-per-second.
bool MeasureBoth(const Prepared& p, int iters, double* fast_eps,
                 double* scalar_eps) {
  MeasureEdgesPerSec(p, 2);
  *fast_eps = MeasureEdgesPerSec(p, iters);
  SetEliasDecodeScalarForTest(true);
  *scalar_eps = MeasureEdgesPerSec(p, iters);
  SetEliasDecodeScalarForTest(false);
  return *fast_eps > 0 && *scalar_eps > 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t size = 8;  // dblp version count
  int shards = 16;
  int iters = 30;
  double min_speedup = 2.0;
  std::string dir = "/tmp";
  std::string json_path;
  char* end = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 100000) {
        return Usage();
      }
      size = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 256) {
        return Usage();
      }
      shards = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > 100000) {
        return Usage();
      }
      iters = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      double v = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || v < 0.0) return Usage();
      min_speedup = v;
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return Usage();
    }
  }

  GeneratedGraph gg = DblpVersions(size, 200, 100, 1, "dblp");
  std::printf("dataset %s: %u nodes, %u edges; %d shards\n",
              gg.name.c_str(), gg.graph.num_nodes(), gg.graph.num_edges(),
              shards);

  Prepared k2, grepair_c;
  if (!Prepare(gg, "sharded:k2", shards, &k2)) return 1;
  if (!Prepare(gg, "sharded:grepair", shards, &grepair_c)) return 1;

  double k2_fast = 0, k2_scalar = 0, gr_fast = 0, gr_scalar = 0;
  if (!MeasureBoth(k2, iters, &k2_fast, &k2_scalar)) return 1;
  if (!MeasureBoth(grepair_c, iters, &gr_fast, &gr_scalar)) return 1;

  std::printf("%-24s %14s %14s %8s\n", "shard decode", "scalar e/s",
              "fast e/s", "speedup");
  std::printf("%-24s %14.0f %14.0f %7.2fx\n", "sharded:k2 (gated)",
              k2_scalar, k2_fast, k2_fast / k2_scalar);
  std::printf("%-24s %14.0f %14.0f %7.2fx\n", "sharded:grepair (info)",
              gr_scalar, gr_fast, gr_fast / gr_scalar);

  // Informational: whole-container cold vs warm query sweep (decode +
  // shard cache, the layers above the raw decode).
  std::string path = dir + "/decode_throughput_v2.bin";
  auto wrote = WriteFileBytes(
      path, api::WrapCodecPayload("sharded:k2", k2.container));
  if (wrote.ok()) {
    auto opened = api::OpenCompressedFile(path);
    if (opened.ok()) {
      std::vector<uint64_t> sweep;
      uint64_t n = gg.graph.num_nodes();
      for (int q = 0; q < 256; ++q) {
        sweep.push_back((n * static_cast<uint64_t>(q)) / 256);
      }
      auto c0 = std::chrono::steady_clock::now();
      auto cold = opened.value()->OutNeighborsBatch(sweep);
      auto c1 = std::chrono::steady_clock::now();
      auto warm = opened.value()->OutNeighborsBatch(sweep);
      auto c2 = std::chrono::steady_clock::now();
      if (cold.ok() && warm.ok()) {
        std::printf("container sweep (256 queries): cold %.3f ms, warm "
                    "%.3f ms\n", bench::Seconds(c0, c1) * 1e3,
                    bench::Seconds(c1, c2) * 1e3);
      }
    }
    std::remove(path.c_str());
  }

  double speedup = k2_fast / k2_scalar;
  std::printf("decode speedup (fast vs scalar, sharded:k2): %.2fx "
              "(gate >= %.1fx)\n", speedup, min_speedup);
  if (!json_path.empty()) {
    bench::JsonWriter json;
    json.Add("bench", std::string("decode_throughput"));
    json.Add("dataset", gg.name);
    json.Add("shards", shards);
    json.Add("iters", iters);
    json.Add("k2_scalar_edges_per_sec", k2_scalar);
    json.Add("k2_fast_edges_per_sec", k2_fast);
    json.Add("k2_speedup", speedup);
    json.Add("grepair_scalar_edges_per_sec", gr_scalar);
    json.Add("grepair_fast_edges_per_sec", gr_fast);
    json.Add("grepair_speedup", gr_scalar > 0 ? gr_fast / gr_scalar : 0.0);
    json.Add("min_speedup", min_speedup);
    if (!json.WriteTo(json_path)) return 1;
  }
  if (min_speedup == 0.0) {
    std::printf("PASS (gate waived)\n");
    return 0;
  }
  if (speedup < min_speedup) {
    std::printf("FAIL: decode speedup %.2fx below the %.1fx gate\n",
                speedup, min_speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
