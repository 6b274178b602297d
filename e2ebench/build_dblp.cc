// build-dblp: the compressor pipeline end to end. Each operation
// ingests one dblp-like version graph: sharded:grepair compress,
// SerializeV2, tagged-container wrap, atomic write, mmap open and a
// full Decompress, checked edge for edge against the generated graph.
// grepair, shard and encoding do almost all the work; query, serve and
// overlay do none.

#include <array>

#include "e2ebench/model.h"
#include "e2ebench/workloads.h"
#include "src/api/codec_registry.h"
#include "src/api/container.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace e2e {
namespace {

// 32 corpora of 12 cumulative yearly snapshots each (about 25k edges
// apiece): one ingest takes about 0.1 s on 4 threads, so a run holds
// enough operations for a 90th percentile. The corpora are the same on
// every run and the run seed draws the order they are ingested in.
// Every run ingests each corpus at least once, so bits per edge is a
// property of the compressor alone: a compressor change moves it, a
// different seed or a slower machine does not.
constexpr int kCorpora = 32;
constexpr uint64_t kCorpusSeedBase = 1;
constexpr uint32_t kVersions = 12;
constexpr uint32_t kAuthorsPerYear = 200;
constexpr uint32_t kPapersPerYear = 100;

struct Inputs {
  std::vector<GeneratedGraph> graphs;
  std::vector<std::vector<std::array<uint32_t, 3>>> triples;
  std::vector<size_t> order;  // ingest order, drawn from the run seed
};

bool SameGraph(const Hypergraph& got,
               const std::vector<std::array<uint32_t, 3>>& want,
               uint32_t num_nodes) {
  return got.num_nodes() == num_nodes && EdgeTriples(got) == want;
}

}  // namespace

Status RunBuildDblp(Run* run) {
  const uint64_t seed = run->config.seed;
  auto setup = RepeatedSetup<Inputs>(run, [seed]() -> Result<Inputs> {
    Inputs in;
    for (int k = 0; k < kCorpora; ++k) {
      in.graphs.push_back(DblpVersions(kVersions, kAuthorsPerYear,
                                       kPapersPerYear, kCorpusSeedBase + k,
                                       "dblp"));
      in.triples.push_back(EdgeTriples(in.graphs.back().graph));
      in.order.push_back(k);
    }
    Rng rng(seed);
    rng.Shuffle(&in.order);
    return in;
  });
  if (!setup.ok()) return setup.status();
  const Inputs& in = setup.value();

  auto codec = api::CodecRegistry::Create("sharded:grepair");
  if (!codec.ok()) return codec.status();
  api::CodecOptions options;
  options.Set("shards", std::to_string(kShards));
  options.Set("threads", std::to_string(run->config.threads));
  const std::string path = run->config.scratch_dir + "/ingest.grp";

  std::vector<double> compress_first_s;  // corpus 0 only (SplitCompress)
  std::vector<double> serialize_s, write_s, open_s;
  double compress_total_s = 0, decompress_total_s = 0;
  uint64_t compressed_edges = 0, decompressed_edges = 0;
  std::vector<uint64_t> stored_bytes(kCorpora, 0);

  run->StartPhase();
  for (uint64_t op = 0; op < kCorpora || Clock::now() < run->deadline();
       ++op) {
    const size_t k = in.order[op % kCorpora];
    const GeneratedGraph& gg = in.graphs[k];
    Tracer::Span ingest(&run->tracer, "op.ingest", op);
    ++run->tally.attempted;
    double compress_s = 0, ser_s = 0, wrap_s = 0, wr_s = 0, op_s = 0,
           decompress_s = 0;
    auto t0 = Clock::now();
    auto rep = Stage(run, "shard.compress", op, &compress_s, [&] {
      return codec.value()->Compress(gg.graph, gg.alphabet, options);
    });
    if (!run->Check(rep.status(), "compress")) continue;
    auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
    if (sharded == nullptr) {
      run->tally.Fail("compress: not a sharded rep");
      continue;
    }
    std::vector<uint8_t> v2 = Stage(run, "shard.serialize_v2", op, &ser_s,
                                    [&] { return sharded->SerializeV2(); });
    std::vector<uint8_t> framed = Stage(run, "api.wrap", op, &wrap_s, [&] {
      return api::WrapCodecPayload("sharded:grepair", v2);
    });
    Status written = Stage(run, "util.write_atomic", op, &wr_s, [&] {
      return WriteFileBytesAtomic(path, SpanOf(framed));
    });
    if (!run->Check(written, "write")) continue;
    auto opened = Stage(run, "api.open", op, &op_s,
                        [&] { return api::OpenCompressedFile(path); });
    if (!run->Check(opened.status(), "open")) continue;
    auto graph = Stage(run, "shard.decompress", op, &decompress_s,
                       [&] { return opened.value()->Decompress(); });
    run->ops.Add(Micros(t0, Clock::now()));
    if (!run->Check(graph.status(), "decompress")) continue;

    {
      HarnessWork verify(run, "bench.verify", op);
      if (!SameGraph(graph.value(), in.triples[k], gg.graph.num_nodes())) {
        run->tally.Fail("decompressed graph differs from the input");
      }
    }
    if (k == 0) compress_first_s.push_back(compress_s);
    serialize_s.push_back(ser_s);
    write_s.push_back(wr_s);
    open_s.push_back(op_s);
    compress_total_s += compress_s;
    decompress_total_s += decompress_s;
    compressed_edges += gg.graph.num_edges();
    decompressed_edges += graph.value().num_edges();
    stored_bytes[k] = framed.size();
  }
  run->EndPhase();

  uint64_t bytes = 0, edges = 0;
  for (int k = 0; k < kCorpora; ++k) {
    if (stored_bytes[k] == 0) continue;
    bytes += stored_bytes[k];
    edges += in.graphs[k].graph.num_edges();
  }
  Report& r = run->report;
  r.Set("bits_per_edge", edges == 0 ? 0.0 : 8.0 * bytes / edges, "bits",
        edges);
  r.Set("shard.compress_edges_per_s", Rate(compressed_edges, compress_total_s),
        "1/s", compressed_edges);
  r.Set("shard.decompress_edges_per_s",
        Rate(decompressed_edges, decompress_total_s), "1/s",
        decompressed_edges);
  r.Set("shard.serialize_v2_s", Median(serialize_s), "s", serialize_s.size());
  r.Set("shard.open_s", Median(open_s), "s", open_s.size());
  r.Set("util.write_atomic_s", Median(write_s), "s", write_s.size());

  if (run->config.trace) {
    auto corpus = CompressCorpus(in.graphs[0], run->config.threads);
    if (!run->Check(corpus.status(), "probe compress")) return Status::OK();
    SplitCompress(in.graphs[0], corpus.value().sharded(),
                  Median(compress_first_s), run);
    const std::string probe_path = run->config.scratch_dir + "/probe.grp";
    if (!run->Check(WriteContainer(probe_path, corpus.value().v2),
                    "probe write")) {
      return Status::OK();
    }
    auto resident = OpenShardedFile(probe_path);
    if (!run->Check(resident.status(), "probe open")) return Status::OK();
    ProbeShards([&] { return api::OpenCompressedFile(probe_path); },
                *resident.value(), run);
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace grepair
