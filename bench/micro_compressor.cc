// Micro-benchmarks for the compression pipeline itself: gRePair
// end-to-end throughput per workload family, encode/decode/derive, a
// warm sharded batch query, the node map's id <-> derivation-path
// round trip, the cold shard fault and directory parse, and one
// compression benchmark per paper codec (bench_util.h's
// PaperCodecNames, so every compressor's throughput is tracked from
// the same harness).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/api/grepair_api.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"
#include "src/query/node_map.h"
#include "src/shard/container.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard_store.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

void BM_CompressRdfTypes(benchmark::State& state) {
  auto gg = RdfTypes(static_cast<uint32_t>(state.range(0)), 30, 1);
  for (auto _ : state) {
    auto result = Compress(gg.graph, gg.alphabet, {});
    benchmark::DoNotOptimize(result.value().stats.output_size);
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}
BENCHMARK(BM_CompressRdfTypes)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);

void BM_CompressCoauthorship(benchmark::State& state) {
  auto gg = CoAuthorship(static_cast<uint32_t>(state.range(0)),
                         static_cast<uint32_t>(state.range(0)) * 2, 2);
  for (auto _ : state) {
    auto result = Compress(gg.graph, gg.alphabet, {});
    benchmark::DoNotOptimize(result.value().stats.output_size);
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}
BENCHMARK(BM_CompressCoauthorship)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_CompressCopies(benchmark::State& state) {
  auto gg = DisjointCopies(CycleWithDiagonal(),
                           static_cast<uint32_t>(state.range(0)), "c");
  for (auto _ : state) {
    auto result = Compress(gg.graph, gg.alphabet, {});
    benchmark::DoNotOptimize(result.value().stats.output_size);
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}
BENCHMARK(BM_CompressCopies)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// `gg` cut into 16 shards, as build-dblp and mutate-rdf cut theirs.
Result<shard::GraphPartition> SixteenShards(const GeneratedGraph& gg) {
  shard::PartitionOptions partition_options;
  partition_options.num_shards = 16;
  return shard::PartitionGraph(gg.graph, partition_options);
}

// Compresses `gg` cut into 16 shards, each as the sharded grepair codec
// does it (node mapping on), one after another on this thread.
void CompressShards(benchmark::State& state, const GeneratedGraph& gg) {
  auto partition = SixteenShards(gg);
  if (!partition.ok()) {
    state.SkipWithError(partition.status().ToString().c_str());
    return;
  }
  CompressOptions options;
  options.track_node_mapping = true;
  for (auto _ : state) {
    for (const auto& part : partition.value().shards) {
      auto result = Compress(part.graph, gg.alphabet, options);
      benchmark::DoNotOptimize(result.value().stats.output_size);
    }
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}

// build-dblp's ingest input: one DblpVersions(12, 200, 100) graph.
void BM_CompressDblpShards(benchmark::State& state) {
  CompressShards(state, DblpVersions(12, 200, 100, 1, "dblp"));
}
BENCHMARK(BM_CompressDblpShards)->Unit(benchmark::kMillisecond);

// mutate-rdf's corpus, RdfEntities(40000, 40, 60): a fold recompresses
// its shards.
void BM_CompressRdfShards(benchmark::State& state) {
  CompressShards(state, RdfEntities(40000, 40, 60, 1));
}
BENCHMARK(BM_CompressRdfShards)->Unit(benchmark::kMillisecond);

void BM_EncodeGrammar(benchmark::State& state) {
  auto gg = RdfEntities(4000, 12, 200, 3);
  auto result = Compress(gg.graph, gg.alphabet, {});
  for (auto _ : state) {
    auto bytes = EncodeGrammar(result.value().grammar);
    benchmark::DoNotOptimize(bytes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          result.value().grammar.TotalSize());
}
BENCHMARK(BM_EncodeGrammar)->Unit(benchmark::kMillisecond);

void BM_DecodeGrammar(benchmark::State& state) {
  auto gg = RdfEntities(4000, 12, 200, 3);
  auto result = Compress(gg.graph, gg.alphabet, {});
  auto bytes = EncodeGrammar(result.value().grammar);
  for (auto _ : state) {
    auto decoded = DecodeGrammar(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_DecodeGrammar)->Unit(benchmark::kMillisecond);

// What a cold session pays per shard of a 16-shard corpus:
// DecodeShardPayload on the shard's payload (grammar and psi'), the
// first OutNeighbors, which builds the neighborhood index, and the
// graph's teardown, one shard after another. Arg 0 is build-dblp's
// ingest input, DblpVersions(12, 200, 100); arg 1 is the read corpus,
// DblpVersions(32, 200, 100), whose shards read-cold-remote faults.
void BM_FaultDblpShards(benchmark::State& state) {
  const GeneratedGraph gg =
      DblpVersions(state.range(0) == 0 ? 12 : 32, 200, 100, 1, "dblp");
  state.SetLabel(state.range(0) == 0 ? "build-dblp" : "read");
  auto partition = SixteenShards(gg);
  if (!partition.ok()) {
    state.SkipWithError(partition.status().ToString().c_str());
    return;
  }
  std::vector<std::vector<uint8_t>> payloads;
  size_t bytes = 0;
  for (const auto& part : partition.value().shards) {
    if (part.graph.num_edges() == 0) continue;
    auto payload = CompressedGraph::CompressToPayload(part.graph, gg.alphabet);
    payloads.push_back(std::move(payload).ValueOrDie());
    bytes += payloads.back().size();
  }
  for (auto _ : state) {
    for (const auto& payload : payloads) {
      auto graph = shard::DecodeShardPayload(SpanOf(payload));
      benchmark::DoNotOptimize(graph.value().OutNeighbors(0).size());
    }
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_FaultDblpShards)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The read corpus's GRSHARD2 directory (16 rows and their node maps,
// 55,783 ids) through ParseV2Directory: what every lazy open and every
// remote open parses before its first query.
void BM_ParseDirectory(benchmark::State& state) {
  const GeneratedGraph gg = DblpVersions(32, 200, 100, 1, "dblp");
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "16");
  auto compressed = codec->Compress(gg.graph, gg.alphabet, options);
  if (!compressed.ok()) {
    state.SkipWithError(compressed.status().ToString().c_str());
    return;
  }
  const std::vector<uint8_t> container = compressed.value()->Serialize();
  auto parsed = shard::ParseContainer(SpanOf(container));
  if (!parsed.ok()) {
    state.SkipWithError(parsed.status().ToString().c_str());
    return;
  }
  const ByteSpan region = parsed.value().region;
  const uint64_t dir_off = parsed.value().dir_off;
  for (auto _ : state) {
    auto dir = shard::ParseV2Directory(region, dir_off);
    benchmark::DoNotOptimize(dir.value().node_maps.size());
  }
  state.SetBytesProcessed(state.iterations() * region.size);
}
BENCHMARK(BM_ParseDirectory)->Unit(benchmark::kMicrosecond);

// A warm 512-node OutNeighborsBatch on a 16-shard sharded:grepair rep
// opened from its container bytes: routing, the decoded shards and
// result assembly. Arg 0 is read-hot-local's corpus, whose shard maps
// barely overlap; arg 1 is mutate-rdf's, whose maps all span the hub
// ids.
void BM_ShardedBatch512(benchmark::State& state) {
  const GeneratedGraph gg = state.range(0) == 0
                                ? DblpVersions(32, 200, 100, 1, "dblp")
                                : RdfEntities(40000, 40, 60, 1);
  state.SetLabel(gg.name);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "16");
  auto compressed = codec->Compress(gg.graph, gg.alphabet, options);
  if (!compressed.ok()) {
    state.SkipWithError(compressed.status().ToString().c_str());
    return;
  }
  auto rep = codec->Deserialize(compressed.value()->Serialize());
  if (!rep.ok()) {
    state.SkipWithError(rep.status().ToString().c_str());
    return;
  }
  Rng rng(1);
  std::vector<uint64_t> nodes(512);
  for (uint64_t& node : nodes) {
    node = rng.UniformBounded(gg.graph.num_nodes());
  }
  (void)rep.value()->OutNeighborsBatch(nodes);  // fault and decode
  for (auto _ : state) {
    auto answers = rep.value()->OutNeighborsBatch(nodes);
    benchmark::DoNotOptimize(answers.ok());
  }
  state.SetItemsProcessed(state.iterations() * nodes.size());
}
BENCHMARK(BM_ShardedBatch512)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// PathOf + IdOf over every val(G) node of the 16 shard grammars, as
// a cold point query addresses them before any shard is decoded. Arg 0
// is read-hot-local's corpus, arg 1 mutate-rdf's.
void BM_NodeMapRoundTrip(benchmark::State& state) {
  const GeneratedGraph gg = state.range(0) == 0
                                ? DblpVersions(32, 200, 100, 1, "dblp")
                                : RdfEntities(40000, 40, 60, 1);
  state.SetLabel(gg.name);
  auto partition = SixteenShards(gg);
  if (!partition.ok()) {
    state.SkipWithError(partition.status().ToString().c_str());
    return;
  }
  CompressOptions options;
  options.track_node_mapping = true;
  std::vector<SlhrGrammar> grammars;
  for (const auto& part : partition.value().shards) {
    if (part.graph.num_edges() == 0) continue;
    auto result = Compress(part.graph, gg.alphabet, options);
    auto decoded = DecodeGrammar(EncodeGrammar(result.value().grammar));
    grammars.push_back(std::move(decoded).ValueOrDie());
  }
  std::vector<NodeMap> maps(grammars.begin(), grammars.end());
  uint64_t nodes = 0;
  for (const NodeMap& map : maps) nodes += map.num_nodes();
  for (auto _ : state) {
    for (const NodeMap& map : maps) {
      for (uint64_t id = 0; id < map.num_nodes(); ++id) {
        benchmark::DoNotOptimize(map.IdOf(map.PathOf(id)));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_NodeMapRoundTrip)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_DeriveVal(benchmark::State& state) {
  auto gg = DisjointCopies(CycleWithDiagonal(), 4096, "c");
  auto result = Compress(gg.graph, gg.alphabet, {});
  for (auto _ : state) {
    auto val = Derive(result.value().grammar);
    benchmark::DoNotOptimize(val.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}
BENCHMARK(BM_DeriveVal)->Unit(benchmark::kMillisecond);

// One compress benchmark per paper codec over a shared web-like
// dataset (single label, so the unlabeled baselines participate too).
void BM_CodecCompress(benchmark::State& state, std::string codec_name) {
  auto gg = BarabasiAlbert(2000, 4, 5);
  for (auto _ : state) {
    auto bytes = bench::PaperCodecBytes(codec_name, gg);
    if (!bytes.ok()) {
      state.SkipWithError(bytes.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(bytes.value());
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}

void RegisterCodecBenchmarks() {
  for (const auto& name : bench::PaperCodecNames()) {
    benchmark::RegisterBenchmark(("BM_CodecCompress/" + name).c_str(),
                                 BM_CodecCompress, name)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace grepair

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  grepair::RegisterCodecBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
