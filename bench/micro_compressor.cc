// Micro-benchmarks for the compression pipeline itself: gRePair
// end-to-end throughput per workload family, encode/decode/derive, and
// one compression benchmark per paper codec (bench_util.h's
// PaperCodecNames, so every compressor's throughput is tracked from the
// same harness).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/api/grepair_api.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"
#include "src/shard/partitioner.h"

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

// Compresses `gg` cut into 16 shards, each as the sharded grepair codec
// does it (node mapping on), one after another on this thread.
void CompressShards(benchmark::State& state, const GeneratedGraph& gg) {
  shard::PartitionOptions partition_options;
  partition_options.num_shards = 16;
  auto partition = shard::PartitionGraph(gg.graph, partition_options);
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
