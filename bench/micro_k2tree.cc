// Micro-benchmarks (google-benchmark): the low-level operations the
// system is built on — k^2-tree construction and queries, rank
// bitvectors, Elias codes, FP refinement and digram shape computation.

#include <benchmark/benchmark.h>

#include "src/datasets/generators.h"
#include "src/graph/node_order.h"
#include "src/grepair/digram.h"
#include "src/k2tree/bitvector.h"
#include "src/k2tree/k2tree.h"
#include "src/util/elias.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> RandomCells(uint32_t n,
                                                       uint32_t count,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  cells.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    cells.push_back({static_cast<uint32_t>(rng.UniformBounded(n)),
                     static_cast<uint32_t>(rng.UniformBounded(n))});
  }
  return cells;
}

void BM_K2TreeBuild(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  auto cells = RandomCells(n, n * 8, 42);
  for (auto _ : state) {
    auto tree = K2Tree::Build(n, n, cells);
    benchmark::DoNotOptimize(tree.StorageBits());
  }
  state.SetItemsProcessed(state.iterations() * cells.size());
}
BENCHMARK(BM_K2TreeBuild)->Arg(1 << 10)->Arg(1 << 14);

void BM_K2TreeContains(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  auto tree = K2Tree::Build(n, n, RandomCells(n, n * 8, 42));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Contains(static_cast<uint32_t>(rng.UniformBounded(n)),
                      static_cast<uint32_t>(rng.UniformBounded(n))));
  }
}
BENCHMARK(BM_K2TreeContains)->Arg(1 << 10)->Arg(1 << 14);

void BM_K2TreeRowNeighbors(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  auto tree = K2Tree::Build(n, n, RandomCells(n, n * 8, 42));
  Rng rng(8);
  for (auto _ : state) {
    auto row = tree.RowNeighbors(
        static_cast<uint32_t>(rng.UniformBounded(n)));
    benchmark::DoNotOptimize(row.size());
  }
}
BENCHMARK(BM_K2TreeRowNeighbors)->Arg(1 << 10)->Arg(1 << 14);

// DecodeCells of one k = 2 tree over a 2,048-node shard's start label:
// 7,400 cells for the dense label, 35 for a sparse one.
void BM_K2TreeDecodeCells(benchmark::State& state) {
  const uint32_t n = 2048;
  const auto cells =
      RandomCells(n, static_cast<uint32_t>(state.range(0)), 42);
  BitWriter w;
  K2Tree::Build(n, n, cells).Serialize(&w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  // One Cells across iterations, as a grammar's sections share one.
  K2Tree::Cells decoded;
  for (auto _ : state) {
    BitReader r(bytes);
    decoded.keys.clear();
    const Status walked = K2Tree::DecodeCells(&r, &decoded);
    benchmark::DoNotOptimize(walked.ok());
    benchmark::DoNotOptimize(decoded.keys.data());
  }
  state.SetItemsProcessed(state.iterations() * cells.size());
}
BENCHMARK(BM_K2TreeDecodeCells)->Arg(7400)->Arg(35);

void BM_RankBitVector(benchmark::State& state) {
  RankBitVector bv;
  Rng rng(9);
  for (int i = 0; i < 1 << 20; ++i) bv.PushBack(rng.Bernoulli(0.3));
  bv.Finalize();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bv.Rank1((i * 2654435761u) % bv.size()));
    ++i;
  }
}
BENCHMARK(BM_RankBitVector);

void BM_EliasDeltaRoundTrip(benchmark::State& state) {
  Rng rng(10);
  std::vector<uint64_t> values(4096);
  for (auto& v : values) v = (rng.Next() >> (rng.Next() % 50)) + 1;
  for (auto _ : state) {
    BitWriter w;
    for (uint64_t v : values) EliasDeltaEncode(v, &w);
    BitReader r(w.bytes());
    uint64_t x = 0, sum = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      (void)EliasDeltaDecode(&r, &x);
      sum += x;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_EliasDeltaRoundTrip);

void BM_FpRefinement(benchmark::State& state) {
  auto gg = BarabasiAlbert(static_cast<uint32_t>(state.range(0)), 4, 11);
  for (auto _ : state) {
    auto fp = ComputeFpRefinement(gg.graph);
    benchmark::DoNotOptimize(fp.num_classes);
  }
}
BENCHMARK(BM_FpRefinement)->Arg(1 << 12)->Arg(1 << 15);

void BM_DigramShape(benchmark::State& state) {
  HEdge a, b;
  a.label = 3;
  a.att = {10, 11};
  b.label = 5;
  b.att = {11, 12};
  // Every node has an edge outside the pair: all three are external.
  auto degree = [](NodeId v) { return v == 11 ? 3u : 2u; };
  DigramShape shape;
  bool swapped;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDigramShape(a, b, degree, 4, &shape, &swapped));
  }
}
BENCHMARK(BM_DigramShape);

}  // namespace
}  // namespace grepair

BENCHMARK_MAIN();
