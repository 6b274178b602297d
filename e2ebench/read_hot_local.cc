// read-hot-local: one client querying a lazily mmap-opened container
// whose decoded shards all fit the default 64 MiB query cache. Each
// round is a burst of Zipf-skewed point queries (half OutNeighbors,
// half InNeighbors), then OutNeighborsBatch over every node, then
// ReachableBatch over a fixed set of random pairs. The query layer's
// caches and memos dominate; the compressor and network do nothing and
// each shard decodes once.

#include "e2ebench/workloads.h"
#include "src/api/container.h"
#include "src/util/rng.h"

namespace grepair {
namespace e2e {
namespace {

constexpr size_t kQueryKeys = 1 << 20;
constexpr size_t kPointsPerRound = 1 << 16;
constexpr size_t kReachPairs = 200;
// Zipf exponent of node popularity: skewed, but mild enough that the
// latency median does not hang on the degrees of a few dozen nodes.
constexpr double kZipfExponent = 0.8;

struct HotSetup {
  ReadCorpus read;
  std::string path;
  std::vector<uint32_t> keys;  // Zipf-skewed node ids
  std::vector<uint64_t> all_nodes;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  std::vector<uint8_t> reachable;  // model verdict per pair
};

Result<HotSetup> MakeHotSetup(uint64_t seed, int threads,
                              const std::string& path) {
  HotSetup s;
  auto read = MakeReadCorpus(threads);
  if (!read.ok()) return read.status();
  s.read = std::move(read).ValueOrDie();
  s.path = path;
  GREPAIR_RETURN_IF_ERROR(WriteContainer(path, s.read.corpus.v2));

  const uint64_t n = s.read.model->num_nodes();
  // Which nodes are hot (popularity rank -> node through a fixed random
  // permutation, so hot nodes spread over all shards) and which pairs
  // the reachability batch asks about are properties of the corpus: a
  // BFS's cost varies widely with its pair. The run seed draws the
  // query stream.
  Rng corpus_rng(0x486f74ULL);
  std::vector<uint32_t> by_rank(n);
  for (uint64_t v = 0; v < n; ++v) by_rank[v] = static_cast<uint32_t>(v);
  corpus_rng.Shuffle(&by_rank);
  Rng rng(seed);
  s.keys.resize(kQueryKeys);
  for (uint32_t& key : s.keys) key = by_rank[rng.Zipf(n, kZipfExponent)];
  s.all_nodes.resize(n);
  for (uint64_t v = 0; v < n; ++v) s.all_nodes[v] = v;
  for (size_t i = 0; i < kReachPairs; ++i) {
    uint64_t from = corpus_rng.UniformBounded(n);
    uint64_t to = corpus_rng.UniformBounded(n);
    s.pairs.emplace_back(from, to);
    s.reachable.push_back(s.read.model->Reachable(from, to) ? 1 : 0);
  }
  return s;
}

}  // namespace

Status RunReadHotLocal(Run* run) {
  const RunConfig& config = run->config;
  const std::string path = config.scratch_dir + "/hot.grp";
  auto setup = RepeatedSetup<HotSetup>(run, [&]() {
    return MakeHotSetup(config.seed, config.threads, path);
  });
  if (!setup.ok()) return setup.status();
  const HotSetup& s = setup.value();
  const AdjacencyModel& model = *s.read.model;

  LatencySampler out_us, in_us;
  std::vector<double> batch_ms, reach_ms;
  uint64_t batch_edges = 0;
  double open_us = 0, first_us = 0;

  run->StartPhase();
  auto opened = run->Op(&open_us, [&] {
    Tracer::Span span(&run->tracer, "op.open", 0);
    return OpenShardedFile(path);
  });
  if (!run->Check(opened.status(), "open")) {
    run->EndPhase();
    return Status::OK();
  }
  const shard::ShardedRep& rep = *opened.value();
  auto first = run->Op(&first_us, [&] {
    Tracer::Span span(&run->tracer, "op.first_query", 0);
    return rep.OutNeighbors(s.keys[0]);
  });
  if (run->Check(first.status(), "first query") &&
      !model.OutMatches(s.keys[0], first.value())) {
    run->tally.Fail("first query: wrong answer");
  }

  size_t cursor = 1;  // keys[0] answered the first query
  for (uint64_t round = 0; Clock::now() < run->deadline(); ++round) {
    {
      Tracer::Span span(&run->tracer, "op.point_queries", round);
      PointQueries(run, rep, model, s.keys, kPointsPerRound, &cursor,
                   &out_us, &in_us, round);
    }
    {
      Tracer::Span span(&run->tracer, "op.batch", round);
      double us = 0;
      auto answers =
          run->Op(&us, [&] { return rep.OutNeighborsBatch(s.all_nodes); });
      batch_ms.push_back(us / 1e3);
      HarnessWork check(run, "bench.verify", round);
      if (run->Check(answers.status(), "batch")) {
        for (uint64_t v = 0; v < s.all_nodes.size(); ++v) {
          batch_edges += answers.value()[v].size();
          if (!model.OutMatches(v, answers.value()[v])) {
            run->tally.Fail("batch: wrong answer");
          }
        }
      }
    }
    {
      Tracer::Span span(&run->tracer, "op.reach_batch", round);
      double us = 0;
      auto verdicts =
          run->Op(&us, [&] { return rep.ReachableBatch(s.pairs); });
      reach_ms.push_back(us / 1e3);
      HarnessWork check(run, "bench.verify", round);
      if (run->Check(verdicts.status(), "reach batch") &&
          verdicts.value() != s.reachable) {
        run->tally.Fail("reach batch: wrong answer");
      }
    }
  }
  run->EndPhase();

  Report& r = run->report;
  r.Set("bits_per_edge", 8.0 * s.read.corpus.v2.size() /
                             s.read.gg.graph.num_edges(),
        "bits", s.read.gg.graph.num_edges());
  r.Set("shard.open_s", open_us / 1e6, "s");
  r.Set("api.open_first_ms", (open_us + first_us) / 1e3, "ms");
  r.Set("query.out_us.p50", out_us.At(0.5), "us");
  r.Set("query.out_us.p99", out_us.At(0.99), "us");
  r.Set("query.in_us.p50", in_us.At(0.5), "us");
  r.Set("query.in_us.p99", in_us.At(0.99), "us");
  r.Set("query.batch_ms.p50", PercentileOf(batch_ms, 0.5), "ms");
  r.Set("query.reach_batch_ms", PercentileOf(reach_ms, 0.5), "ms");
  double batch_s = 0, reach_s = 0;
  for (double ms : batch_ms) batch_s += ms / 1e3;
  for (double ms : reach_ms) reach_s += ms / 1e3;
  r.Set("query.batch_edges_per_s", Rate(batch_edges, batch_s), "1/s",
        batch_ms.size());
  r.Set("query.reach_pairs_per_s",
        Rate(static_cast<double>(kReachPairs * reach_ms.size()), reach_s),
        "1/s", reach_ms.size());
  ReportQueryStats(rep.query_stats(), run);

  if (config.trace) {
    ProbeShards([&] { return api::OpenCompressedFile(path); }, rep, run);
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace grepair
