// read-cold-remote: repeated client sessions against an in-process
// ShardServer on loopback (no artificial delay). A session opens the
// corpus remotely (connection pool, SSD tier sized at half the
// container, defaults otherwise), shrinks the decoded cache to 1 MiB,
// runs uniform point queries and drops the rep. The working set is
// larger than both caches, so serve, shard fault/verify, encoding
// decode and cache eviction dominate: the same query layer as
// read-hot-local, but cold.

#include <filesystem>

#include "e2ebench/workloads.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/stats.h"
#include "src/util/rng.h"

namespace grepair {
namespace e2e {
namespace {

constexpr size_t kQueriesPerSession = 500;
constexpr size_t kDecodedCacheBytes = 1 << 20;
constexpr size_t kQueryKeys = 1 << 16;
constexpr int kStatsProbes = 20;

struct ColdSetup {
  ReadCorpus read;  // declared first: the server borrows read.corpus.v2
  std::unique_ptr<serve::ShardServer> server;
  std::vector<uint32_t> keys;  // uniform node ids
};

Result<ColdSetup> MakeColdSetup(uint64_t seed, int threads) {
  ColdSetup s;
  auto read = MakeReadCorpus(threads);
  if (!read.ok()) return read.status();
  s.read = std::move(read).ValueOrDie();
  serve::CorpusRegistry registry;
  GREPAIR_RETURN_IF_ERROR(
      registry.AddBytes("dblp", SpanOf(s.read.corpus.v2)));
  auto server = serve::ShardServer::Start(std::move(registry));
  if (!server.ok()) return server.status();
  s.server = std::move(server).ValueOrDie();
  Rng rng(seed ^ 0x436f6c64ULL);
  s.keys.resize(kQueryKeys);
  for (uint32_t& key : s.keys) {
    key = static_cast<uint32_t>(rng.UniformBounded(s.read.model->num_nodes()));
  }
  return s;
}

void Accumulate(const api::QueryStats& s, api::QueryStats* total) {
  total->cache_hits += s.cache_hits;
  total->cache_misses += s.cache_misses;
  total->memo_hits += s.memo_hits;
  total->shard_decodes += s.shard_decodes;
  total->cache_evictions += s.cache_evictions;
  total->remote_fetches += s.remote_fetches;
  total->remote_bytes += s.remote_bytes;
  total->pool_dials += s.pool_dials;
  total->pool_redials += s.pool_redials;
  total->pool_peak_in_flight =
      std::max(total->pool_peak_in_flight, s.pool_peak_in_flight);
  total->tier_warm_hits += s.tier_warm_hits;
  total->tier_cold_fetches += s.tier_cold_fetches;
  total->tier_evictions += s.tier_evictions;
  total->shards_prefetched += s.shards_prefetched;
}

}  // namespace

Status RunReadColdRemote(Run* run) {
  const RunConfig& config = run->config;
  auto setup = RepeatedSetup<ColdSetup>(
      run, [&]() { return MakeColdSetup(config.seed, config.threads); });
  if (!setup.ok()) return setup.status();
  const ColdSetup& s = setup.value();
  const AdjacencyModel& model = *s.read.model;
  const std::string target = s.server->host_port() + "/dblp";

  serve::OpenOptions options;
  options.pool_size = config.threads;
  options.ssd_cache_dir = config.scratch_dir + "/tier";
  options.ssd_cache_bytes = s.read.corpus.v2.size() / 2;
  std::filesystem::remove_all(options.ssd_cache_dir);

  LatencySampler out_us, in_us;
  std::vector<double> open_ms, open_first_ms;
  api::QueryStats totals;
  const serve::ServerStatsSnapshot server_before = s.server->stats();
  size_t cursor = 0;

  run->StartPhase();
  for (uint64_t session = 0; Clock::now() < run->deadline(); ++session) {
    Tracer::Span span(&run->tracer, "op.session", session);
    double open_us = 0;
    auto opened = run->Op(&open_us, [&] {
      Tracer::Span open(&run->tracer, "serve.open_remote", session);
      return serve::OpenRemoteContainer(target, options);
    });
    if (!run->Check(opened.status(), "open remote")) continue;
    open_ms.push_back(open_us / 1e3);
    auto* rep = dynamic_cast<shard::ShardedRep*>(opened.value().get());
    if (rep == nullptr) {
      run->tally.Fail("open remote: not a sharded rep");
      continue;
    }
    rep->set_query_cache_bytes(kDecodedCacheBytes);
    {
      Tracer::Span queries(&run->tracer, "query.point_queries", session);
      double first_us =
          PointQueries(run, *rep, model, s.keys, kQueriesPerSession, &cursor,
                       &out_us, &in_us, session);
      open_first_ms.push_back((open_us + first_us) / 1e3);
    }
    Accumulate(rep->query_stats(), &totals);
    double close_us = 0;
    run->Op(&close_us, [&] {
      Tracer::Span close(&run->tracer, "serve.close", session);
      opened.value().reset();
      return 0;
    });
  }
  run->EndPhase();
  const serve::ServerStatsSnapshot server_after = s.server->stats();

  Report& r = run->report;
  r.Set("bits_per_edge", 8.0 * s.read.corpus.v2.size() /
                             s.read.gg.graph.num_edges(),
        "bits", s.read.gg.graph.num_edges());
  r.Set("shard.open_s", Median(open_ms) / 1e3, "s", open_ms.size());
  r.Set("api.open_first_ms", PercentileOf(open_first_ms, 0.5), "ms");
  r.Set("query.out_us.p50", out_us.At(0.5), "us");
  r.Set("query.out_us.p99", out_us.At(0.99), "us");
  r.Set("query.in_us.p50", in_us.At(0.5), "us");
  r.Set("query.in_us.p99", in_us.At(0.99), "us");
  ReportQueryStats(totals, run);
  r.Set("serve.open_remote_ms.p50", PercentileOf(open_ms, 0.5), "ms");
  r.Set("serve.remote_fetches", totals.remote_fetches, "count");
  r.Set("serve.remote_bytes", totals.remote_bytes, "bytes");
  r.Set("serve.pool_dials", totals.pool_dials, "count");
  r.Set("serve.pool_redials", totals.pool_redials, "count");
  r.Set("serve.pool_peak_in_flight", totals.pool_peak_in_flight, "count");
  r.Set("serve.tier_warm_hits", totals.tier_warm_hits, "count");
  r.Set("serve.tier_cold_fetches", totals.tier_cold_fetches, "count");
  r.Set("serve.tier_evictions", totals.tier_evictions, "count");
  uint64_t tier_lookups = totals.tier_warm_hits + totals.tier_cold_fetches;
  r.Set("serve.tier_hit_ratio",
        tier_lookups == 0 ? 0.0
                          : static_cast<double>(totals.tier_warm_hits) /
                                static_cast<double>(tier_lookups),
        "ratio", tier_lookups);
  r.Set("serve.shards_prefetched", totals.shards_prefetched, "count");
  r.Set("serve.server_requests",
        server_after.requests - server_before.requests, "count");
  r.Set("serve.server_bytes_sent",
        server_after.bytes_sent - server_before.bytes_sent, "bytes");
  r.Set("serve.server_errors", server_after.errors - server_before.errors,
        "count");

  if (config.trace) {
    std::vector<double> rtt_ms;
    for (int i = 0; i < kStatsProbes; ++i) {
      auto t0 = Clock::now();
      auto stats = serve::FetchServerStats(s.server->host_port());
      rtt_ms.push_back(Micros(t0, Clock::now()) / 1e3);
      run->Check(stats.status(), "stats probe");
    }
    r.Set("serve.stats_rtt_ms", Median(rtt_ms), "ms", rtt_ms.size());
    // Inline faults: no tier and no open-time warming, so no prefetch
    // pool runs and Prefetch({i}) faults shard i over the wire.
    serve::OpenOptions probe_options;
    probe_options.pool_size = config.threads;
    probe_options.warm_from_histogram = false;
    auto resident = shard::ShardedRep::Deserialize(SpanOf(s.read.corpus.v2));
    if (run->Check(resident.status(), "probe parse")) {
      ProbeShards(
          [&] { return serve::OpenRemoteContainer(target, probe_options); },
          *resident.value(), run);
    }
  }
  std::filesystem::remove_all(options.ssd_cache_dir);
  return Status::OK();
}

}  // namespace e2e
}  // namespace grepair
