// The benchmark's metric names and units. Every workload reports every
// end-to-end metric (untraced runs) and every per-layer metric (traced
// runs); a layer a workload does not exercise reports 0. BENCHMARK.json
// lists the same names, with the bounds and the metric each per-layer
// number should move.

#ifndef GREPAIR_E2EBENCH_METRICS_H_
#define GREPAIR_E2EBENCH_METRICS_H_

namespace grepair {
namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Operations are the workload's calls into the system (an ingest, a
// point query, a batch, an edit batch, a fold...); their times exclude
// the benchmark's own input generation and answer checking.
//
// Wall-clock operation timings are per-layer metrics (wall.*): on a
// shared virtual machine they move by a quarter between back-to-back
// runs of the same code whenever the host steals vCPU time, so no
// bound the benchmark may set would hold them. CPU time does not count
// stolen time.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          // median of the run's repeated set-ups
    {"op_cpu_us", "us"},       // CPU time, all threads, per operation
    {"bits_per_edge", "bits"}, // stored container bits per input edge
    {"peak_rss_mb", "MB"},     // peak resident set of the timed phase
};

inline constexpr MetricSpec kPerLayer[] = {
    // whole operations, wall clock.
    {"wall.ops_per_s", "1/s"},   // operations per second spent in them
    {"wall.op_p50_us", "us"},    // operation latency, median
    {"wall.op_p90_us", "us"},    // operation latency, 90th percentile
    // grepair + node order: one compress split into its layer calls.
    {"grepair.compress_busy_s", "s"},
    {"grepair.node_order_s", "s"},
    {"grepair.digrams_replaced", "count"},
    {"grepair.occurrences_replaced", "count"},
    {"grepair.rules_after_prune", "count"},
    {"grepair.virtual_edges_added", "count"},
    {"grepair.size_ratio", "ratio"},
    // shard: partitioner, parallel compressor, container codec, faults.
    {"shard.partition_s", "s"},
    {"shard.cut_edges", "count"},
    {"shard.parallel_efficiency", "ratio"},
    {"shard.compress_edges_per_s", "1/s"},
    {"shard.decompress_edges_per_s", "1/s"},
    {"shard.serialize_v2_s", "s"},
    {"shard.open_s", "s"},
    {"shard.fault_us.p50", "us"},
    {"shard.fault_us.p99", "us"},
    {"shard.verify_s", "s"},
    {"shard.inner_decode_us.p50", "us"},
    // encoding: grammar_coder.
    {"encoding.encode_s", "s"},
    {"encoding.decode_s", "s"},
    {"encoding.grammar_bytes", "bytes"},
    // util and api entry points.
    {"util.write_atomic_s", "s"},
    {"api.open_first_ms", "ms"},
    // query: router, caches, memos.
    {"query.out_us.p50", "us"},
    {"query.out_us.p99", "us"},
    {"query.in_us.p50", "us"},
    {"query.in_us.p99", "us"},
    {"query.batch_ms.p50", "ms"},
    {"query.reach_batch_ms", "ms"},
    {"query.batch_edges_per_s", "1/s"},
    {"query.reach_pairs_per_s", "1/s"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.memo_hits", "count"},
    {"query.shard_decodes", "count"},
    {"query.cache_evictions", "count"},
    // serve: net frame, pool, tier, server.
    {"serve.open_remote_ms.p50", "ms"},
    {"serve.stats_rtt_ms", "ms"},
    {"serve.remote_fetches", "count"},
    {"serve.remote_bytes", "bytes"},
    {"serve.pool_dials", "count"},
    {"serve.pool_redials", "count"},
    {"serve.pool_peak_in_flight", "count"},
    {"serve.tier_warm_hits", "count"},
    {"serve.tier_cold_fetches", "count"},
    {"serve.tier_evictions", "count"},
    {"serve.tier_hit_ratio", "ratio"},
    {"serve.shards_prefetched", "count"},
    {"serve.server_requests", "count"},
    {"serve.server_bytes_sent", "bytes"},
    {"serve.server_errors", "count"},
    // overlay: delta overlay and folds.
    {"overlay.apply_us.p50", "us"},
    {"overlay.apply_us.p99", "us"},
    {"overlay.batch_read_ms.p99", "ms"},
    {"overlay.merges", "count"},
    {"overlay.resident_edits", "count"},
    {"overlay.shard_folds", "count"},
    {"overlay.folded_edits", "count"},
    {"overlay.fold_eligible_ratio", "ratio"},
    {"overlay.edits_per_s", "1/s"},
    {"overlay.fold_s", "s"},
    // delta: GRSHARD3 build, codec and apply.
    {"delta.build_s", "s"},
    {"delta.encode_s", "s"},
    {"delta.decode_s", "s"},
    {"delta.apply_s", "s"},
    {"delta.bytes", "bytes"},
    {"delta.changed_shards", "count"},
    {"delta.bytes_per_edit", "bytes"},
    // the recorder itself.
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

}  // namespace e2e
}  // namespace grepair

#endif  // GREPAIR_E2EBENCH_METRICS_H_
