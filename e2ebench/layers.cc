// Corpus helpers shared by the workloads, and the traced-run probes
// that split compress and fault work into per-layer numbers.

#include <algorithm>
#include <cstring>

#include "e2ebench/workloads.h"
#include "src/api/codec_registry.h"
#include "src/api/container.h"
#include "src/encoding/grammar_coder.h"
#include "src/graph/node_order.h"
#include "src/grepair/compressor.h"
#include "src/shard/partitioner.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace e2e {

Result<ShardedCorpus> CompressCorpus(const GeneratedGraph& gg, int threads) {
  auto codec = api::CodecRegistry::Create("sharded:grepair");
  if (!codec.ok()) return codec.status();
  api::CodecOptions options;
  options.Set("shards", std::to_string(kShards));
  options.Set("threads", std::to_string(threads));
  ShardedCorpus corpus;
  auto t0 = Clock::now();
  auto rep = codec.value()->Compress(gg.graph, gg.alphabet, options);
  corpus.compress_s = Seconds(t0, Clock::now());
  if (!rep.ok()) return rep.status();
  corpus.rep = std::move(rep).ValueOrDie();
  auto* sharded = dynamic_cast<const shard::ShardedRep*>(corpus.rep.get());
  if (sharded == nullptr) return Status::Internal("not a sharded rep");
  corpus.v2 = sharded->SerializeV2();
  return corpus;
}

Result<ReadCorpus> MakeReadCorpus(int threads) {
  // 32 cumulative yearly snapshots: 105600 nodes, 172770 edges, a
  // 433 KB container. Compressing it three times fits the set-up
  // budget, and its decoded shards (3.7 MB) fit the default 64 MiB
  // query cache but not a 1 MiB one. The corpus is the same on every
  // run, so read timings do not move with the graph; the run seed
  // drives the query stream.
  ReadCorpus read;
  read.gg = DblpVersions(32, 200, 100, /*seed=*/1, "dblp");
  read.model = std::make_unique<AdjacencyModel>(read.gg.graph);
  auto corpus = CompressCorpus(read.gg, threads);
  if (!corpus.ok()) return corpus.status();
  read.corpus = std::move(corpus).ValueOrDie();
  // The workloads read the container bytes; the in-memory compressed
  // rep would only add to the resident set of the timed phase.
  read.corpus.rep.reset();
  return read;
}

Status WriteContainer(const std::string& path,
                      const std::vector<uint8_t>& v2) {
  return WriteFileBytesAtomic(
      path, SpanOf(api::WrapCodecPayload("sharded:grepair", v2)));
}

Result<std::unique_ptr<shard::ShardedRep>> OpenShardedFile(
    const std::string& path) {
  auto rep = api::OpenCompressedFile(path);
  if (!rep.ok()) return rep.status();
  auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
  if (sharded == nullptr) return Status::Internal(path + ": not sharded");
  rep.value().release();
  return std::unique_ptr<shard::ShardedRep>(sharded);
}

namespace {

// The grammar section of a grepair shard payload: u8 mapping flag,
// u64 LE grammar length, grammar bytes (CompressedGraph::Serialize).
bool GrammarSection(ByteSpan payload, ByteSpan* grammar) {
  if (payload.size < 9) return false;
  uint64_t len = 0;
  for (int b = 0; b < 8; ++b) {
    len |= static_cast<uint64_t>(payload.data[1 + b]) << (8 * b);
  }
  if (len > payload.size - 9) return false;
  *grammar = ByteSpan(payload.data + 9, len);
  return true;
}

}  // namespace

void SplitCompress(const GeneratedGraph& gg,
                   const shard::ShardedRep& container, double compress_wall_s,
                   Run* run) {
  Tracer::Span split(&run->tracer, "bench.split_compress", 0);
  shard::PartitionOptions partition_options;
  partition_options.num_shards = kShards;
  auto t0 = Clock::now();
  auto partition = shard::PartitionGraph(gg.graph, partition_options);
  double partition_s = Seconds(t0, Clock::now());
  if (!run->Check(partition.status(), "PartitionGraph")) return;
  if (partition.value().shards.size() != container.num_shards()) {
    run->tally.Fail("split: shard count differs from the container");
    return;
  }

  // The grepair codec compresses with default options and keeps the
  // original node ids (its "original-ids" option defaults to true).
  // grepair::Compress computes the node order itself, so the order is
  // timed on its own first and that time is taken out of Compress's:
  // grepair.compress_busy_s and grepair.node_order_s do not overlap.
  CompressOptions options;
  options.track_node_mapping = true;
  double order_s = 0, compress_s = 0, encode_s = 0, decode_s = 0;
  uint64_t grammar_bytes = 0, input_size = 0, output_size = 0;
  CompressStats total;
  for (size_t i = 0; i < partition.value().shards.size(); ++i) {
    const Hypergraph& g = partition.value().shards[i].graph;
    if (g.num_edges() == 0) continue;
    auto a = Clock::now();
    std::vector<NodeId> order =
        ComputeNodeOrder(g, options.node_order, options.order_seed);
    auto b = Clock::now();
    auto compressed = Compress(g, gg.alphabet, options);
    auto c = Clock::now();
    if (!run->Check(compressed.status(), "grepair::Compress")) return;
    std::vector<uint8_t> bytes = EncodeGrammar(compressed.value().grammar);
    auto d = Clock::now();
    auto decoded = DecodeGrammar(SpanOf(bytes));
    auto e = Clock::now();
    if (!run->Check(decoded.status(), "DecodeGrammar")) return;
    order_s += Seconds(a, b);
    compress_s += std::max(0.0, Seconds(b, c) - Seconds(a, b));
    encode_s += Seconds(c, d);
    decode_s += Seconds(d, e);
    grammar_bytes += bytes.size();

    ByteSpan grammar;
    if (!GrammarSection(container.entry(i).payload_bytes(), &grammar) ||
        grammar.size != bytes.size() ||
        std::memcmp(grammar.data, bytes.data(), bytes.size()) != 0) {
      run->tally.Fail("split: shard " + std::to_string(i) +
                      " grammar differs from the container payload");
    }
    const CompressStats& s = compressed.value().stats;
    total.digrams_replaced += s.digrams_replaced;
    total.occurrences_replaced += s.occurrences_replaced;
    total.rules_after_prune += s.rules_after_prune;
    total.virtual_edges_added += s.virtual_edges_added;
    input_size += s.input_size;
    output_size += s.output_size;
  }

  Report& r = run->report;
  r.Set("grepair.compress_busy_s", compress_s, "s");
  r.Set("grepair.node_order_s", order_s, "s");
  r.Set("grepair.digrams_replaced", total.digrams_replaced, "count");
  r.Set("grepair.occurrences_replaced",
        static_cast<double>(total.occurrences_replaced), "count");
  r.Set("grepair.rules_after_prune", total.rules_after_prune, "count");
  r.Set("grepair.virtual_edges_added", total.virtual_edges_added, "count");
  r.Set("grepair.size_ratio",
        input_size == 0 ? 0.0
                        : static_cast<double>(output_size) /
                              static_cast<double>(input_size),
        "ratio");
  r.Set("shard.partition_s", partition_s, "s");
  r.Set("shard.cut_edges", partition.value().num_cut_edges, "count");
  r.Set("shard.parallel_efficiency",
        (order_s + compress_s + encode_s) /
            (compress_wall_s * run->config.threads),
        "ratio");
  r.Set("encoding.encode_s", encode_s, "s");
  r.Set("encoding.decode_s", decode_s, "s");
  r.Set("encoding.grammar_bytes", static_cast<double>(grammar_bytes),
        "bytes");
}

void ProbeShards(
    const std::function<Result<std::unique_ptr<api::CompressedRep>>()>& open,
    const shard::ShardedRep& resident, Run* run) {
  Tracer::Span probe(&run->tracer, "bench.probe_shards", 0);
  constexpr size_t kMinFaults = 256;
  constexpr int kRounds = 8;
  constexpr double kMaxSeconds = 2.0;

  std::vector<double> fault_us;
  auto start = Clock::now();
  while (fault_us.size() < kMinFaults &&
         Seconds(start, Clock::now()) < kMaxSeconds) {
    auto rep = open();
    if (!run->Check(rep.status(), "probe open")) return;
    auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
    if (sharded == nullptr) {
      run->tally.Fail("probe: not a sharded rep");
      return;
    }
    for (size_t i = 0; i < sharded->num_shards(); ++i) {
      if (!sharded->entry(i).has_payload()) continue;
      auto t0 = Clock::now();
      sharded->Prefetch({i});
      fault_us.push_back(Micros(t0, Clock::now()));
    }
  }

  auto inner = api::CodecRegistry::Create(resident.inner_name());
  if (!run->Check(inner.status(), "inner codec")) return;
  std::vector<double> verify_s, decode_us;
  for (int round = 0; round < kRounds; ++round) {
    double verify = 0;
    for (size_t i = 0; i < resident.num_shards(); ++i) {
      const shard::ShardedRep::Entry& entry = resident.entry(i);
      ByteSpan payload = entry.payload_bytes();
      if (payload.size == 0) continue;
      auto t0 = Clock::now();
      uint64_t sum = HashBytes(payload.data, payload.size);
      auto t1 = Clock::now();
      auto rep = inner.value()->DeserializeSpan(payload);
      auto t2 = Clock::now();
      verify += Seconds(t0, t1);
      decode_us.push_back(Micros(t1, t2));
      if (sum != entry.checksum) {
        run->tally.Fail("probe: shard " + std::to_string(i) +
                        " checksum mismatch");
      }
      run->Check(rep.status(), "inner DeserializeSpan");
    }
    verify_s.push_back(verify);
  }
  Report& r = run->report;
  r.Set("shard.fault_us.p50", PercentileOf(fault_us, 0.5), "us");
  r.Set("shard.fault_us.p99", PercentileOf(fault_us, 0.99), "us");
  r.Set("shard.verify_s", Median(verify_s), "s", verify_s.size());
  r.Set("shard.inner_decode_us.p50", PercentileOf(decode_us, 0.5), "us");
}

double PointQueries(Run* run, const api::CompressedRep& rep,
                    const AdjacencyModel& model,
                    const std::vector<uint32_t>& keys, size_t count,
                    size_t* cursor, LatencySampler* out_us,
                    LatencySampler* in_us, uint64_t request) {
  const size_t first = *cursor;
  std::vector<Result<std::vector<uint64_t>>> answers;
  answers.reserve(count);
  double first_us = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t at = first + i;
    const uint64_t node = keys[at % keys.size()];
    const bool out = (at & 1) == 0;
    double us = 0;
    answers.push_back(run->Op(&us, [&] {
      return out ? rep.OutNeighbors(node) : rep.InNeighbors(node);
    }));
    (out ? out_us : in_us)->Add(us);
    if (i == 0) first_us = us;
  }
  *cursor = first + count;

  HarnessWork check(run, "bench.verify", request);
  for (size_t i = 0; i < count; ++i) {
    const size_t at = first + i;
    const uint64_t node = keys[at % keys.size()];
    const bool out = (at & 1) == 0;
    if (run->Check(answers[i].status(), "point query") &&
        !(out ? model.OutMatches(node, answers[i].value())
              : model.InMatches(node, answers[i].value()))) {
      run->tally.Fail("point query: wrong answer");
    }
  }
  return first_us;
}

void ReportQueryStats(const api::QueryStats& stats, Run* run) {
  Report& r = run->report;
  uint64_t lookups = stats.cache_hits + stats.cache_misses;
  r.Set("query.cache_hit_ratio",
        lookups == 0 ? 0.0
                     : static_cast<double>(stats.cache_hits) /
                           static_cast<double>(lookups),
        "ratio", lookups);
  r.Set("query.memo_hits", static_cast<double>(stats.memo_hits), "count");
  r.Set("query.shard_decodes", static_cast<double>(stats.shard_decodes),
        "count");
  r.Set("query.cache_evictions", static_cast<double>(stats.cache_evictions),
        "count");
}

}  // namespace e2e
}  // namespace grepair
