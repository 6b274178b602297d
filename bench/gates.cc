// Release performance gates: six ratios of the serving stack, each held
// to a fixed bound, with every timed answer checked against the
// uncompressed input graph.
//
//   gates [--json PATH]
//
// Gates, in run order:
//
//   open       lazy cold open of a 16-shard dblp file vs the same open
//              followed by PrefetchAll() on one thread, the
//              fastest of 7 fresh opens per side             (>= 5x)
//   query      the query cache and batch engine on 16-shard BA(2000):
//              warm vs cold single queries                   (>= 1.05x)
//              OutNeighborsBatch vs an uncached loop         (>= 1x)
//   decode     word-at-a-time vs bit-at-a-time decode of the dblp
//              graph's 16 shards as k^2-tree payloads        (>= 2x)
//              (its sharded:grepair payloads are reported, not gated)
//   overlay    warm batch sweep with a 256-edit overlay live vs the
//              overlay-free base, 4-shard BA(4000)           (<= 1.5x)
//   placement  histogram-warmed remote open vs a cold one, open to the
//              last of 100 hot answers, 16-shard dblp        (>= 2x)
//   remote     pool 8 vs pool 1 shard-fault throughput, 24-shard
//              BA(1500)                                      (>= 3x)
//              and an SSD-warm client makes no remote fetch
//
// Every margin is structural (one footer read vs 16 grammar parses, a
// cache hit vs a grammar walk, one branch per 64 bits vs one per bit,
// unmerged pass-through of untouched nodes, overlapped vs serial
// 10 ms fetches), so the bounds hold on noisy shared runners. The two
// remote gates serve their corpus from an in-process ShardServer that
// sleeps 10 ms per shard fetch, so faults are latency-bound like a real
// SSD or WAN hop; without the delay, loopback makes every pool width
// measure the same copy loop.
//
// Every gate runs even if an earlier one failed, and prints PASS <gate>
// or FAIL <gate>. The exit status is 1 when any gate failed and 2 on
// an unknown argument. --json writes every gate's numbers as
// "<gate>.<key>". Files go to a fresh temporary directory that is
// removed on exit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/shard/container.h"
#include "src/shard/delta_overlay.h"
#include "src/shard/sharded_codec.h"
#include "src/util/elias.h"
#include "src/util/mmap_file.h"
#include "src/util/rng.h"

using namespace grepair;
using Clock = std::chrono::steady_clock;

namespace {

using bench::Seconds;
using Adjacency = std::vector<std::vector<uint64_t>>;

constexpr double kMinOpenSpeedup = 5.0;
constexpr int kOpenTrials = 7;
constexpr double kMinWarmSpeedup = 1.05;
constexpr double kMinBatchSpeedup = 1.0;
constexpr double kMinK2DecodeSpeedup = 2.0;
constexpr double kMaxOverlayRatio = 1.5;
constexpr double kMinPlacementSpeedup = 2.0;
constexpr double kMinPoolSpeedup = 3.0;
constexpr int kServeDelayMs = 10;

// ---- Shared helpers ------------------------------------------------

// Prints a failed step's status; true when `s` is ok.
bool Ok(const Status& s) {
  if (!s.ok()) std::printf("  error: %s\n", s.ToString().c_str());
  return s.ok();
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Prints one gated ratio beside its bound; true when the bound holds.
bool Bound(const char* what, double ratio, double bound, bool at_most) {
  bool holds = at_most ? ratio <= bound : ratio >= bound;
  std::printf("  %-36s %7.2fx  (bound %s %.2fx)%s\n", what, ratio,
              at_most ? "<=" : ">=", bound, holds ? "" : "  <- FAILS");
  return holds;
}

// One gate's JSON rows, keyed "<gate>.<key>".
struct GateJson {
  std::string gate;
  bench::JsonWriter* json;

  template <typename T>
  void Add(const std::string& key, const T& value) {
    json->Add(gate + "." + key, value);
  }
};

// Sorts and dedups every row: the shape of an OutNeighbors answer.
void Normalize(Adjacency* adj) {
  for (auto& row : *adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
}

// The verifier's truth: out-neighbors of every node of the input graph
// (any label), sorted and duplicate-free. Built from the generator's
// edge list, never from a decode, so a codec bug that round-trips
// through its own decoder still shows up as a wrong answer.
Adjacency Truth(const Hypergraph& g) {
  Adjacency adj(g.num_nodes());
  for (const HEdge& e : g.edges()) {
    if (e.att.size() == 2) adj[e.att[0]].push_back(e.att[1]);
  }
  Normalize(&adj);
  return adj;
}

// The verifier: true when answers[i] == expected[nodes[i]] for every i;
// otherwise prints how many of `what`'s answers differ.
bool Matches(const char* what, const Adjacency& expected,
             const std::vector<uint64_t>& nodes,
             const std::vector<std::vector<uint64_t>>& answers) {
  size_t wrong = 0;
  if (answers.size() != nodes.size()) {
    wrong = nodes.size();
  } else {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (answers[i] != expected[nodes[i]]) ++wrong;
    }
  }
  if (wrong != 0) {
    std::printf("  %s: %zu of %zu answers are wrong\n",
                what, wrong, nodes.size());
  }
  return wrong == 0;
}

// `count` node ids striped evenly over [0, span).
std::vector<uint64_t> Stripe(uint64_t span, int count) {
  std::vector<uint64_t> nodes;
  nodes.reserve(count);
  for (int q = 0; q < count; ++q) {
    nodes.push_back(span * static_cast<uint64_t>(q) / count);
  }
  return nodes;
}

// OutNeighbors of each node in turn, the way a frontend answers single
// requests.
Result<Adjacency> Loop(const api::CompressedRep& rep,
                       const std::vector<uint64_t>& nodes) {
  Adjacency out;
  out.reserve(nodes.size());
  for (uint64_t v : nodes) {
    auto r = rep.OutNeighbors(v);
    if (!r.ok()) return r.status();
    out.push_back(std::move(r).ValueOrDie());
  }
  return out;
}

// The one corpus builder: `gg` compressed by sharded:grepair into
// `shards` edge-range shards, as GRSHARD2 container bytes.
Result<std::vector<uint8_t>> BuildContainer(const GeneratedGraph& gg,
                                            int shards) {
  auto c = api::CodecRegistry::Create("sharded:grepair");
  if (!c.ok()) return c.status();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = c.value()->Compress(gg.graph, gg.alphabet, options);
  if (!rep.ok()) return rep.status();
  return rep.value()->Serialize();
}

// A generated graph, its sharded:grepair container and its truth.
struct Corpus {
  GeneratedGraph gg;
  int shards;
  Adjacency truth;
  Result<std::vector<uint8_t>> container;

  uint64_t num_nodes() const { return gg.graph.num_nodes(); }
};

Corpus MakeCorpus(GeneratedGraph gg, int shards) {
  Adjacency truth = Truth(gg.graph);
  auto container = BuildContainer(gg, shards);
  return Corpus{std::move(gg), shards, std::move(truth),
                std::move(container)};
}

// Prints the corpus line; false (with the error) when it failed to build.
bool Describe(const Corpus& c) {
  if (!Ok(c.container.status())) return false;
  std::printf("  corpus %s: %u nodes, %u edges, %d shards, %zu bytes\n",
              c.gg.name.c_str(), c.gg.graph.num_nodes(),
              c.gg.graph.num_edges(), c.shards, c.container.value().size());
  return true;
}

// Writes `container` as a sharded:grepair file at `path`.
Status WriteCorpusFile(const std::string& path,
                       const std::vector<uint8_t>& container) {
  return WriteFileBytes(path,
                        api::WrapCodecPayload("sharded:grepair", container));
}

// One corpus hosted by an in-process ShardServer that sleeps
// kServeDelayMs per shard fetch.
struct ServedCorpus {
  std::unique_ptr<serve::ShardServer> server;
  std::string target;  ///< host:port/name
};

Result<ServedCorpus> Serve(const std::string& name,
                           const std::vector<uint8_t>& container) {
  serve::CorpusRegistry registry;
  GREPAIR_RETURN_IF_ERROR(registry.AddBytes(name, SpanOf(container)));
  serve::ShardServer::Options options;
  options.debug_shard_delay_ms = kServeDelayMs;
  auto server = serve::ShardServer::Start(std::move(registry), options);
  if (!server.ok()) return server.status();
  ServedCorpus served;
  served.target = server.value()->host_port() + "/" + name;
  served.server = std::move(server).ValueOrDie();
  return served;
}

// ---- open: lazy cold open vs eager -----------------------------------

bool OpenGate(const Corpus& dblp, const std::string& dir, GateJson& json) {
  if (!Describe(dblp)) return false;
  const std::string path = dir + "/open.grp";
  if (!Ok(WriteCorpusFile(path, dblp.container.value()))) {
    return false;
  }
  // One probe node, then a batch striped over the id space so every
  // shard gets touched. Each run opens the file afresh; the sides
  // alternate, and each phase keeps its fastest run so a stall on a
  // shared host cannot decide the ratio.
  const std::vector<uint64_t> probe = {0};
  const std::vector<uint64_t> sweep = Stripe(dblp.num_nodes(), 256);
  struct Run {
    double open_s = 1e30, first_s = 1e30, sweep_s = 1e30;
    uint64_t first_faults = 0, sweep_faults = 0;
  } runs[2];  // [0] eager, [1] lazy
  for (int trial = 0; trial < kOpenTrials; ++trial) {
    for (int lazy = 0; lazy < 2; ++lazy) {
      Run& run = runs[lazy];
      auto t0 = Clock::now();
      auto rep = api::OpenCompressedFile(path);
      if (!Ok(rep.status())) return false;
      if (!lazy) rep.value()->PrefetchAll();  // one thread: faults inline
      auto t1 = Clock::now();
      auto first = Loop(*rep.value(), probe);
      auto t2 = Clock::now();
      run.first_faults = rep.value()->query_stats().shard_faults;
      auto batch = rep.value()->OutNeighborsBatch(sweep);
      auto t3 = Clock::now();
      run.sweep_faults = rep.value()->query_stats().shard_faults;
      if (!Ok(first.status()) || !Ok(batch.status()) ||
          !Matches("first query", dblp.truth, probe, first.value()) ||
          !Matches("batch", dblp.truth, sweep, batch.value())) {
        return false;
      }
      run.open_s = std::min(run.open_s, Seconds(t0, t1));
      run.first_s = std::min(run.first_s, Seconds(t1, t2));
      run.sweep_s = std::min(run.sweep_s, Seconds(t2, t3));
    }
  }
  std::printf("  %-22s %14s %14s  (fastest of %d)\n", "", "eager", "lazy",
              kOpenTrials);
  auto row = [](const char* label, double eager, double lazy) {
    std::printf("  %-22s %11.3f ms %11.3f ms\n", label, eager * 1e3,
                lazy * 1e3);
  };
  row("cold open", runs[0].open_s, runs[1].open_s);
  row("first query", runs[0].first_s, runs[1].first_s);
  row("batch over all shards", runs[0].sweep_s, runs[1].sweep_s);
  std::printf("  lazy shard faults: %llu after the first query, %llu after "
              "the batch\n",
              (unsigned long long)runs[1].first_faults,
              (unsigned long long)runs[1].sweep_faults);
  double speedup = Ratio(runs[0].open_s, runs[1].open_s);
  json.Add("trials", kOpenTrials);
  json.Add("eager_open_ms", runs[0].open_s * 1e3);
  json.Add("lazy_open_ms", runs[1].open_s * 1e3);
  json.Add("speedup", speedup);
  json.Add("min_speedup", kMinOpenSpeedup);
  bool pass = Bound("lazy vs eager cold open", speedup, kMinOpenSpeedup,
                    false);
  if (runs[1].first_faults < 1) {
    std::printf("  the lazy first query faulted no shard\n");
    pass = false;
  }
  return pass;
}

// ---- query: the query cache and the batch engine -------------------

bool QueryGate(GateJson& json) {
  Corpus c = MakeCorpus(BarabasiAlbert(2000, 4, 7), 16);
  if (!Describe(c)) return false;
  // Three reps so no measurement inherits another's cache: cold then
  // warm singles, a batch on 4 threads, and the per-call routing
  // baseline with the cache off.
  std::unique_ptr<shard::ShardedRep> reps[3];
  for (auto& rep : reps) {
    auto opened = shard::ShardedRep::Deserialize(c.container.value());
    if (!Ok(opened.status())) return false;
    rep = std::move(opened).ValueOrDie();
  }
  shard::ShardedRep& cached = *reps[0];
  shard::ShardedRep& batched = *reps[1];
  shard::ShardedRep& uncached = *reps[2];
  batched.set_threads(4);
  uncached.set_query_cache_bytes(0);

  // Distinct-heavy singles (one query per two nodes, so the cold pass
  // pays grammar walks and shard decodes) and a repeat-heavy batch.
  Rng rng(99);
  std::vector<uint64_t> singles(1000), batch_set(6000);
  for (auto& v : singles) v = rng.UniformBounded(c.num_nodes());
  for (auto& v : batch_set) v = rng.UniformBounded(c.num_nodes());

  auto t0 = Clock::now();
  auto cold = Loop(cached, singles);
  auto t1 = Clock::now();
  auto warm = Loop(cached, singles);
  auto t2 = Clock::now();
  auto loop = Loop(uncached, batch_set);
  auto t3 = Clock::now();
  auto batch = batched.OutNeighborsBatch(batch_set);
  auto t4 = Clock::now();
  if (!Ok(cold.status()) || !Ok(warm.status()) || !Ok(loop.status()) ||
      !Ok(batch.status())) {
    return false;
  }
  bool pass = Matches("cold singles", c.truth, singles, cold.value());
  pass &= Matches("warm singles", c.truth, singles, warm.value());
  pass &= Matches("uncached loop", c.truth, batch_set, loop.value());
  pass &= Matches("batch", c.truth, batch_set, batch.value());

  double warm_speedup = Ratio(Seconds(t0, t1), Seconds(t1, t2));
  double batch_speedup = Ratio(Seconds(t2, t3), Seconds(t3, t4));
  std::printf("  singles: cold %.2f us/q, warm %.2f us/q\n",
              Seconds(t0, t1) * 1e6 / singles.size(),
              Seconds(t1, t2) * 1e6 / singles.size());
  std::printf("  batch:   uncached loop %.2f us/q, batch %.2f us/q\n",
              Seconds(t2, t3) * 1e6 / batch_set.size(),
              Seconds(t3, t4) * 1e6 / batch_set.size());
  auto stats = cached.query_stats();
  std::printf("  cached rep: hits=%llu misses=%llu decodes=%llu "
              "evictions=%llu cache_bytes=%llu\n",
              (unsigned long long)stats.cache_hits,
              (unsigned long long)stats.cache_misses,
              (unsigned long long)stats.shard_decodes,
              (unsigned long long)stats.cache_evictions,
              (unsigned long long)stats.cache_bytes_used);
  json.Add("warm_speedup", warm_speedup);
  json.Add("batch_speedup", batch_speedup);
  json.Add("min_warm_speedup", kMinWarmSpeedup);
  json.Add("min_batch_speedup", kMinBatchSpeedup);
  pass &= Bound("warm vs cold singles", warm_speedup, kMinWarmSpeedup,
                false);
  pass &= Bound("batch vs uncached loop", batch_speedup, kMinBatchSpeedup,
                false);
  return pass;
}

// ---- decode: word-at-a-time vs bit-at-a-time shard decode -----------

// One corpus's shard payloads in one encoding: the exact bytes a shard
// fault decodes, each shard's node map, and the decoder.
struct ShardPayloads {
  const char* name;
  // Parses one payload (the timed step); `graph` and `bytes` (both
  // optional) receive its local graph and its re-serialization.
  Status (*decode)(const std::vector<uint8_t>& payload, Hypergraph* graph,
                   std::vector<uint8_t>* bytes);
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::vector<NodeId>> nodes;  ///< global ids, per payload
  uint64_t edges = 0;  ///< edges decoded per pass over all payloads
};

Status DecodeGrepair(const std::vector<uint8_t>& payload, Hypergraph* graph,
                     std::vector<uint8_t>* bytes) {
  auto decoded = shard::DecodeShardPayload(SpanOf(payload));
  if (!decoded.ok()) return decoded.status();
  if (bytes != nullptr) *bytes = decoded.value().Serialize();
  if (graph == nullptr) return Status::OK();
  auto local = decoded.value().Decompress();
  if (!local.ok()) return local.status();
  *graph = std::move(local).ValueOrDie();
  return Status::OK();
}

Status DecodeK2(const std::vector<uint8_t>& payload, Hypergraph* graph,
                std::vector<uint8_t>* bytes) {
  auto decoded = K2GraphRepresentation::Deserialize(payload);
  if (!decoded.ok()) return decoded.status();
  if (bytes != nullptr) *bytes = decoded.value().Serialize();
  if (graph != nullptr) *graph = decoded.value().ToGraph();
  return Status::OK();
}

// The sharded:grepair payloads of `container`, sliced out of its footer
// directory.
Status GrepairPayloads(const std::vector<uint8_t>& container,
                       ShardPayloads* p) {
  auto parsed = shard::ParseContainer(SpanOf(container));
  if (!parsed.ok()) return parsed.status();
  const shard::ParsedDirectory& dir = parsed.value().dir;
  *p = ShardPayloads{"sharded:grepair", DecodeGrepair, {}, {}, 0};
  for (size_t row = 0; row < dir.rows.size(); ++row) {
    const auto& entry = dir.rows[row];
    if (entry.length == 0) continue;  // edgeless shard: nothing to decode
    p->payloads.emplace_back(container.begin() + entry.offset,
                             container.begin() + entry.offset + entry.length);
    p->nodes.push_back(dir.node_maps[row]);
  }
  return Status::OK();
}

// The k^2-tree payloads (K2GraphRepresentation, k = 2) of the same
// edge-range partition sharded:grepair compresses.
Status K2Payloads(const GeneratedGraph& gg, int shards, ShardPayloads* p) {
  shard::PartitionOptions options;
  options.num_shards = shards;
  auto partition = shard::PartitionGraph(gg.graph, options);
  if (!partition.ok()) return partition.status();
  *p = ShardPayloads{"k2 shards", DecodeK2, {}, {}, 0};
  for (const shard::Shard& part : partition.value().shards) {
    if (part.graph.num_edges() == 0) continue;
    p->payloads.push_back(
        K2GraphRepresentation::Build(part.graph, gg.alphabet).Serialize());
    p->nodes.push_back(part.nodes);
  }
  return Status::OK();
}

// Decodes every payload once; `graphs` and `bytes` (optional) receive
// each payload's local graph and re-serialization.
Status DecodeAll(const ShardPayloads& p, std::vector<Hypergraph>* graphs,
                 std::vector<std::vector<uint8_t>>* bytes) {
  if (graphs != nullptr) graphs->resize(p.payloads.size());
  if (bytes != nullptr) bytes->resize(p.payloads.size());
  for (size_t i = 0; i < p.payloads.size(); ++i) {
    GREPAIR_RETURN_IF_ERROR(
        p.decode(p.payloads[i], graphs != nullptr ? &(*graphs)[i] : nullptr,
                 bytes != nullptr ? &(*bytes)[i] : nullptr));
  }
  return Status::OK();
}

// Checks both decode paths: every shard must re-serialize and decompress
// identically under the fast and the scalar readers, and the fast
// shards' edges, mapped through their node maps, must be the input
// graph's.
bool CheckDecode(const Adjacency& truth, ShardPayloads* p) {
  std::vector<Hypergraph> fast, scalar;
  std::vector<std::vector<uint8_t>> fast_bytes, scalar_bytes;
  Status fast_ok = DecodeAll(*p, &fast, &fast_bytes);
  SetEliasDecodeScalarForTest(true);
  Status scalar_ok = DecodeAll(*p, &scalar, &scalar_bytes);
  SetEliasDecodeScalarForTest(false);
  if (!Ok(fast_ok) || !Ok(scalar_ok)) return false;
  Adjacency decoded(truth.size());
  p->edges = 0;
  for (size_t i = 0; i < fast.size(); ++i) {
    if (fast_bytes[i] != scalar_bytes[i] ||
        !fast[i].EqualUpToEdgeOrder(scalar[i])) {
      std::printf("  %s shard %zu decodes differently under the scalar "
                  "readers\n", p->name, i);
      return false;
    }
    const std::vector<NodeId>& global = p->nodes[i];
    for (const HEdge& e : fast[i].edges()) {
      if (e.att.size() == 2 && e.att[0] < global.size() &&
          e.att[1] < global.size()) {
        decoded[global[e.att[0]]].push_back(global[e.att[1]]);
      }
    }
    p->edges += fast[i].num_edges();
  }
  Normalize(&decoded);
  if (decoded != truth) {
    std::printf("  %s do not decode to the input graph\n", p->name);
    return false;
  }
  std::printf("  %s: %zu shard payloads identical fast vs scalar and equal "
              "to the input (%llu edges per pass)\n",
              p->name, p->payloads.size(), (unsigned long long)p->edges);
  return true;
}

// Edges per second over `iters` passes of decoding every payload.
double EdgesPerSec(const ShardPayloads& p, int iters) {
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (!DecodeAll(p, nullptr, nullptr).ok()) return 0.0;
  }
  return Ratio(static_cast<double>(p.edges) * iters, Seconds(t0, Clock::now()));
}

bool DecodeGate(const Corpus& dblp, GateJson& json) {
  constexpr int kIters = 30;
  if (!Describe(dblp)) return false;
  ShardPayloads k2, grepair;
  if (!Ok(K2Payloads(dblp.gg, dblp.shards, &k2)) ||
      !Ok(GrepairPayloads(dblp.container.value(), &grepair)) ||
      !CheckDecode(dblp.truth, &k2) || !CheckDecode(dblp.truth, &grepair)) {
    return false;
  }
  double fast[2], scalar[2];  // [0] k2, [1] grepair
  const ShardPayloads* prepared[2] = {&k2, &grepair};
  for (int c = 0; c < 2; ++c) {
    EdgesPerSec(*prepared[c], 2);  // warm-up
    fast[c] = EdgesPerSec(*prepared[c], kIters);
    SetEliasDecodeScalarForTest(true);
    scalar[c] = EdgesPerSec(*prepared[c], kIters);
    SetEliasDecodeScalarForTest(false);
  }
  if (fast[0] == 0 || fast[1] == 0 || scalar[0] == 0 || scalar[1] == 0) {
    std::printf("  a timed decode failed\n");
    return false;
  }
  std::printf("  %-16s %14s %14s\n", "shard decode", "scalar e/s",
              "fast e/s");
  std::printf("  %-16s %14.0f %14.0f\n", k2.name, scalar[0], fast[0]);
  std::printf("  %-16s %14.0f %14.0f\n", grepair.name, scalar[1], fast[1]);

  double k2_speedup = Ratio(fast[0], scalar[0]);
  double grepair_speedup = Ratio(fast[1], scalar[1]);
  json.Add("bench", json.gate);
  json.Add("dataset", dblp.gg.name);
  json.Add("shards", dblp.shards);
  json.Add("iters", kIters);
  json.Add("k2_scalar_edges_per_sec", scalar[0]);
  json.Add("k2_fast_edges_per_sec", fast[0]);
  json.Add("k2_speedup", k2_speedup);
  json.Add("grepair_scalar_edges_per_sec", scalar[1]);
  json.Add("grepair_fast_edges_per_sec", fast[1]);
  json.Add("grepair_speedup", grepair_speedup);
  json.Add("min_speedup", kMinK2DecodeSpeedup);
  // Most of a grepair shard's decode builds the grammar and enumerates
  // the start graph's k^2-trees, which the Elias readers do not speed
  // up; its ratio has read 1.28-2.08x, too close to 1x to gate.
  std::printf("  %-36s %7.2fx  (not gated)\n", "sharded:grepair fast vs scalar",
              grepair_speedup);
  return Bound("k2 shards fast vs scalar", k2_speedup, kMinK2DecodeSpeedup,
               false);
}

// ---- overlay: warm batches with a live delta overlay ----------------

// Best of 7 timed batch sweeps over `nodes`, after one untimed sweep
// that pays shard decoding; every sweep must answer `expected`. The
// minimum, not the mean: transient scheduler noise must not fail the
// gate, only a real per-query regression should.
bool WarmSweep(const shard::ShardedRep& rep, const std::vector<uint64_t>& nodes,
               const Adjacency& expected, const char* what, double* best_s) {
  *best_s = 1e30;
  for (int trial = 0; trial <= 7; ++trial) {
    auto t0 = Clock::now();
    auto result = rep.OutNeighborsBatch(nodes);
    double s = Seconds(t0, Clock::now());
    if (!Ok(result.status()) ||
        !Matches(what, expected, nodes, result.value())) {
      return false;
    }
    if (trial > 0) *best_s = std::min(*best_s, s);
  }
  return true;
}

bool OverlayGate(GateJson& json) {
  constexpr uint32_t kEdits = 256;
  Corpus c = MakeCorpus(BarabasiAlbert(4000, 8, 71), 4);
  if (!Describe(c)) return false;
  auto opened = shard::ShardedRep::Deserialize(c.container.value());
  if (!Ok(opened.status())) return false;
  shard::ShardedRep& rep = *opened.value();
  const uint64_t n = c.num_nodes();
  std::vector<uint64_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);

  double base_s = 0, overlay_s = 0, postfold_s = 0;
  if (!WarmSweep(rep, nodes, c.truth, "base batch", &base_s)) return false;

  // Half deletes of real edges, half fresh adds, spread over the id
  // space so many batch rows pay the merge. The model is the input's
  // edge set with the edits applied in order.
  std::mt19937_64 rng(1234);
  std::vector<shard::EdgeEdit> edits;
  const auto& edge_list = c.gg.graph.edges();
  while (edits.size() < kEdits / 2) {
    const HEdge& e = edge_list[rng() % edge_list.size()];
    if (e.att.size() == 2) {
      edits.push_back(shard::EdgeEdit::Delete(e.att[0], e.att[1]));
    }
  }
  while (edits.size() < kEdits) {
    uint64_t u = rng() % n, v = rng() % n;
    if (u != v) edits.push_back(shard::EdgeEdit::Add(u, v, 0));
  }
  Adjacency model = c.truth;
  for (const shard::EdgeEdit& e : edits) {
    auto& row = model[e.u];
    auto it = std::lower_bound(row.begin(), row.end(), e.v);
    bool present = it != row.end() && *it == e.v;
    if (e.kind == shard::EdgeEdit::kDelete && present) row.erase(it);
    if (e.kind == shard::EdgeEdit::kAdd && !present) row.insert(it, e.v);
  }
  if (!Ok(rep.ApplyEdits(edits)) ||
      !WarmSweep(rep, nodes, model, "overlay batch", &overlay_s)) {
    return false;
  }
  // These edits are light next to each shard's payload, so a fold
  // under the default budget would leave them residual; budget 0
  // drains them, so the post-fold line times folded grammars.
  rep.set_overlay_budget_bytes(0);
  auto fold_start = Clock::now();
  if (!Ok(rep.FoldOverlay())) return false;
  double fold_s = Seconds(fold_start, Clock::now());
  if (!WarmSweep(rep, nodes, model, "post-fold batch", &postfold_s)) {
    return false;
  }

  double ratio = Ratio(overlay_s, base_s);
  double to_ns = 1e9 / static_cast<double>(n);
  api::QueryStats stats = rep.query_stats();
  std::printf("  %-20s %8.1f ns/query\n", "warm base batch", base_s * to_ns);
  std::printf("  %-20s %8.1f ns/query\n", "warm overlay batch",
              overlay_s * to_ns);
  std::printf("  %-20s %8.1f ns/query\n", "post-fold batch",
              postfold_s * to_ns);
  std::printf("  %-20s %8.3f s (%llu edits folded)\n", "fold", fold_s,
              (unsigned long long)stats.folded_edits);
  bool pass = Bound("overlay vs base batch", ratio, kMaxOverlayRatio, true);
  json.Add("num_nodes", n);
  json.Add("edits", static_cast<uint64_t>(kEdits));
  json.Add("base_ns_per_query", base_s * to_ns);
  json.Add("overlay_ns_per_query", overlay_s * to_ns);
  json.Add("postfold_ns_per_query", postfold_s * to_ns);
  json.Add("overlay_over_base_ratio", ratio);
  json.Add("fold_seconds", fold_s);
  json.Add("folded_edits", stats.folded_edits);
  json.Add("shard_folds", stats.shard_folds);
  json.Add("gate_ratio", kMaxOverlayRatio);
  json.Add("gate_pass", pass ? 1 : 0);
  return pass;
}

// ---- placement: histogram-warmed remote open ------------------------

// One client lifetime: open `target`, answer the hot nodes serially (a
// frontend's first requests) and check them. Returns open-to-last-answer
// seconds; `fetches` receives the run's remote fetch count.
Result<double> RunHot(const std::string& target,
                      const serve::OpenOptions& options,
                      const std::vector<uint64_t>& hot,
                      const Adjacency& truth, uint64_t* fetches) {
  auto t0 = Clock::now();
  auto rep = serve::OpenRemoteContainer(target, options);
  if (!rep.ok()) return rep.status();
  auto answers = Loop(*rep.value(), hot);
  double s = Seconds(t0, Clock::now());
  if (!answers.ok()) return answers.status();
  if (!Matches("remote hot answers", truth, hot, answers.value())) {
    return Status::Corruption("wrong remote answers");
  }
  *fetches = rep.value()->query_stats().remote_fetches;
  return s;
}

bool PlacementGate(const Corpus& dblp, const std::string& dir,
                   GateJson& json) {
  constexpr int kQueries = 100, kTrials = 3;
  if (!Describe(dblp)) return false;
  auto served = Serve("dblp", dblp.container.value());
  if (!Ok(served.status())) return false;
  const std::string& target = served.value().target;
  // Hot nodes stripe the low half of the id space. Shards follow id
  // ranges, so about half the shards are hot: the skew the server's
  // histogram must learn.
  const std::vector<uint64_t> hot = Stripe(dblp.num_nodes() / 2, kQueries);
  serve::OpenOptions cold_options, warm_options;
  cold_options.warm_from_histogram = false;
  warm_options.warm_from_histogram = true;

  // Profiling pass, untimed: teaches the server which shards are hot.
  uint64_t hot_shards = 0, fetches = 0, warm_fetches = 0;
  if (!Ok(RunHot(target, cold_options, hot, dblp.truth, &hot_shards)
              .status())) {
    return false;
  }
  std::printf("  profiling pass touched %llu of %d shards\n",
              (unsigned long long)hot_shards, dblp.shards);
  double cold_best = 1e30, warm_best = 1e30;
  for (int t = 0; t < kTrials; ++t) {
    auto cold = RunHot(target, cold_options, hot, dblp.truth, &fetches);
    auto warm = RunHot(target, warm_options, hot, dblp.truth, &warm_fetches);
    if (!Ok(cold.status()) || !Ok(warm.status())) return false;
    cold_best = std::min(cold_best, cold.value());
    warm_best = std::min(warm_best, warm.value());
    std::printf("  trial %d: cold %.1f ms, warm %.1f ms, warm fetches %llu\n",
                t + 1, cold.value() * 1e3, warm.value() * 1e3,
                (unsigned long long)warm_fetches);
  }

  // The same container on disk, mmap'd: prefetch every shard on two
  // threads, then answer the hot nodes.
  const std::string path = dir + "/placement.grp";
  if (!Ok(WriteCorpusFile(path, dblp.container.value()))) {
    return false;
  }
  auto local = api::OpenCompressedFile(path);
  if (!Ok(local.status())) return false;
  std::vector<size_t> all_shards(local.value()->num_shards());
  std::iota(all_shards.begin(), all_shards.end(), 0);
  local.value()->set_threads(2);
  local.value()->Prefetch(all_shards);
  auto prefetched = Loop(*local.value(), hot);
  if (!Ok(prefetched.status()) ||
      !Matches("local prefetched answers", dblp.truth, hot,
               prefetched.value())) {
    return false;
  }

  double speedup = Ratio(cold_best, warm_best);
  json.Add("bench", json.gate);
  json.Add("dataset", dblp.gg.name);
  json.Add("shards", dblp.shards);
  json.Add("queries", kQueries);
  json.Add("delay_ms", kServeDelayMs);
  json.Add("trials", kTrials);
  json.Add("hot_shards", hot_shards);
  json.Add("cold_ms", cold_best * 1e3);
  json.Add("warm_ms", warm_best * 1e3);
  json.Add("speedup", speedup);
  json.Add("warm_remote_fetches", warm_fetches);
  json.Add("min_speedup", kMinPlacementSpeedup);
  return Bound("warm vs cold open to last hot answer", speedup,
               kMinPlacementSpeedup, false);
}

// ---- remote: pool width and the SSD tier ----------------------------

struct ClientRun {
  double seconds = 0;
  api::QueryStats stats;
};

// One fresh client (fresh pool, empty shard cache) answering every node
// on `threads` threads, each answer checked. Contiguous id blocks per
// thread keep the threads faulting different shards concurrently; an
// interleaved stripe would start them all on the same hub shards.
Result<ClientRun> RunClient(const std::string& target,
                            const serve::OpenOptions& options, int threads,
                            const Adjacency& truth) {
  auto rep = serve::OpenRemoteContainer(target, options);
  if (!rep.ok()) return rep.status();
  std::atomic<uint64_t> wrong{0};
  std::atomic<bool> failed{false};
  auto t0 = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const uint64_t n = truth.size();
  for (int t = 0; t < threads; ++t) {
    uint64_t begin = n * t / threads, end = n * (t + 1) / threads;
    workers.emplace_back([&, begin, end] {
      for (uint64_t v = begin; v < end; ++v) {
        auto r = rep.value()->OutNeighbors(v);
        if (!r.ok()) {
          failed.store(true);
          return;
        }
        if (r.value() != truth[v]) wrong.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  ClientRun run;
  run.seconds = Seconds(t0, Clock::now());
  run.stats = rep.value()->query_stats();
  if (failed.load()) return Status::Internal("a query thread failed");
  if (wrong.load() != 0) {
    return Status::Corruption(std::to_string(wrong.load()) +
                              " answers differ from the input graph");
  }
  return run;
}

bool RemoteGate(const std::string& dir, GateJson& json) {
  constexpr int kThreads = 8;
  Corpus c = MakeCorpus(BarabasiAlbert(1500, 3, 4242), 24);
  if (!Describe(c)) return false;
  auto served = Serve("bench", c.container.value());
  if (!Ok(served.status())) return false;
  const std::string& target = served.value().target;

  // Cold faults at pool widths 1, 4 and 8; only the width varies. Each
  // run's fetches bump the server's histogram, so later opens would warm
  // every shard before RunClient's clock starts: warming is off here.
  const int kPools[] = {1, 4, 8};
  double faults_per_sec[3] = {0, 0, 0};
  for (int p = 0; p < 3; ++p) {
    serve::OpenOptions options;
    options.pool_size = kPools[p];
    options.warm_from_histogram = false;
    auto run = RunClient(target, options, kThreads, c.truth);
    if (!Ok(run.status())) return false;
    const api::QueryStats& stats = run.value().stats;
    faults_per_sec[p] = Ratio(static_cast<double>(stats.remote_fetches),
                              run.value().seconds);
    std::printf("  pool %d: %7.1f ms, %llu faults, %.1f faults/s, peak "
                "in-flight %llu\n",
                kPools[p], run.value().seconds * 1e3,
                (unsigned long long)stats.remote_fetches, faults_per_sec[p],
                (unsigned long long)stats.pool_peak_in_flight);
  }

  // The SSD tier: a cold client fills it, then a fresh client over the
  // same directory must answer without one remote fetch.
  serve::OpenOptions tier;
  tier.pool_size = 8;
  tier.ssd_cache_dir = dir + "/ssd";
  auto cold = RunClient(target, tier, kThreads, c.truth);
  if (!Ok(cold.status())) return false;
  auto warm = RunClient(target, tier, kThreads, c.truth);
  if (!Ok(warm.status())) return false;
  const api::QueryStats& cs = cold.value().stats;
  const api::QueryStats& ws = warm.value().stats;
  std::printf("  ssd cold: %7.1f ms, %llu remote fetches (%llu bytes), %llu "
              "tier cold\n",
              cold.value().seconds * 1e3, (unsigned long long)cs.remote_fetches,
              (unsigned long long)cs.remote_bytes,
              (unsigned long long)cs.tier_cold_fetches);
  std::printf("  ssd warm: %7.1f ms, %llu remote fetches, %llu tier warm "
              "hits\n",
              warm.value().seconds * 1e3, (unsigned long long)ws.remote_fetches,
              (unsigned long long)ws.tier_warm_hits);

  double speedup = Ratio(faults_per_sec[2], faults_per_sec[0]);
  json.Add("pool1_faults_per_sec", faults_per_sec[0]);
  json.Add("pool8_faults_per_sec", faults_per_sec[2]);
  json.Add("speedup", speedup);
  json.Add("min_speedup", kMinPoolSpeedup);
  json.Add("warm_remote_fetches", ws.remote_fetches);
  bool pass = Bound("pool 8 vs pool 1 fault throughput", speedup,
                    kMinPoolSpeedup, false);
  if (ws.remote_fetches != 0) {
    std::printf("  the SSD-warm client fetched %llu shards remotely\n",
                (unsigned long long)ws.remote_fetches);
    pass = false;
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!bench::ParseJsonArg(argc, argv, &json_path)) return 2;
  bench::TempDir tmp("gates");
  if (tmp.path().empty()) {
    std::fprintf(stderr, "gates: cannot create a temporary directory\n");
    return 1;
  }
  const std::string& dir = tmp.path();
  // The open, decode and placement gates share one dblp corpus.
  Corpus dblp = MakeCorpus(DblpVersions(8, 200, 100, 1, "dblp"), 16);

  const std::pair<const char*, std::function<bool(GateJson&)>> gates[] = {
      {"open", [&](GateJson& j) { return OpenGate(dblp, dir, j); }},
      {"query", [&](GateJson& j) { return QueryGate(j); }},
      {"decode", [&](GateJson& j) { return DecodeGate(dblp, j); }},
      {"overlay", [&](GateJson& j) { return OverlayGate(j); }},
      {"placement", [&](GateJson& j) { return PlacementGate(dblp, dir, j); }},
      {"remote", [&](GateJson& j) { return RemoteGate(dir, j); }},
  };
  bench::JsonWriter json;
  int failed = 0;
  for (const auto& [name, run] : gates) {
    bench::PrintHeader(name);
    GateJson gate{name, &json};
    bool pass = run(gate);
    gate.Add("pass", pass ? 1 : 0);
    std::printf("%s %s\n", pass ? "PASS" : "FAIL", name);
    failed += pass ? 0 : 1;
  }
  std::printf("\n%d of %zu gates failed\n", failed, std::size(gates));
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return failed == 0 ? 0 : 1;
}
