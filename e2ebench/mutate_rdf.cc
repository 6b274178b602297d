// mutate-rdf: writes beside reads on a mutable corpus. Batches of 16
// edits (90% among the newest 10% of node ids, half adds and half
// deletes of live edges) go through ApplyEdits, each followed by a
// 512-node OutNeighborsBatch; after each third of the batches the
// overlay is folded back into the shard grammars, and at the end it is
// also shipped as a GRSHARD3 delta (build, encode, write, decode) and
// applied to a fresh open of the base. A std::set edge model, updated
// with every batch, checks reads under the overlay, after the fold and
// after ApplyDelta. overlay works hard, grepair runs again inside
// folds, serve does nothing.
//
// Unlike the other workloads the timed phase is a fixed amount of
// work, kBatchesPerSecond batches per requested second (for 20 s, 2000
// batches and three folds: about 20 s on a 4-vCPU Xeon VM, two thirds
// of it in the folds). The cost of ApplyEdits grows with the resident
// overlay and every fold keeps the shards it rewrites, so a
// time-bounded run would reach different overlay sizes, fold counts and
// peak memory depending on machine speed; a fixed batch count walks
// every run through the same states.

#include "e2ebench/workloads.h"
#include "src/api/container.h"
#include "src/shard/delta_overlay.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"
#include "src/util/rng.h"

namespace grepair {
namespace e2e {
namespace {

// RDF entity graphs vary by 5-8% in bits per edge across generator
// seeds (a few record templates dominate each draw), so the base corpus
// is fixed and the run seed drives the edit and read streams.
constexpr uint64_t kCorpusSeed = 1;
constexpr uint32_t kEntities = 40000;
constexpr uint32_t kPredicates = 40;
constexpr uint32_t kTemplates = 60;
constexpr size_t kEditsPerBatch = 16;
constexpr size_t kReadsPerBatch = 512;
constexpr double kHotShare = 0.9;
// A hot add links two hot nodes at most this many ids apart, so both
// usually sit in one shard and a fold can place the edge; cold adds
// join random nodes and mostly stay in the residual overlay.
constexpr uint32_t kHotAddSpan = 64;
constexpr double kBatchesPerSecond = 100;
// Folds come on a schedule, like a background folder's, with
// ApplyEdits' budget-triggered folds turned off: after each third of
// the batches, the last one at the end.
constexpr int kFolds = 3;

struct MutateSetup {
  GeneratedGraph gg;
  std::unique_ptr<EdgeSetModel> model;
  std::unique_ptr<shard::ShardedRep> rep;  // lazy open of the base file
  double compress_s = 0;
  uint64_t base_hash = 0;
  uint64_t base_size = 0;
};

Result<MutateSetup> MakeMutateSetup(int threads, const std::string& path) {
  MutateSetup s;
  s.gg = RdfEntities(kEntities, kPredicates, kTemplates, kCorpusSeed);
  const uint32_t n = s.gg.graph.num_nodes();
  s.model = std::make_unique<EdgeSetModel>(s.gg.graph, n - n / 10);
  {
    auto corpus = CompressCorpus(s.gg, threads);
    if (!corpus.ok()) return corpus.status();
    s.compress_s = corpus.value().compress_s;
    GREPAIR_RETURN_IF_ERROR(WriteContainer(path, corpus.value().v2));
  }
  auto file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  s.base_hash = HashBytes(file.value().data(), file.value().size());
  s.base_size = file.value().size();
  auto rep = OpenShardedFile(path);
  if (!rep.ok()) return rep.status();
  s.rep = std::move(rep).ValueOrDie();
  s.rep->set_overlay_budget_bytes(~0ull);
  return s;
}

// One batch of edits, applied to the model as it is drawn so deletes
// always name a live edge.
std::vector<shard::EdgeEdit> DrawEdits(EdgeSetModel* model, Rng* rng) {
  const uint64_t n = model->num_nodes();
  const uint64_t hot_begin = n - n / 10;
  std::vector<shard::EdgeEdit> edits;
  while (edits.size() < kEditsPerBatch) {
    const bool hot = rng->Bernoulli(kHotShare);
    uint32_t u = 0, v = 0;
    if (rng->Bernoulli(0.5) && model->PickLive(hot, rng, &u, &v)) {
      edits.push_back(shard::EdgeEdit::Delete(u, v));
      model->Delete(u, v);
      continue;
    }
    if (hot) {
      u = static_cast<uint32_t>(hot_begin + rng->UniformBounded(n - hot_begin));
      v = static_cast<uint32_t>(u - kHotAddSpan +
                                rng->UniformBounded(2 * kHotAddSpan + 1));
      if (v < hot_begin || v >= n) continue;
    } else {
      u = static_cast<uint32_t>(rng->UniformBounded(n));
      v = static_cast<uint32_t>(rng->UniformBounded(n));
    }
    if (u == v) continue;
    edits.push_back(shard::EdgeEdit::Add(
        u, v, static_cast<uint32_t>(rng->UniformBounded(kPredicates))));
    model->Add(u, v);
  }
  return edits;
}

std::vector<uint64_t> DrawReads(uint64_t n, Rng* rng) {
  const uint64_t hot_begin = n - n / 10;
  std::vector<uint64_t> nodes(kReadsPerBatch);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = i % 2 == 0 ? hot_begin + rng->UniformBounded(n - hot_begin)
                          : rng->UniformBounded(n);
  }
  return nodes;
}

// Reads `nodes` through one batch call, timed as an operation, and
// checks every answer against the model.
void CheckedBatch(Run* run, const api::CompressedRep& rep,
                  const std::vector<uint64_t>& nodes,
                  const EdgeSetModel& model, const char* what) {
  double us = 0;
  auto answers = run->Op(&us, [&] { return rep.OutNeighborsBatch(nodes); });
  HarnessWork check(run, "bench.verify", 0);
  if (!run->Check(answers.status(), what)) return;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!model.OutMatches(nodes[i], answers.value()[i])) {
      run->tally.Fail(std::string(what) + ": wrong answer");
    }
  }
}

}  // namespace

Status RunMutateRdf(Run* run) {
  const RunConfig& config = run->config;
  const std::string base_path = config.scratch_dir + "/base.grp";
  const std::string delta_path = config.scratch_dir + "/base.grd";
  std::vector<double> setup_compress_s;
  auto setup = RepeatedSetup<MutateSetup>(run, [&]() {
    auto made = MakeMutateSetup(config.threads, base_path);
    if (made.ok()) setup_compress_s.push_back(made.value().compress_s);
    return made;
  });
  if (!setup.ok()) return setup.status();
  MutateSetup& s = setup.value();
  EdgeSetModel& model = *s.model;
  shard::ShardedRep& rep = *s.rep;
  std::vector<uint64_t> all_nodes(model.num_nodes());
  for (uint64_t v = 0; v < all_nodes.size(); ++v) all_nodes[v] = v;

  Rng rng(config.seed);
  LatencySampler apply_us;
  std::vector<double> read_ms, fold_s;
  uint64_t edits_applied = 0, read_edges = 0;
  double apply_s = 0;
  auto fold = [&](uint64_t request) {
    double us = 0;
    Status folded = run->Op(&us, [&] {
      Tracer::Span span(&run->tracer, "op.fold", request);
      return rep.FoldOverlay();
    });
    fold_s.push_back(us / 1e6);
    run->Check(folded, "FoldOverlay");
  };

  // One operation is one client request: apply a batch of edits, then
  // read 512 nodes back.
  const uint64_t batches = std::max<uint64_t>(
      kFolds, static_cast<uint64_t>(config.seconds * kBatchesPerSecond));
  run->StartPhase();
  for (uint64_t batch = 0; batch < batches; ++batch) {
    if (batch > 0 && batch % (batches / kFolds) == 0 &&
        fold_s.size() + 1 < kFolds) {
      fold(fold_s.size());
    }
    std::vector<shard::EdgeEdit> edits;
    std::vector<uint64_t> nodes;
    {
      HarnessWork draw(run, "bench.draw", batch);
      edits = DrawEdits(&model, &rng);
      nodes = DrawReads(model.num_nodes(), &rng);
    }
    Tracer::Span span(&run->tracer, "op.edit_and_read", batch);
    ++run->tally.attempted;
    double edit_s = 0, read_s = 0;
    auto t0 = Clock::now();
    Status applied = Stage(run, "overlay.apply_edits", batch, &edit_s,
                           [&] { return rep.ApplyEdits(edits); });
    if (!run->Check(applied, "ApplyEdits")) break;  // the model diverged
    auto answers = Stage(run, "query.batch_read", batch, &read_s,
                         [&] { return rep.OutNeighborsBatch(nodes); });
    run->ops.Add(Micros(t0, Clock::now()));
    apply_us.Add(edit_s * 1e6);
    apply_s += edit_s;
    edits_applied += edits.size();
    read_ms.push_back(read_s * 1e3);
    if (!run->Check(answers.status(), "batch read")) continue;
    HarnessWork verify(run, "bench.verify", batch);
    for (size_t i = 0; i < nodes.size(); ++i) {
      read_edges += answers.value()[i].size();
      if (!model.OutMatches(nodes[i], answers.value()[i])) {
        run->tally.Fail("batch read: wrong answer");
      }
    }
  }
  const api::QueryStats before_fold = rep.query_stats();
  fold(fold_s.size());
  {
    Tracer::Span span(&run->tracer, "op.read_after_fold", 0);
    CheckedBatch(run, rep, all_nodes, model, "read after fold");
  }

  double build_us = 0, encode_us = 0, write_us = 0, decode_us = 0,
         open_us = 0, delta_apply_us = 0;
  uint64_t delta_bytes = 0, changed_shards = 0;
  {
    Tracer::Span span(&run->tracer, "op.ship_delta", 0);
    auto delta = run->Op(&build_us, [&] {
      Tracer::Span stage(&run->tracer, "delta.build", 0);
      return rep.BuildDelta(s.base_hash, s.base_size);
    });
    if (run->Check(delta.status(), "BuildDelta")) {
      changed_shards = delta.value().shards.size();
      std::vector<uint8_t> bytes = run->Op(&encode_us, [&] {
        Tracer::Span stage(&run->tracer, "delta.encode", 0);
        return shard::EncodeDeltaContainer(delta.value());
      });
      delta_bytes = bytes.size();
      Status written = run->Op(&write_us, [&] {
        Tracer::Span stage(&run->tracer, "util.write_atomic", 0);
        return WriteFileBytesAtomic(delta_path, SpanOf(bytes));
      });
      run->Check(written, "write delta");
      auto decoded = run->Op(&decode_us, [&] {
        Tracer::Span stage(&run->tracer, "delta.decode", 0);
        return shard::DecodeDeltaContainer(SpanOf(bytes), delta_path);
      });
      auto fresh = run->Op(&open_us, [&] {
        Tracer::Span stage(&run->tracer, "api.open", 0);
        return OpenShardedFile(base_path);
      });
      if (run->Check(decoded.status(), "DecodeDeltaContainer") &&
          run->Check(fresh.status(), "open base")) {
        Status shipped = run->Op(&delta_apply_us, [&] {
          Tracer::Span stage(&run->tracer, "delta.apply", 0);
          return fresh.value()->ApplyDelta(decoded.value());
        });
        if (run->Check(shipped, "ApplyDelta")) {
          Tracer::Span stage(&run->tracer, "op.read_after_delta", 0);
          CheckedBatch(run, *fresh.value(), all_nodes, model,
                       "read after delta");
        }
      }
    }
  }
  run->EndPhase();

  const api::QueryStats stats = rep.query_stats();
  Report& r = run->report;
  r.Set("bits_per_edge", 8.0 * s.base_size / s.gg.graph.num_edges(), "bits",
        s.gg.graph.num_edges());
  r.Set("overlay.apply_us.p50", apply_us.At(0.5), "us");
  r.Set("overlay.apply_us.p99", apply_us.At(0.99), "us");
  r.Set("overlay.batch_read_ms.p99", PercentileOf(read_ms, 0.99), "ms");
  r.Set("overlay.merges", stats.overlay_merges, "count");
  r.Set("overlay.resident_edits", before_fold.overlay_edits, "count");
  r.Set("overlay.shard_folds", stats.shard_folds, "count");
  r.Set("overlay.folded_edits", stats.folded_edits, "count");
  r.Set("overlay.fold_eligible_ratio",
        Rate(static_cast<double>(stats.folded_edits),
             static_cast<double>(edits_applied)),
        "ratio", edits_applied);
  r.Set("overlay.edits_per_s", Rate(edits_applied, apply_s), "1/s",
        apply_us.count());
  r.Set("overlay.fold_s", Median(fold_s), "s", fold_s.size());
  r.Set("query.batch_ms.p50", PercentileOf(read_ms, 0.5), "ms");
  double read_total_s = 0;
  for (double ms : read_ms) read_total_s += ms / 1e3;
  r.Set("query.batch_edges_per_s", Rate(read_edges, read_total_s), "1/s",
        read_ms.size());
  ReportQueryStats(stats, run);
  r.Set("delta.build_s", build_us / 1e6, "s");
  r.Set("delta.encode_s", encode_us / 1e6, "s");
  r.Set("delta.decode_s", decode_us / 1e6, "s");
  r.Set("delta.apply_s", delta_apply_us / 1e6, "s");
  r.Set("delta.bytes", delta_bytes, "bytes");
  r.Set("delta.changed_shards", changed_shards, "count");
  r.Set("delta.bytes_per_edit",
        Rate(static_cast<double>(delta_bytes),
             static_cast<double>(edits_applied)),
        "bytes", edits_applied);
  r.Set("shard.open_s", open_us / 1e6, "s");
  r.Set("util.write_atomic_s", write_us / 1e6, "s");

  if (config.trace) {
    auto resident = OpenShardedFile(base_path);
    if (run->Check(resident.status(), "probe open")) {
      SplitCompress(s.gg, *resident.value(), Median(setup_compress_s), run);
      ProbeShards([&] { return api::OpenCompressedFile(base_path); },
                  *resident.value(), run);
    }
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace grepair
