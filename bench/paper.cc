// The paper's evaluation in one program: Tables I-VI, Figures 10-14,
// the virtual-edge and pruning ablations (Section III-A) and the
// Section V query comparisons, each printed with the published numbers
// beside ours. The stand-ins are scaled synthetic graphs run on other
// hardware, so absolute values differ from the paper; the "shape"
// lines say whether who wins, and by roughly what factor, matches.
//
//   paper [--json PATH]
//
// Each stand-in is built once and each (dataset, codec, options) run
// happens once, so a cell that two tables print comes from one run.
// --json writes every deterministic cell as `<dataset>.<run>.<field>`,
// where <run> is the codec plus each non-default option (for example
// `grepair.max_rank=2`) or the table a verdict belongs to. The file is
// checked in as BENCH_paper.json and CI fails when a run moves a cell.
// Timings go to stdout only.
//
// The exit status is 1 when a check fails: a grammar that does not
// reproduce its input, a codec error other than InvalidArgument
// (printed as n/a, like a codec that does not apply), a pruned grammar
// that encodes larger than the unpruned one, a delta chain that does
// not beat full re-ships, or a Section V grammar query that disagrees
// with val(G). Shape verdicts are reported, not gated. Any other
// argument exits 2.
//
// LM's bytes come from the system zlib, so they depend on the machine:
// they are printed with the zlib version but left out of the ledger.

#include <zlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/datasets/paper_datasets.h"
#include "src/encoding/grammar_coder.h"
#include "src/graph/graph_algos.h"
#include "src/graph/node_order.h"
#include "src/query/neighborhood.h"
#include "src/query/reachability.h"
#include "src/query/speedup.h"
#include "src/shard/delta_overlay.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"
#include "src/util/rng.h"

using namespace grepair;
using namespace grepair::bench;
using Clock = std::chrono::steady_clock;

namespace {

// One paper codec's size over a dataset; !ok when it does not apply.
struct CodecRun {
  bool ok = false;
  size_t bytes = 0;
  double bpe = 0;
};

// One gRePair compression. Every run tracks the node mapping, as the
// grepair file backend does, and must reproduce its input exactly.
struct GrepairRun {
  size_t bytes = 0;
  double bpe = 0;
  uint32_t rules = 0;
  uint32_t virtual_edges = 0;
  std::vector<uint8_t> encoded;  // kept for the Section V graphs only
};

// The graphs Section V queries, over the grammar decoded from the bytes
// of their default run.
const char* const kQueryGraphs[] = {"Tic-Tac-Toe", "Types ru", "DBLP60-70"};

CompressOptions MaxRank(int rank) {
  CompressOptions options;
  options.max_rank = rank;
  return options;
}

CompressOptions Order(NodeOrderKind order) {
  CompressOptions options;
  options.node_order = order;
  return options;
}

// "grepair" plus each option that differs from the default.
std::string RunName(const CompressOptions& o) {
  const CompressOptions d;
  std::string name = "grepair";
  if (o.max_rank != d.max_rank) {
    name += ".max_rank=" + std::to_string(o.max_rank);
  }
  if (o.node_order != d.node_order) {
    name += ".order=" + NodeOrderKindName(o.node_order);
  }
  if (!o.connect_components) name += ".virtual=false";
  if (!o.prune) name += ".prune=false";
  if (o.prune && o.prune_options.iterate_to_fixpoint) {
    name += ".prune=fixpoint";
  }
  return name;
}

// The datasets and runs every section draws from, each made once, and
// the ledger their deterministic cells go to.
class Runs {
 public:
  JsonWriter ledger;

  // A paper stand-in by its table name, or the graph `make` builds.
  const PaperDataset& Dataset(
      const std::string& name,
      const std::function<GeneratedGraph()>& make = nullptr) {
    auto it = datasets_.find(name);
    if (it != datasets_.end()) return it->second;
    PaperDataset d;
    if (make) {
      d.data = make();
    } else {
      d = MakePaperDataset(name);
    }
    ledger.Add(name + ".input.nodes", uint64_t{d.data.graph.num_nodes()});
    ledger.Add(name + ".input.edges", uint64_t{d.data.graph.num_edges()});
    ledger.Add(name + ".input.labels", uint64_t{d.data.alphabet.size()});
    ledger.Add(name + ".input.size", d.data.graph.TotalSize());
    return datasets_.emplace(name, std::move(d)).first->second;
  }
  const GeneratedGraph& Graph(const std::string& name) {
    return Dataset(name).data;
  }

  uint32_t FpClasses(const std::string& name) {
    auto [it, fresh] = fp_classes_.try_emplace(name, 0);
    if (fresh) {
      it->second = CountFpClasses(Graph(name).graph);
      ledger.Add(name + ".input.fp_classes", uint64_t{it->second});
    }
    return it->second;
  }

  const GrepairRun& Grepair(const std::string& name,
                            CompressOptions options = {}) {
    const std::string key = name + "." + RunName(options);
    auto [it, fresh] = grepair_.try_emplace(key);
    GrepairRun& run = it->second;
    if (!fresh) return run;
    const GeneratedGraph& gg = Graph(name);
    options.track_node_mapping = true;
    auto result = Compress(gg.graph, gg.alphabet, options);
    if (!result.ok()) {
      Check(false, key + ": compress failed: " + result.status().ToString());
      return run;
    }
    const SlhrGrammar& grammar = result.value().grammar;
    auto back = DeriveOriginal(grammar, result.value().origins);
    Check(back.ok() && back.value().EqualUpToEdgeOrder(gg.graph),
          key + ": the grammar does not reproduce the input");
    std::vector<uint8_t> encoded = EncodeGrammar(grammar);
    run.bytes = encoded.size();
    run.bpe = BitsPerEdge(run.bytes, gg.graph.num_edges());
    run.rules = grammar.num_rules();
    run.virtual_edges = result.value().stats.virtual_edges_added;
    ledger.Add(key + ".bytes", uint64_t{run.bytes});
    ledger.Add(key + ".rules", uint64_t{run.rules});
    ledger.Add(key + ".size", grammar.TotalSize());
    ledger.Add(key + ".virtual_edges", uint64_t{run.virtual_edges});
    if (key == name + ".grepair" &&
        std::find(std::begin(kQueryGraphs), std::end(kQueryGraphs), name) !=
            std::end(kQueryGraphs)) {
      run.encoded = std::move(encoded);
    }
    return run;
  }

  // The default grepair run is the grepair codec's output, so its
  // bytes are shared rather than compressed again.
  const CodecRun& Codec(const std::string& name, const std::string& codec) {
    const std::string key = name + "." + codec;
    auto [it, fresh] = codec_.try_emplace(key);
    CodecRun& run = it->second;
    if (!fresh) return run;
    const GeneratedGraph& gg = Graph(name);
    if (codec == "grepair") {
      run.ok = true;
      run.bytes = Grepair(name).bytes;
    } else {
      auto bytes = PaperCodecBytes(codec, gg);
      const bool pinned = codec != "lm";  // zlib's bytes are not pinned
      if (bytes.ok()) {
        run.ok = true;
        run.bytes = bytes.value();
        if (pinned) ledger.Add(key + ".bytes", uint64_t{run.bytes});
      } else {
        Check(bytes.status().code() == StatusCode::kInvalidArgument,
              key + ": " + bytes.status().ToString());
        if (pinned) ledger.Add(key + ".bytes", std::string("n/a"));
      }
    }
    run.bpe = BitsPerEdge(run.bytes, gg.graph.num_edges());
    return run;
  }

  // Records a correctness check; a failed one makes the exit status 1.
  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++failures_;
    }
    return ok;
  }
  int failures() const { return failures_; }

 private:
  std::map<std::string, PaperDataset> datasets_;
  std::map<std::string, uint32_t> fp_classes_;
  std::map<std::string, GrepairRun> grepair_;
  std::map<std::string, CodecRun> codec_;
  int failures_ = 0;
};

// ---- Tables I-III: dataset statistics and bytes per paper codec ------

// |[~FP]| is exact (lexicographic color refinement, node_order.h); the
// stand-ins are scaled, so compare the *ratio* |[~FP]| / |V| against
// the paper's, which is what Figure 11 builds on.
void DatasetTable(Runs& runs, const char* title,
                  const std::vector<std::string>& names) {
  auto codecs = PaperCodecNames();
  std::printf("\n== %s ==\n", title);
  std::printf("%-24s %10s %10s %5s %12s %8s | %12s %8s |", "graph", "|V|",
              "|E|", "|S|", "classes", "cls/|V|", "paper cls", "cls/|V|");
  for (const auto& codec : codecs) std::printf(" %10s", codec.c_str());
  std::printf("\n");
  for (const auto& name : names) {
    const PaperDataset& d = runs.Dataset(name);
    uint32_t classes = runs.FpClasses(name);
    std::printf("%-24s %10u %10u %5zu %12u %8.3f | %12llu %8.3f |",
                name.c_str(), d.data.graph.num_nodes(),
                d.data.graph.num_edges(), d.data.alphabet.size(), classes,
                static_cast<double>(classes) / d.data.graph.num_nodes(),
                static_cast<unsigned long long>(d.paper.fp_classes),
                static_cast<double>(d.paper.fp_classes) / d.paper.nodes);
    for (const auto& codec : codecs) {
      const CodecRun& run = runs.Codec(name, codec);
      if (run.ok) {
        std::printf(" %10zu", run.bytes);
      } else {
        std::printf(" %10s", "n/a");
      }
    }
    std::printf("\n");
  }
}

void TablesOneToThree(Runs& runs) {
  std::printf(
      "Tables I-III: dataset statistics (stand-ins vs paper) and\n"
      "compressed bytes per paper codec\n");
  DatasetTable(runs, "Table I: network graphs", NetworkGraphNames());
  DatasetTable(runs, "Table II: RDF graphs", RdfGraphNames());
  DatasetTable(runs, "Table III: version graphs", VersionGraphNames());
}

// ---- Table IV: bpe under maxRank 2..8 -------------------------------

// The paper's finding: the best value is usually 2 or 4, the rank-4
// column is within ~1 bpe of the best everywhere, and large maxRank
// hurts.
void TableFour(Runs& runs) {
  const std::vector<std::string> graphs = {
      "Email-EuAll", "NotreDame", "CA-AstroPh",
      "CA-CondMat",  "CA-GrQc",   "Email-Enron"};
  const double paper[6][7] = {
      {6.66, 6.69, 6.42, 7.07, 7.33, 7.55, 7.36},
      {4.84, 4.90, 5.19, 5.14, 6.13, 7.10, 6.69},
      {16.94, 16.75, 16.77, 16.75, 17.44, 19.42, 18.36},
      {18.82, 17.73, 17.40, 18.47, 18.84, 20.26, 19.83},
      {13.65, 13.31, 13.20, 14.30, 14.91, 15.04, 14.93},
      {10.21, 10.74, 10.28, 10.79, 11.62, 13.29, 11.53}};

  std::printf("Table IV: bpe under maxRank 2..8 (ours / paper)\n");
  std::printf("%-14s", "graph");
  for (int r = 2; r <= 8; ++r) std::printf("      r=%d", r);
  std::printf("   best_r\n");
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    std::printf("%-14s", graphs[gi].c_str());
    double best = 1e18;
    int best_rank = 0;
    double bpes[7];
    for (int rank = 2; rank <= 8; ++rank) {
      double bpe = runs.Grepair(graphs[gi], MaxRank(rank)).bpe;
      bpes[rank - 2] = bpe;
      if (bpe < best) {
        best = bpe;
        best_rank = rank;
      }
      std::printf(" %8.2f", bpe);
    }
    std::printf("   %d\n", best_rank);
    std::printf("%-14s", "  (paper)");
    for (int r = 0; r < 7; ++r) std::printf(" %8.2f", paper[gi][r]);
    std::printf("\n");
    // Paper: "the best result was either achieved with a setting of 2
    // or with a value of 4"; high ranks only hurt. On a grammar-
    // incompressible stand-in the sweep is flat and the argmax is
    // noise, so a sub-0.5-bpe spread also counts as conforming.
    double worst = *std::max_element(bpes, bpes + 7);
    const char* ok_because = best_rank <= 4 ? "small rank wins"
                             : worst - best < 0.5
                                 ? "sweep flat, graph grammar-incompressible"
                                 : nullptr;
    std::string shape = ok_because != nullptr
                            ? std::string("OK: ") + ok_because
                            : std::string("MISMATCH");
    std::printf("  best at rank %d, rank4 delta %.2f bpe (shape %s)\n",
                best_rank, bpes[2] - best, shape.c_str());
    runs.ledger.Add(graphs[gi] + ".table4.best_rank", best_rank);
    runs.ledger.Add(graphs[gi] + ".table4.shape", shape);
  }
}

// ---- Table V: RDF graphs, gRePair vs k2-tree ------------------------

// Paper shape: gRePair always smaller; on the instance-types graphs it
// is orders of magnitude smaller (the star pattern collapses into a
// handful of rules). LM/HN do not apply to these labeled graphs.
void TableFive(Runs& runs) {
  const double paper_grepair[6] = {1271, 1, 3, 267, 30, 872};
  const double paper_k2[6] = {2731, 590, 938, 1119, 52, 988};

  std::printf("Table V: RDF graphs, size in KB (ours; paper in parens)\n");
  std::printf("%-24s %16s %16s %8s\n", "graph", "gRePair", "k2-tree",
              "ratio");
  auto names = RdfGraphNames();
  int wins = 0;
  int big_wins = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    size_t ours = runs.Codec(names[i], "grepair").bytes;
    size_t k2 = runs.Codec(names[i], "k2").bytes;
    double ours_kb = ours / 1024.0;
    double k2_kb = k2 / 1024.0;
    double ratio = ours_kb > 0 ? k2_kb / ours_kb : 0;
    if (ours < k2) ++wins;
    if (ratio > 20) ++big_wins;
    std::printf("%-24s %7.1f (%6.0f) %7.1f (%6.0f) %7.1fx\n",
                names[i].c_str(), ours_kb, paper_grepair[i], k2_kb,
                paper_k2[i], ratio);
  }
  std::printf("\nshape: gRePair smaller on %d/%zu (paper: 6/6); "
              "orders-of-magnitude on %d graphs "
              "(paper: the types graphs)\n",
              wins, names.size(), big_wins);
  runs.ledger.Add("rdf.table5.grepair_smaller", wins);
  runs.ledger.Add("rdf.table5.orders_of_magnitude", big_wins);
}

// ---- Table VI: version graphs, plus GRSHARD3 delta shipping --------

std::set<std::pair<uint32_t, uint32_t>> PairSet(const Hypergraph& g) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (const HEdge& e : g.edges()) {
    if (e.att.size() == 2) pairs.insert({e.att[0], e.att[1]});
  }
  return pairs;
}

// Ships 4 updates of a corpus twice — as full GRSHARD2 re-ships and as
// a GRSHARD3 delta chain — and reports the bytes each strategy moves.
// Churn per version is small relative to the corpus (the regime deltas
// are for: overlay runs cost ~12 raw bytes/edge against ~0.4 compressed
// bytes/edge, so a diff pays off only while cumulative churn stays a
// few percent of the edge set). The delta chain must beat the re-ships.
void DeltaShipping(Runs& runs) {
  const uint32_t kVersions = 5;  // base + 4 deltas
  const uint32_t kChurn = 40;    // edits per version
  GeneratedGraph gg = ErdosRenyi(6000, 30000, 41);
  const std::string key = gg.name + ".delta";
  const uint32_t n = gg.graph.num_nodes();
  std::set<std::pair<uint32_t, uint32_t>> truth = PairSet(gg.graph);

  TempDir tmp("paper_delta");
  if (!runs.Check(!tmp.path().empty(), "cannot create a temporary dir")) {
    return;
  }
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "4");
  options.Set("threads", "4");
  auto ok = [&](const Status& s) { return runs.Check(s.ok(), s.ToString()); };
  auto container_for =
      [&](const std::set<std::pair<uint32_t, uint32_t>>& pairs)
      -> std::vector<uint8_t> {
    Hypergraph g(n);
    for (const auto& p : pairs) g.AddSimpleEdge(p.first, p.second, 0);
    auto rep = codec->Compress(g, gg.alphabet, options);
    if (!ok(rep.status())) return {};
    auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.value().get());
    if (!runs.Check(sharded != nullptr,
                    "sharded:grepair did not return a ShardedRep")) {
      return {};
    }
    return api::WrapCodecPayload("sharded:grepair", sharded->SerializeV2());
  };

  std::string base_path = tmp.path() + "/v0.grc";
  auto base_bytes = container_for(truth);
  if (base_bytes.empty() ||
      !ok(WriteFileBytesAtomic(base_path, SpanOf(base_bytes)))) {
    return;
  }

  std::printf("\nGRSHARD3 delta shipping vs full re-ship "
              "(ER %u nodes / %zu edges, %u edits per version)\n",
              n, truth.size(), kChurn);
  std::printf("%-8s %12s %12s %8s %8s %8s\n", "version", "full bytes",
              "delta bytes", "ratio", "edits", "shards");
  runs.ledger.Add(key + ".base_edges", uint64_t{truth.size()});

  std::mt19937_64 rng(4242);
  uint64_t total_full = 0, total_delta = 0;
  std::vector<std::string> chain;
  std::string prev_path = base_path;
  for (uint32_t version = 1; version < kVersions; ++version) {
    std::vector<shard::EdgeEdit> edits;
    std::vector<std::pair<uint32_t, uint32_t>> live(truth.begin(),
                                                    truth.end());
    while (edits.size() < kChurn * 3 / 8) {  // ~15 deletes
      auto p = live[rng() % live.size()];
      if (truth.erase(p)) {
        edits.push_back(shard::EdgeEdit::Delete(p.first, p.second));
      }
    }
    while (edits.size() < kChurn) {  // ~25 adds
      uint32_t u = rng() % n, v = rng() % n;
      if (u != v && truth.insert({u, v}).second) {
        edits.push_back(shard::EdgeEdit::Add(u, v, 0));
      }
    }

    auto opened = api::OpenVersioned(base_path, chain);
    if (!ok(opened.status()) || !ok(opened.value()->ApplyEdits(edits))) {
      return;
    }
    auto prev = MmapFile::Open(prev_path);
    if (!ok(prev.status())) return;
    ByteSpan prev_span = prev.value()->span();
    auto delta = opened.value()->BuildDelta(
        HashBytes(prev_span.data, prev_span.size), prev_span.size);
    if (!ok(delta.status())) return;
    auto delta_bytes = shard::EncodeDeltaContainer(delta.value());
    std::string delta_path =
        tmp.path() + "/v" + std::to_string(version) + ".grs3";
    if (!ok(WriteFileBytesAtomic(delta_path, SpanOf(delta_bytes)))) return;
    chain.push_back(delta_path);
    prev_path = delta_path;

    uint64_t full = container_for(truth).size();
    total_full += full;
    total_delta += delta_bytes.size();
    std::printf("%-8u %12llu %12zu %7.1f%% %8zu %8zu\n", version,
                (unsigned long long)full, delta_bytes.size(),
                100.0 * (double)delta_bytes.size() / (double)full,
                edits.size(), delta.value().shards.size());
    const std::string v = key + ".v" + std::to_string(version);
    runs.ledger.Add(v + ".edits", uint64_t{edits.size()});
    runs.ledger.Add(v + ".full_bytes", full);
    runs.ledger.Add(v + ".delta_bytes", uint64_t{delta_bytes.size()});
    runs.ledger.Add(v + ".changed_shards",
                    uint64_t{delta.value().shards.size()});
  }
  std::printf("totals: full re-ship %llu bytes, delta chain %llu bytes "
              "(%.1f%%)\n",
              (unsigned long long)total_full,
              (unsigned long long)total_delta,
              total_full == 0 ? 0.0 : 100.0 * total_delta / total_full);
  runs.ledger.Add(key + ".total.full_bytes", total_full);
  runs.ledger.Add(key + ".total.delta_bytes", total_delta);
  runs.Check(total_delta < total_full,
             "the delta chain did not beat full re-ships");
}

// Paper shape: gRePair wins everywhere; Tic-Tac-Toe collapses to
// almost nothing (0.12 bpe vs 9.62 for k2). LM/HN apply to the
// unlabeled DBLP graphs only, as in the paper.
void TableSix(Runs& runs) {
  const double paper[4][4] = {{0.12, 9.62, -1, -1},
                              {9.06, 13.10, -1, -1},
                              {9.54, 15.78, 16.44, 16.65},
                              {13.39, 20.80, 19.32, 18.26}};
  const char* codecs[4] = {"grepair", "k2", "lm", "hn"};

  std::printf("Table VI: version graphs, bpe (ours; paper in parens)\n");
  std::printf("%-14s %18s %18s %18s %18s\n", "graph", "gRePair", "k2-tree",
              "LM", "HN");
  auto names = VersionGraphNames();
  int wins = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("%-14s", names[i].c_str());
    double best_other = 1e18;
    for (int c = 0; c < 4; ++c) {
      const CodecRun& run = runs.Codec(names[i], codecs[c]);
      char cell[64];
      if (!run.ok) {
        std::snprintf(cell, sizeof cell, "%9s %8s", "-", "(-)");
      } else if (paper[i][c] < 0) {
        std::snprintf(cell, sizeof cell, "%9.2f %8s", run.bpe, "(-)");
      } else {
        std::snprintf(cell, sizeof cell, "%9.2f (%6.2f)", run.bpe,
                      paper[i][c]);
      }
      std::printf(" %18s", cell);
      if (c > 0 && run.ok) best_other = std::min(best_other, run.bpe);
    }
    std::printf("\n");
    if (runs.Codec(names[i], "grepair").bpe < best_other) ++wins;
  }
  std::printf("\nshape: gRePair best on %d/%zu version graphs "
              "(paper: 4/4)\n", wins, names.size());
  runs.ledger.Add("version.table6.grepair_best", wins);
  DeltaShipping(runs);
}

// ---- Figure 10: bpe under node orders --------------------------------

// Paper shape: FP is best or near-best on most graphs; the orders
// differ little on RDF graphs (within ~0.5 bpe, Jamendo's natural-order
// exception aside) and version graphs benefit hugely from FP.
void FigureTen(Runs& runs) {
  // The paper's representative selection (Section IV-B2).
  const std::vector<std::string> graphs = {
      "CA-AstroPh", "Email-EuAll", "NotreDame",
      "Specific properties en", "Jamendo", "DBLP60-70", "Tic-Tac-Toe"};
  const NodeOrderKind orders[] = {NodeOrderKind::kNatural,
                                  NodeOrderKind::kBfs,
                                  NodeOrderKind::kRandom,
                                  NodeOrderKind::kFp0, NodeOrderKind::kFp};

  std::printf("Figure 10: bpe under node orders\n");
  std::printf("%-24s", "graph");
  for (auto order : orders) {
    std::printf(" %9s", NodeOrderKindName(order).c_str());
  }
  std::printf("  winner\n");
  for (const auto& name : graphs) {
    std::printf("%-24s", name.c_str());
    double best = 1e18;
    NodeOrderKind best_order = NodeOrderKind::kNatural;
    for (auto order : orders) {
      double bpe = runs.Grepair(name, Order(order)).bpe;
      std::printf(" %9.3f", bpe);
      if (bpe < best) {
        best = bpe;
        best_order = order;
      }
    }
    std::printf("  %s", NodeOrderKindName(best_order).c_str());
    if (runs.Grepair(name).bpe <= best * 1.05) {
      std::printf(" (fp within 5%%)");
    }
    std::printf("\n");
    runs.ledger.Add(name + ".fig10.winner", NodeOrderKindName(best_order));
  }
  std::printf("\nPaper shape: FP best or near-best; version graphs gain "
              "most from FP; RDF orders nearly tie.\n");
}

// ---- Figure 11: ~FP classes vs compression ---------------------------

// The paper's claim: no graph sits in the lower-right corner — few
// classes (relative to |V|) always means good compression (low bpe).
void FigureEleven(Runs& runs) {
  std::vector<std::string> names = NetworkGraphNames();
  for (const auto& n : RdfGraphNames()) names.push_back(n);
  for (const auto& n : VersionGraphNames()) names.push_back(n);

  std::printf("Figure 11: ~FP classes vs compression\n");
  std::printf("%-24s %10s %10s %10s %8s\n", "graph", "classes", "|V|",
              "cls/|V|", "bpe");
  bool corner_violated = false;
  for (const auto& name : names) {
    uint32_t classes = runs.FpClasses(name);
    uint32_t nodes = runs.Graph(name).graph.num_nodes();
    double ratio = static_cast<double>(classes) / nodes;
    double bpe = runs.Grepair(name).bpe;
    std::printf("%-24s %10u %10u %10.4f %8.3f\n", name.c_str(), classes,
                nodes, ratio, bpe);
    if (ratio < 0.05 && bpe > 10.0) corner_violated = true;
  }
  std::printf("\nlower-right corner (cls/|V| < 0.05 but bpe > 10): %s\n",
              corner_violated ? "VIOLATED (shape MISMATCH)"
                              : "empty (shape OK, matches paper)");
  runs.ledger.Add("all.fig11.corner",
                  std::string(corner_violated ? "VIOLATED" : "empty"));
}

// ---- Figure 12: network graphs, every paper codec --------------------

// Paper shape: gRePair beats the plain k2-tree on all graphs except
// NotreDame, but generally loses to LM and HN on network graphs
// (Email-EuAll and CA-GrQc being its exceptions). The codec set
// includes the adjacency-list RePair baseline the paper mentions.
void FigureTwelve(Runs& runs) {
  auto codecs = PaperCodecNames();
  std::printf("Figure 12: network graphs, bpe by paper codec\n");
  std::printf("%-14s", "graph");
  for (const auto& codec : codecs) std::printf(" %10s", codec.c_str());
  std::printf("   %s\n", "gRePair<=k2?");

  int grepair_beats_k2 = 0;
  int lm_or_hn_beats_grepair = 0;
  auto names = NetworkGraphNames();
  for (const auto& name : names) {
    std::map<std::string, CodecRun> r;
    for (const auto& codec : codecs) r[codec] = runs.Codec(name, codec);
    bool comparable = r["grepair"].ok && r["k2"].ok;
    bool beats_k2 = comparable && r["grepair"].bpe <= r["k2"].bpe + 1e-9;
    if (beats_k2) ++grepair_beats_k2;
    if (r["grepair"].ok && ((r["lm"].ok && r["lm"].bpe < r["grepair"].bpe) ||
                            (r["hn"].ok && r["hn"].bpe < r["grepair"].bpe))) {
      ++lm_or_hn_beats_grepair;
    }
    std::printf("%-14s", name.c_str());
    for (const auto& codec : codecs) {
      if (r[codec].ok) {
        std::printf(" %10.2f", r[codec].bpe);
      } else {
        std::printf(" %10s", "n/a");
      }
    }
    std::printf("   %s\n", comparable ? (beats_k2 ? "yes" : "no") : "n/a");
  }
  std::printf("\nshape: gRePair <= k2 on %d/%zu graphs (paper: 7/8); "
              "LM or HN beat gRePair on %d/%zu (paper: 6/8)\n",
              grepair_beats_k2, names.size(), lm_or_hn_beats_grepair,
              names.size());
  runs.ledger.Add("network.fig12.grepair_le_k2", grepair_beats_k2);
  runs.ledger.Add("network.fig12.lm_or_hn_beat_grepair",
                  lm_or_hn_beats_grepair);
}

// ---- Figure 13: n identical copies of a 5-edge graph -----------------

std::string Copies(uint32_t copies, Runs& runs) {
  std::string name = "copies" + std::to_string(copies);
  runs.Dataset(name, [&] {
    return DisjointCopies(CycleWithDiagonal(), copies, name);
  });
  return name;
}

// Paper shape (log-log): gRePair's size stays nearly flat ("exponential
// compression": the grammar grows ~logarithmically) while k2-tree / LM
// / HN grow linearly with the input.
void FigureThirteen(Runs& runs) {
  std::printf("Figure 13: n identical copies of a 5-edge graph, "
              "output bytes\n");
  std::printf("%6s %9s %9s %9s %9s %9s\n", "copies", "edges", "gRePair",
              "k2-tree", "LM", "HN");
  size_t first_grepair = 0, last_grepair = 0;
  size_t first_k2 = 0, last_k2 = 0;
  for (uint32_t copies = 8; copies <= 4096; copies *= 2) {
    std::string name = Copies(copies, runs);
    size_t ours = runs.Codec(name, "grepair").bytes;
    size_t k2 = runs.Codec(name, "k2").bytes;
    std::printf("%6u %9u %9zu %9zu %9zu %9zu\n", copies,
                runs.Graph(name).graph.num_edges(), ours, k2,
                runs.Codec(name, "lm").bytes, runs.Codec(name, "hn").bytes);
    if (copies == 8) {
      first_grepair = ours;
      first_k2 = k2;
    }
    last_grepair = ours;
    last_k2 = k2;
  }
  double growth_grepair = static_cast<double>(last_grepair) / first_grepair;
  double growth_k2 = static_cast<double>(last_k2) / first_k2;
  const char* shape = growth_grepair * 10 < growth_k2 ? "OK" : "MISMATCH";
  std::printf("\n8 -> 4096 copies (512x input): gRePair grew %.1fx, "
              "k2-tree grew %.1fx\n", growth_grepair, growth_k2);
  std::printf("shape: %s (paper: gRePair orders of magnitude below the "
              "others, near-flat growth)\n", shape);
  runs.ledger.Add("copies.fig13.shape", std::string(shape));
}

// ---- Figure 14: a growing DBLP-like version graph --------------------

// Yearly snapshots 1960..1970 of a co-authorship network, unioned.
// Paper shape: with the FP order gRePair stays clearly below k2-tree as
// versions accumulate; BFS and random orders land much closer to it.
void FigureFourteen(Runs& runs) {
  const uint32_t kYears = 11;
  auto snapshots = CoAuthorshipHistory(kYears, 330, 120, 303);

  std::printf("Figure 14: DBLP-like version growth, bpe per order\n");
  std::printf("%5s %9s %9s %9s %9s %9s %9s\n", "year", "edges", "fp",
              "fp0", "bfs", "random", "k2-tree");
  const NodeOrderKind orders[4] = {NodeOrderKind::kFp, NodeOrderKind::kFp0,
                                   NodeOrderKind::kBfs,
                                   NodeOrderKind::kRandom};
  double fp_sum = 0, random_sum = 0, k2_sum = 0;
  for (uint32_t upto = 1; upto <= kYears; ++upto) {
    std::string name = "dblp60-" + std::to_string(60 + upto - 1);
    const GeneratedGraph& g = runs.Dataset(name, [&] {
      std::vector<const Hypergraph*> parts;
      for (uint32_t y = 0; y < upto; ++y) parts.push_back(&snapshots[y]);
      Alphabet alpha;
      alpha.Add("e", 2);
      return DisjointUnion(parts, alpha, name);
    }).data;
    std::printf("%5u %9u", 60 + upto - 1, g.graph.num_edges());
    for (auto order : orders) {
      std::printf(" %9.2f", runs.Grepair(name, Order(order)).bpe);
    }
    double k2 = runs.Codec(name, "k2").bpe;
    std::printf(" %9.2f\n", k2);
    fp_sum += runs.Grepair(name).bpe;
    random_sum += runs.Grepair(name, Order(NodeOrderKind::kRandom)).bpe;
    k2_sum += k2;
  }
  const char* shape =
      fp_sum < random_sum && fp_sum < k2_sum ? "OK" : "MISMATCH";
  std::printf("\nshape: avg fp %.2f vs random %.2f vs k2 %.2f — %s "
              "(paper: fp clearly best, random/bfs close to k2)\n",
              fp_sum / kYears, random_sum / kYears, k2_sum / kYears, shape);
  runs.ledger.Add("dblp60.fig14.shape", std::string(shape));
}

// ---- Ablations (Section III-A) ---------------------------------------

// The virtual-edge pass that connects disconnected components and
// reruns the replacement loop: critical for disjoint unions (version
// graphs, Figure 13), near-neutral on connected graphs.
void VirtualEdgeAblation(Runs& runs) {
  std::printf("Ablation: virtual edges (bpe without/with, saving, "
              "#virtual edges)\n");
  std::printf("%-18s %9s %9s %9s %10s\n", "graph", "without", "with",
              "saving", "virt");
  CompressOptions without;
  without.connect_components = false;
  for (const std::string& name :
       {Copies(512, runs), std::string("Tic-Tac-Toe"),
        std::string("DBLP60-70"), std::string("CA-GrQc"),
        std::string("Types ru")}) {
    const GrepairRun& with = runs.Grepair(name);
    double off = runs.Grepair(name, without).bpe;
    std::printf("%-18s %9.3f %9.3f %8.1f%% %10u\n", name.c_str(), off,
                with.bpe, 100.0 * (off - with.bpe) / (off > 0 ? off : 1),
                with.virtual_edges);
  }
}

// Rules and encoded size with pruning off, the paper's single
// bottom-up pass, and the fixpoint extension: pruning never hurts (a
// pruned grammar larger than the unpruned one fails the run) and
// usually trims a large fraction of the rules.
void PruningAblation(Runs& runs) {
  const std::vector<std::string> graphs = {
      "CA-GrQc", "Email-Enron", "Identica", "Jamendo", "Tic-Tac-Toe",
      "DBLP60-70"};
  std::printf("Ablation: pruning\n");
  std::printf("%-14s | %8s %9s | %8s %9s | %8s %9s\n", "graph",
              "rules", "bpe", "rules", "bpe", "rules", "bpe");
  std::printf("%-14s | %18s | %18s | %18s\n", "", "no pruning",
              "paper (1 pass)", "fixpoint");
  CompressOptions off;
  off.prune = false;
  CompressOptions fix;
  fix.prune_options.iterate_to_fixpoint = true;
  for (const auto& name : graphs) {
    const GrepairRun& r_off = runs.Grepair(name, off);
    const GrepairRun& r_paper = runs.Grepair(name);
    const GrepairRun& r_fix = runs.Grepair(name, fix);
    std::printf("%-14s | %8u %9.3f | %8u %9.3f | %8u %9.3f\n",
                name.c_str(), r_off.rules, r_off.bpe, r_paper.rules,
                r_paper.bpe, r_fix.rules, r_fix.bpe);
    runs.Check(r_paper.bytes <= r_off.bytes && r_fix.bytes <= r_off.bytes,
               name + ": pruning grew the encoded grammar");
  }
}

// ---- Section V: query evaluation over the grammar --------------------

// Theorem 6 promises (s,t)-reachability in O(|G|) — a speed-up
// proportional to the compression ratio over the O(|val(G)|) BFS on
// the decompressed graph. Proposition 4's neighborhood queries pay a
// slow-down instead. Measured on the default run's grammar, with the
// one-pass speed-up functions (components, degree extrema); every
// grammar answer must agree with val(G).
void QueriesOn(Runs& runs, const std::string& name) {
  const GeneratedGraph& gg = runs.Graph(name);
  auto decoded = DecodeGrammar(runs.Grepair(name).encoded);
  if (!runs.Check(decoded.ok(), name + ": " + decoded.status().ToString())) {
    return;
  }
  const SlhrGrammar& grammar = decoded.value();
  auto derived = Derive(grammar);
  if (!runs.Check(derived.ok(), name + ": " + derived.status().ToString())) {
    return;
  }
  const Hypergraph& val = derived.value();
  const std::string key = name + ".section5.";
  std::printf("\n-- %s: |g|=%llu |G|+|S|=%llu (ratio %.1fx)\n",
              name.c_str(),
              static_cast<unsigned long long>(gg.graph.TotalSize()),
              static_cast<unsigned long long>(grammar.TotalSize()),
              static_cast<double>(gg.graph.TotalSize()) /
                  grammar.TotalSize());

  // Reachability: grammar oracle vs BFS on val(G), per pair. Random
  // pairs are nearly all unreachable on these graphs, so as many pairs
  // (u, w) follow in which w is one or two out-edges from u.
  ReachabilityIndex reach(grammar);
  auto adj = DirectedAdjacency(val);
  Rng rng(1234);
  const int kQueries = 200;
  std::vector<std::pair<uint64_t, uint64_t>> queries;
  queries.reserve(2 * kQueries);
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back({rng.UniformBounded(val.num_nodes()),
                       rng.UniformBounded(val.num_nodes())});
  }
  std::vector<NodeId> sources;  // nodes with an out-edge
  for (NodeId u = 0; u < adj.size(); ++u) {
    if (!adj[u].empty()) sources.push_back(u);
  }
  for (int i = 0; i < kQueries && !sources.empty(); ++i) {
    NodeId u = sources[rng.UniformBounded(sources.size())];
    NodeId w = adj[u][rng.UniformBounded(adj[u].size())];
    if (rng.UniformBounded(2) == 1 && !adj[w].empty()) {
      w = adj[w][rng.UniformBounded(adj[w].size())];
    }
    queries.push_back({u, w});
  }
  std::vector<char> grammar_says, bfs_says;
  grammar_says.reserve(queries.size());
  bfs_says.reserve(queries.size());
  auto t0 = Clock::now();
  for (auto [u, v] : queries) {
    grammar_says.push_back(reach.Reachable(u, v) ? 1 : 0);
  }
  auto t1 = Clock::now();
  for (auto [u, v] : queries) {
    bfs_says.push_back(DirectedReachable(val, static_cast<NodeId>(u))[v] ? 1
                                                                         : 0);
  }
  auto t2 = Clock::now();
  const bool agree_reach = grammar_says == bfs_says;
  const int hits = std::count(bfs_says.begin(), bfs_says.end(), 1);
  double grammar_us = Seconds(t0, t1) * 1e6 / queries.size();
  double bfs_us = Seconds(t1, t2) * 1e6 / queries.size();
  std::printf("reachability: grammar %8.1f us/query, BFS on val %8.1f "
              "us/query, speed-up %.1fx (agree: %s, %d/%zu reachable)\n",
              grammar_us, bfs_us, bfs_us / grammar_us,
              agree_reach ? "yes" : "NO", hits, queries.size());
  runs.Check(agree_reach, name + ": grammar reachability disagrees with "
                                 "BFS on val(G)");
  runs.Check(hits > 0, name + ": no reachable pair among the queries");
  runs.ledger.Add(key + "reachable_pairs", hits);

  // Neighborhood queries: grammar vs direct adjacency.
  NeighborhoodIndex nbr(grammar);
  t0 = Clock::now();
  for (int i = 0; i < kQueries; ++i) nbr.OutNeighbors(queries[i].first);
  t1 = Clock::now();
  uint64_t total_direct = 0;
  for (int i = 0; i < kQueries; ++i) {
    total_direct += adj[queries[i].first].size();
  }
  t2 = Clock::now();
  (void)total_direct;
  std::printf("out-neighbors: grammar %8.2f us/query vs in-memory "
              "adjacency %8.3f us/query (expected slow-down; memo "
              "entries %llu, hits %llu)\n",
              Seconds(t0, t1) * 1e6 / kQueries,
              Seconds(t1, t2) * 1e6 / kQueries,
              (unsigned long long)nbr.memo_entries(),
              (unsigned long long)nbr.memo_hits());
  runs.ledger.Add(key + "memo_entries", uint64_t{nbr.memo_entries()});
  runs.ledger.Add(key + "memo_hits", uint64_t{nbr.memo_hits()});

  // One-pass speed-up functions vs brute force on val(G).
  t0 = Clock::now();
  uint64_t comps = CountConnectedComponents(grammar);
  auto extrema = ComputeDegreeExtrema(grammar);
  t1 = Clock::now();
  if (!runs.Check(extrema.ok(), name + ": degree extrema unavailable: " +
                                    extrema.status().ToString())) {
    return;
  }
  uint32_t comps_bf = 0;
  ConnectedComponents(val, &comps_bf);
  auto stats_bf = ComputeDegreeStats(val);
  t2 = Clock::now();
  bool agree = comps == comps_bf &&
               extrema.value().min_degree == stats_bf.min_degree &&
               extrema.value().max_degree == stats_bf.max_degree;
  std::printf("one-pass queries (components+degrees): grammar %.2f ms vs "
              "val(G) %.2f ms; components %llu/%u degrees [%llu,%llu]/"
              "[%u,%u] (agree: %s)\n",
              Seconds(t0, t1) * 1e3, Seconds(t1, t2) * 1e3,
              static_cast<unsigned long long>(comps), comps_bf,
              static_cast<unsigned long long>(extrema.value().min_degree),
              static_cast<unsigned long long>(extrema.value().max_degree),
              stats_bf.min_degree, stats_bf.max_degree,
              agree ? "yes" : "NO");
  runs.Check(agree, name + ": grammar components or degree extrema "
                           "disagree with val(G)");
  runs.ledger.Add(key + "components", comps);
  runs.ledger.Add(key + "min_degree", uint64_t{extrema.value().min_degree});
  runs.ledger.Add(key + "max_degree", uint64_t{extrema.value().max_degree});
}

void SectionFive(Runs& runs) {
  std::printf("Section V: query evaluation over the grammar\n");
  for (const char* name : kQueryGraphs) QueriesOn(runs, name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!ParseJsonArg(argc, argv, &json_path)) return 2;
  Runs runs;
  std::printf("LM baseline: zlib %s (its bytes are not in the ledger)\n\n",
              zlibVersion());
  void (*const sections[])(Runs&) = {
      TablesOneToThree, TableFour,      TableFive,
      TableSix,         FigureTen,      FigureEleven,
      FigureTwelve,     FigureThirteen, FigureFourteen,
      VirtualEdgeAblation, PruningAblation, SectionFive};
  for (size_t i = 0; i < std::size(sections); ++i) {
    if (i > 0) std::printf("\n");
    sections[i](runs);
  }
  std::printf("\n%d failed checks\n", runs.failures());
  if (!json_path.empty() && !runs.ledger.WriteTo(json_path)) return 1;
  return runs.failures() == 0 ? 0 : 1;
}
