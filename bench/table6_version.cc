// Table VI: version graphs — gRePair vs k2-tree (all four) and LM/HN
// (the unlabeled DBLP graphs only, as in the paper), plus the
// GRSHARD3 follow-on the paper motivates: shipping each new version of
// an evolving corpus as a delta container instead of re-shipping the
// whole compressed archive.
//
// Paper shape: gRePair wins everywhere; Tic-Tac-Toe collapses to
// almost nothing (0.12 bpe vs 9.62 for k2). Delta shape: an update
// touching a small fraction of the edge set ships far fewer bytes as
// a GRSHARD3 delta than as a full re-ship of the container.
//
//   bench_table6_version [--json out.json]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>
#include <utility>

#include "bench/bench_util.h"
#include "src/shard/delta_overlay.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

using namespace grepair;
using namespace grepair::bench;

namespace {

std::set<std::pair<uint32_t, uint32_t>> PairSet(const Hypergraph& g) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (const HEdge& e : g.edges()) {
    if (e.att.size() == 2) pairs.insert({e.att[0], e.att[1]});
  }
  return pairs;
}

struct FileInfo {
  uint64_t hash = 0;
  uint64_t size = 0;
};

FileInfo HashFile(const std::string& path) {
  FileInfo info;
  auto file = MmapFile::Open(path);
  if (!file.ok()) return info;
  ByteSpan span = file.value()->span();
  info.hash = HashBytes(span.data, span.size);
  info.size = span.size;
  return info;
}

// Ships `kVersions` updates of a large corpus twice — as full GRSHARD2
// re-ships and as a GRSHARD3 delta chain — and reports the bytes each
// strategy moves. Churn per version is small relative to the corpus
// (the regime deltas are for: overlay runs cost ~12 raw bytes/edge
// against ~0.4 compressed bytes/edge, so a diff pays off only while
// cumulative churn stays a few percent of the edge set).
int RunDeltaShipping(JsonWriter* json) {
  const uint32_t kVersions = 5;  // base + 4 deltas
  const uint32_t kChurn = 40;    // edits per version
  GeneratedGraph gg = ErdosRenyi(6000, 30000, 41);
  const uint32_t n = gg.graph.num_nodes();
  std::set<std::pair<uint32_t, uint32_t>> truth = PairSet(gg.graph);

  std::string dir = (std::filesystem::temp_directory_path() /
                     "grepair_table6_delta")
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "4");
  options.Set("threads", "4");

  auto container_for =
      [&](const std::set<std::pair<uint32_t, uint32_t>>& pairs)
      -> std::vector<uint8_t> {
    Hypergraph g(n);
    for (const auto& p : pairs) g.AddSimpleEdge(p.first, p.second, 0);
    auto rep = codec->Compress(g, gg.alphabet, options);
    if (!rep.ok()) return {};
    return api::WrapCodecPayload(
        "sharded:grepair",
        dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2());
  };

  std::string base_path = dir + "/v0.grc";
  auto base_bytes = container_for(truth);
  if (base_bytes.empty() ||
      !WriteFileBytesAtomic(base_path, SpanOf(base_bytes)).ok()) {
    std::fprintf(stderr, "cannot stage the base container\n");
    return 1;
  }

  std::printf("\nGRSHARD3 delta shipping vs full re-ship "
              "(ER %u nodes / %zu edges, %u edits per version)\n",
              n, truth.size(), kChurn);
  std::printf("%-8s %12s %12s %8s %8s %8s\n", "version", "full bytes",
              "delta bytes", "ratio", "edits", "shards");

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
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    shard::ShardedRep* sharded = opened.value().get();
    auto applied = sharded->ApplyEdits(edits);
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.ToString().c_str());
      return 1;
    }
    FileInfo prev = HashFile(prev_path);
    auto delta = sharded->BuildDelta(prev.hash, prev.size);
    if (!delta.ok()) {
      std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
      return 1;
    }
    auto delta_bytes = shard::EncodeDeltaContainer(delta.value());
    std::string delta_path =
        dir + "/v" + std::to_string(version) + ".grs3";
    if (!WriteFileBytesAtomic(delta_path, SpanOf(delta_bytes)).ok()) {
      std::fprintf(stderr, "cannot write %s\n", delta_path.c_str());
      return 1;
    }
    chain.push_back(delta_path);
    prev_path = delta_path;

    uint64_t full = container_for(truth).size();
    total_full += full;
    total_delta += delta_bytes.size();
    std::printf("%-8u %12llu %12zu %7.1f%% %8zu %8zu\n", version,
                (unsigned long long)full, delta_bytes.size(),
                100.0 * (double)delta_bytes.size() / (double)full,
                edits.size(), delta.value().shards.size());
  }

  double ratio = total_full == 0
                     ? 0.0
                     : (double)total_delta / (double)total_full;
  std::printf("totals: full re-ship %llu bytes, delta chain %llu bytes "
              "(%.1f%%)\n",
              (unsigned long long)total_full,
              (unsigned long long)total_delta, 100.0 * ratio);
  if (json != nullptr) {
    json->Add("delta_versions", (uint64_t)(kVersions - 1));
    json->Add("full_reship_bytes", total_full);
    json->Add("delta_chain_bytes", total_delta);
    json->Add("delta_over_full_ratio", ratio);
  }
  std::filesystem::remove_all(dir);
  // The delta chain must be a real saving, not a wash: the shape CI
  // tracks is "diffs beat re-ships on version graphs".
  if (total_delta >= total_full) {
    std::fprintf(stderr, "delta chain did not beat full re-ship\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  JsonWriter json;

  const double paper_grepair[4] = {0.12, 9.06, 9.54, 13.39};
  const double paper_k2[4] = {9.62, 13.10, 15.78, 20.80};
  const double paper_lm[4] = {-1, -1, 16.44, 19.32};
  const double paper_hn[4] = {-1, -1, 16.65, 18.26};

  std::printf("Table VI: version graphs, bpe (ours; paper in parens)\n");
  std::printf("%-14s %18s %18s %18s %18s\n", "graph", "gRePair", "k2-tree",
              "LM", "HN");
  auto names = VersionGraphNames();
  int wins = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    PaperDataset d = MakePaperDataset(names[i]);
    GrepairRun run = RunGrepair(d.data);
    double k2 = RunK2(d.data);
    bool labeled = d.data.alphabet.size() > 1;
    double lm = labeled ? -1 : RunLm(d.data);
    double hn = labeled ? -1 : RunHn(d.data);
    double best_other = k2;
    if (lm >= 0) best_other = std::min(best_other, lm);
    if (hn >= 0) best_other = std::min(best_other, hn);
    if (run.bpe < best_other) ++wins;
    json.Add(names[i] + "_grepair_bpe", run.bpe);
    json.Add(names[i] + "_k2_bpe", k2);
    auto cell = [](double v, double paper) {
      static char buf[64];
      if (v < 0) {
        std::snprintf(buf, sizeof buf, "%9s %8s", "-", "(-)");
      } else if (paper < 0) {
        std::snprintf(buf, sizeof buf, "%9.2f %8s", v, "(-)");
      } else {
        std::snprintf(buf, sizeof buf, "%9.2f (%6.2f)", v, paper);
      }
      return std::string(buf);
    };
    std::printf("%-14s %18s %18s %18s %18s\n", names[i].c_str(),
                cell(run.bpe, paper_grepair[i]).c_str(),
                cell(k2, paper_k2[i]).c_str(),
                cell(lm, paper_lm[i]).c_str(),
                cell(hn, paper_hn[i]).c_str());
  }
  std::printf("\nshape: gRePair best on %d/%zu version graphs "
              "(paper: 4/4)\n", wins, names.size());
  json.Add("grepair_wins", wins);

  int rc = RunDeltaShipping(&json);
  if (!json_path.empty() && !json.WriteTo(json_path)) rc = 1;
  return rc;
}
