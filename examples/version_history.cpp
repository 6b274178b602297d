// Version-graph scenario (Section IV-C3), served the GRSHARD3 way:
// keep ONE live compressed corpus and ship each update batch as a
// delta container instead of re-shipping the whole archive. The
// consumer opens base + deltas with api::OpenVersioned and sees the
// newest state; the bytes on the wire are the diff, not the corpus.
//
//   ./build/examples/version_history
//
// A mature co-authorship network is compressed once as a GRSHARD2
// base. Each "week" lands a small batch of new papers (2-4 author
// cliques) and a few retractions; the batch is applied through the
// overlay, encoded as v<i>.grs3 with BuildDelta, and compared against
// what a freshly recompressed re-ship of the corpus would cost. This
// is the regime deltas exist for: overlay runs cost ~12 raw bytes per
// edge against well under a byte per edge compressed, so a diff wins
// exactly while cumulative churn stays a few percent of the edge set.

#include <cstdio>
#include <filesystem>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/shard/delta_overlay.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

using namespace grepair;

namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet Pairs(const Hypergraph& g) {
  PairSet pairs;
  for (const HEdge& e : g.edges()) {
    if (e.att.size() == 2) pairs.insert({e.att[0], e.att[1]});
  }
  return pairs;
}

}  // namespace

int main() {
  const uint32_t kWeeks = 4;
  GeneratedGraph gg = CoAuthorship(3000, 2500, 99);
  const uint32_t n = gg.graph.num_nodes();
  PairSet truth = Pairs(gg.graph);

  std::string dir = (std::filesystem::temp_directory_path() /
                     "grepair_version_history")
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "4");

  auto container_for = [&](const PairSet& pairs) -> std::vector<uint8_t> {
    Hypergraph g(n);
    for (const auto& p : pairs) g.AddSimpleEdge(p.first, p.second, 0);
    auto rep = codec->Compress(g, gg.alphabet, options);
    if (!rep.ok()) return {};
    return api::WrapCodecPayload(
        "sharded:grepair",
        dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2());
  };

  // Week 0: compress once, ship the full container.
  auto base_bytes = container_for(truth);
  std::string base_path = dir + "/v0.grc";
  if (base_bytes.empty() ||
      !WriteFileBytesAtomic(base_path, SpanOf(base_bytes)).ok()) {
    std::fprintf(stderr, "cannot stage the base container\n");
    return 1;
  }
  std::printf("base: %u authors, %zu coauthor edges -> %zu-byte "
              "container, shipped once\n",
              n, truth.size(), base_bytes.size());

  std::mt19937_64 rng(2026);
  std::vector<std::string> chain;
  std::string prev_path = base_path;
  size_t delta_total = 0, reship_total = 0;
  for (uint32_t week = 1; week <= kWeeks; ++week) {
    // 10 new papers (each a clique over 2-4 existing authors) and 4
    // retracted collaborations.
    std::vector<shard::EdgeEdit> edits;
    for (int paper = 0; paper < 10; ++paper) {
      uint32_t authors = 2 + rng() % 3;
      std::vector<uint32_t> team;
      while (team.size() < authors) {
        uint32_t a = rng() % n;
        bool dup = false;
        for (uint32_t t : team) dup |= (t == a);
        if (!dup) team.push_back(a);
      }
      for (size_t i = 0; i < team.size(); ++i) {
        for (size_t j = i + 1; j < team.size(); ++j) {
          if (truth.insert({team[i], team[j]}).second) {
            edits.push_back(shard::EdgeEdit::Add(team[i], team[j], 0));
          }
        }
      }
    }
    std::vector<std::pair<uint32_t, uint32_t>> live(truth.begin(),
                                                    truth.end());
    for (int retraction = 0; retraction < 4; ++retraction) {
      auto p = live[rng() % live.size()];
      if (truth.erase(p)) {
        edits.push_back(shard::EdgeEdit::Delete(p.first, p.second));
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
    auto prev_file = MmapFile::Open(prev_path);
    if (!prev_file.ok()) {
      std::fprintf(stderr, "%s\n", prev_file.status().ToString().c_str());
      return 1;
    }
    ByteSpan span = prev_file.value()->span();
    auto delta = sharded->BuildDelta(HashBytes(span.data, span.size),
                                     span.size);
    if (!delta.ok()) {
      std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
      return 1;
    }
    auto delta_bytes = shard::EncodeDeltaContainer(delta.value());
    std::string delta_path = dir + "/v" + std::to_string(week) + ".grs3";
    auto wrote = WriteFileBytesAtomic(delta_path, SpanOf(delta_bytes));
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    chain.push_back(delta_path);
    prev_path = delta_path;

    size_t reship = container_for(truth).size();
    delta_total += delta_bytes.size();
    reship_total += reship;
    std::printf("week %u: %2zu edits -> %5zu-byte delta "
                "(re-ship would cost %zu bytes)\n",
                week, edits.size(), delta_bytes.size(), reship);
  }

  std::printf("weeks 1-%u totals: %zu delta bytes vs %zu re-ship bytes "
              "(%.1f%% of re-ship)\n",
              kWeeks, delta_total, reship_total,
              100.0 * (double)delta_total / (double)reship_total);

  // A consumer holding the base and the delta chain sees this week's
  // network, byte-exact against the ground truth.
  auto latest = api::OpenVersioned(base_path, chain);
  if (!latest.ok()) {
    std::fprintf(stderr, "%s\n", latest.status().ToString().c_str());
    return 1;
  }
  auto decoded = latest.value()->Decompress();
  if (!decoded.ok()) {
    std::fprintf(stderr, "%s\n", decoded.status().ToString().c_str());
    return 1;
  }
  bool agrees = Pairs(decoded.value()) == truth;
  std::printf("reopened base + %zu deltas: matches current truth: %s\n",
              chain.size(), agrees ? "yes" : "NO");

  std::filesystem::remove_all(dir);
  if (!agrees || delta_total >= reship_total) return 1;
  return 0;
}
