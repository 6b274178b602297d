// Golden digests of the compressor's output bytes.
//
// Pins HashBytes(EncodeGrammar) and HashBytes(EncodeNodeMapping) for a
// fixed corpus under every combination of the pruning, virtual-edge and
// node-mapping options, as two digests per case: one over the grammar
// bytes and one over the mapping bytes, so a change to one format shows
// which of the two moved. Any change to the compressor that alters a
// single output byte (rule choice, rule order, start-graph edge order,
// node numbering, origin ids) changes a digest, so refactors and
// optimizations of the pipeline can prove they are byte-identical.
// Every mapped run is also checked to reproduce its input exactly. A
// second corpus covers what the first lacks: wide terminal hyperedges
// (up to the rank-63 limit, with max_rank 4 and 63) and hub nodes that
// carry many labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/grepair/compressor.h"
#include "src/shard/partitioner.h"
#include "src/util/hashing.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

// A labeled graph mixing rank-3 hyperedges with simple edges: repeated
// blocks (so digrams recur) with a rotating label pattern.
GeneratedGraph HyperedgeGraph() {
  GeneratedGraph gg;
  gg.name = "hyper";
  Label tri = gg.alphabet.Add("tri", 3);
  Label a = gg.alphabet.Add("a", 2);
  Label b = gg.alphabet.Add("b", 2);
  constexpr uint32_t kBlocks = 40;
  gg.graph = Hypergraph(kBlocks * 4);
  for (uint32_t i = 0; i < kBlocks; ++i) {
    NodeId base = i * 4;
    gg.graph.AddEdge(tri, {base, base + 1, base + 2});
    gg.graph.AddSimpleEdge(base + 2, base + 3, i % 3 == 0 ? b : a);
    gg.graph.AddSimpleEdge(base + 3, (base + 4) % (kBlocks * 4), a);
  }
  return gg;
}

// The fixed corpus: four dblp version graphs cut into 16 shards each
// (the sharded ingest path compresses shards, not whole graphs), an
// RDF entity graph, Figure-13 copies and a hyperedge graph.
std::vector<GeneratedGraph> GoldenCorpus() {
  std::vector<GeneratedGraph> corpus;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    GeneratedGraph dblp = DblpVersions(12, 200, 100, seed, "dblp");
    shard::PartitionOptions options;
    options.num_shards = 16;
    auto partition = shard::PartitionGraph(dblp.graph, options);
    EXPECT_TRUE(partition.ok()) << partition.status().ToString();
    if (!partition.ok()) continue;
    for (size_t s = 0; s < partition.value().shards.size(); ++s) {
      GeneratedGraph part;
      part.name = "dblp" + std::to_string(seed) + "/shard" + std::to_string(s);
      part.graph = std::move(partition.value().shards[s].graph);
      part.alphabet = dblp.alphabet;
      corpus.push_back(std::move(part));
    }
  }
  corpus.push_back(RdfEntities(400, 12, 8, 7));
  corpus.push_back(DisjointCopies(CycleWithDiagonal(), 64, "fig13"));
  corpus.push_back(HyperedgeGraph());
  return corpus;
}

// Wide terminal hyperedges (ranks 16-63) in four block types: two
// rank-63 edges over the same 63 nodes (in the same and in rotated
// order, so a digram shares all 63 positions), then mixed ranks
// 16/31/48 overlapping on a few nodes. Blocks are chained by rank-2
// edges, so most hyperedge nodes are internal to their block.
GeneratedGraph WideHyperedgeGraph() {
  GeneratedGraph gg;
  gg.name = "wide";
  Label w16 = gg.alphabet.Add("w16", 16);
  Label w31 = gg.alphabet.Add("w31", 31);
  Label w48 = gg.alphabet.Add("w48", 48);
  Label w63a = gg.alphabet.Add("w63a", 63);
  Label w63b = gg.alphabet.Add("w63b", 63);
  Label link = gg.alphabet.Add("link", 2);
  constexpr uint32_t kBlocks = 24;
  constexpr uint32_t kBlockNodes = 64;
  gg.graph = Hypergraph(kBlocks * kBlockNodes);
  auto run = [](NodeId first, uint32_t len, uint32_t rotate) {
    Attachments att;
    for (uint32_t k = 0; k < len; ++k) {
      att.push_back(first + (k + rotate) % len);
    }
    return att;
  };
  for (uint32_t i = 0; i < kBlocks; ++i) {
    NodeId base = i * kBlockNodes;
    switch (i % 4) {
      case 0:
      case 1:
        gg.graph.AddEdge(w63a, run(base, 63, 0));
        gg.graph.AddEdge(w63b, run(base, 63, i % 4));
        break;
      case 2:
        gg.graph.AddEdge(w16, run(base, 16, 0));
        gg.graph.AddEdge(w16, run(base + 12, 16, 0));
        gg.graph.AddEdge(w31, run(base + 20, 31, 0));
        gg.graph.AddEdge(w48, run(base + 15, 48, 0));
        break;
      default:
        gg.graph.AddEdge(w31, run(base, 31, 0));
        gg.graph.AddEdge(w31, run(base + 30, 31, 0));
        gg.graph.AddEdge(w16, run(base + 45, 16, 0));
        break;
    }
    gg.graph.AddSimpleEdge(base, (base + kBlockNodes) % (kBlocks * kBlockNodes),
                           link);
    gg.graph.AddSimpleEdge(base + 62, base + 63, link);
  }
  return gg;
}

// One hub node carrying edges of many labels in both directions:
// entities draw 3-5 distinct labels from one of 12 templates over 48 labels,
// so the hub's incident edges span every label and new nonterminal
// edges keep landing on it.
GeneratedGraph LabelHubGraph() {
  GeneratedGraph gg;
  gg.name = "label-hub";
  constexpr int kLabels = 48;
  constexpr uint32_t kEntities = 600;
  Label first = gg.alphabet.AddSimpleLabels(kLabels);
  Rng rng(11);
  std::vector<std::vector<Label>> templates(12);
  for (auto& t : templates) {
    uint32_t fields = 3 + static_cast<uint32_t>(rng.UniformBounded(3));
    while (t.size() < fields) {
      Label l = first + static_cast<Label>(rng.UniformBounded(kLabels));
      if (std::find(t.begin(), t.end(), l) == t.end()) t.push_back(l);
    }
  }
  const NodeId hub = 0;
  gg.graph = Hypergraph(1 + 2 * kEntities);
  for (uint32_t e = 0; e < kEntities; ++e) {
    NodeId entity = 1 + 2 * e;
    const std::vector<Label>& t =
        templates[rng.UniformBounded(templates.size())];
    for (size_t f = 0; f < t.size(); ++f) {
      if (f % 2 == 0) {
        gg.graph.AddSimpleEdge(hub, entity, t[f]);
      } else {
        gg.graph.AddSimpleEdge(entity, hub, t[f]);
      }
    }
    gg.graph.AddSimpleEdge(entity, entity + 1, t[0]);
  }
  return gg;
}

// Corpus entries [0, kDblpParts) are the dblp shards.
constexpr size_t kDblpParts = 4 * 17;

enum class PruneMode { kOff, kPaper, kFixpoint };

struct GoldenCase {
  PruneMode prune;
  bool virtual_edges;
  bool mapping;
  // Folded over this case's inputs, in corpus order: EncodeGrammar's
  // bytes, and EncodeNodeMapping's (0 when the mapping is off).
  uint64_t grammar_digest;
  uint64_t mapping_digest;
  int max_rank = 4;
};

std::string CaseName(const GoldenCase& c) {
  const char* prune = c.prune == PruneMode::kOff     ? "prune=off"
                      : c.prune == PruneMode::kPaper ? "prune=paper"
                                                     : "prune=fixpoint";
  return std::string(prune) +
         (c.virtual_edges ? " virtual=on" : " virtual=off") +
         (c.mapping ? " mapping=on" : " mapping=off") +
         " max-rank=" + std::to_string(c.max_rank);
}

CompressOptions OptionsFor(const GoldenCase& c) {
  CompressOptions options;
  options.prune = c.prune != PruneMode::kOff;
  options.prune_options.iterate_to_fixpoint = c.prune == PruneMode::kFixpoint;
  options.connect_components = c.virtual_edges;
  options.track_node_mapping = c.mapping;
  options.max_rank = c.max_rank;
  return options;
}

uint64_t FoldBytes(const std::vector<uint8_t>& bytes, uint64_t h) {
  return HashBytes(bytes.data(), bytes.size(), h);
}

struct Digests {
  uint64_t grammar = 0;
  uint64_t mapping = 0;
};

// Compresses `gg` under `c` and folds the output bytes into *digests;
// a mapped run must also reproduce its input exactly.
void FoldCase(const GeneratedGraph& gg, const GoldenCase& c,
              Digests* digests) {
  auto result = Compress(gg.graph, gg.alphabet, OptionsFor(c));
  ASSERT_TRUE(result.ok()) << gg.name << ": " << result.status().ToString();
  const SlhrGrammar& grammar = result.value().grammar;
  digests->grammar = FoldBytes(EncodeGrammar(grammar), digests->grammar);
  if (!c.mapping) return;
  const std::vector<NodeId>& origins = result.value().origins;
  digests->mapping =
      FoldBytes(EncodeNodeMapping(grammar, origins), digests->mapping);
  auto original = DeriveOriginal(grammar, origins);
  ASSERT_TRUE(original.ok()) << gg.name << ": "
                             << original.status().ToString();
  EXPECT_TRUE(original.value().EqualUpToEdgeOrder(gg.graph))
      << gg.name << " under " << CaseName(c);
}

std::string Hex(uint64_t v) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(v));
  return hex;
}

void ExpectDigests(const std::vector<GoldenCase>& cases,
                   const std::vector<Digests>& digests) {
  for (size_t k = 0; k < cases.size(); ++k) {
    EXPECT_EQ(digests[k].grammar, cases[k].grammar_digest)
        << CaseName(cases[k]) << " grammar digest "
        << Hex(digests[k].grammar);
    EXPECT_EQ(digests[k].mapping, cases[k].mapping_digest)
        << CaseName(cases[k]) << " mapping digest "
        << Hex(digests[k].mapping);
  }
}

TEST(CompressorGoldenTest, OutputBytesMatchPinnedDigests) {
  const std::vector<GeneratedGraph> corpus = GoldenCorpus();
  ASSERT_EQ(corpus.size(), kDblpParts + 3u);

  // Pinned digests: they change only when the compressor's output
  // changes on purpose (format, rule choice or numbering).
  const std::vector<GoldenCase> cases = {
      {PruneMode::kOff, false, false, 0x79d5a066ad566ef0ull, 0},
      {PruneMode::kOff, false, true, 0x20bb76dfa31b040aull,
       0xa95e711e01833165ull},
      {PruneMode::kOff, true, false, 0xa6bcc981015d9cdcull, 0},
      {PruneMode::kOff, true, true, 0x4b190ab199c26decull,
       0xf15c9f33b958a790ull},
      {PruneMode::kPaper, false, false, 0x598c6a58a54e9e3eull, 0},
      {PruneMode::kPaper, false, true, 0xc2d63bcc8c3588d2ull,
       0x8b6300302561e1d8ull},
      {PruneMode::kPaper, true, false, 0x1a90fcabc47f893bull, 0},
      {PruneMode::kPaper, true, true, 0xbc1cd0850018efceull,
       0xb47fbd04ecc278aaull},
      {PruneMode::kFixpoint, false, false, 0x6a5007a4640fe2d8ull, 0},
      {PruneMode::kFixpoint, false, true, 0x44bfc3452ad2076bull,
       0x428237c9e16dcd6aull},
      {PruneMode::kFixpoint, true, false, 0xef6d1a16e3bda13dull, 0},
      {PruneMode::kFixpoint, true, true, 0x5a136c7627c74b6bull,
       0xf4ffedbbad4ea720ull},
  };
  std::vector<Digests> digests(cases.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const GeneratedGraph& gg = corpus[i];
    // Each dblp shard runs under one option set (rotating, so every
    // set sees shards of all four seeds); the small graphs run under
    // all of them. Keeps the test fast in Debug and sanitizer builds.
    for (size_t k = 0; k < cases.size(); ++k) {
      if (i < kDblpParts && i % cases.size() != k) continue;
      FoldCase(gg, cases[k], &digests[k]);
    }
  }
  ExpectDigests(cases, digests);
}

TEST(CompressorGoldenTest, WideHyperedgesAndLabelHubsMatchPinnedDigests) {
  const std::vector<GeneratedGraph> corpus = {
      WideHyperedgeGraph(), LabelHubGraph(), RdfTypes(3000, 40, 5, 2.0)};
  const std::vector<GoldenCase> cases = {
      {PruneMode::kPaper, true, true, 0x794857625b1efb84ull,
       0xa12cc72b84ded3faull},
      {PruneMode::kOff, false, false, 0x27f32def3715cf66ull, 0, 63},
      {PruneMode::kFixpoint, true, true, 0x3ba5f4e7002bfae8ull,
       0x5af4a5755d675881ull, 63},
  };
  std::vector<Digests> digests(cases.size());
  for (const GeneratedGraph& gg : corpus) {
    for (size_t k = 0; k < cases.size(); ++k) {
      FoldCase(gg, cases[k], &digests[k]);
    }
  }
  ExpectDigests(cases, digests);
}

}  // namespace
}  // namespace grepair
