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
// A third, format-independent digest per case covers what the bytes
// decode to: the terminal ranks, the rules, the start graph's edges in
// canonical order and the origins array. It moves only when the
// compressor's output changes, not when the bit format does.
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
#include "tests/graph_checks.h"

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
  // bytes, EncodeNodeMapping's (0 when the mapping is off), and the
  // decoded grammar and origins (StructureWords).
  uint64_t grammar_digest;
  uint64_t mapping_digest;
  uint64_t structure_digest;
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
  uint64_t structure = 0;
};

void AppendGraph(const Hypergraph& g, std::vector<uint64_t>* words) {
  words->push_back(g.num_nodes());
  words->push_back(g.num_edges());
  for (const HEdge& e : g.edges()) {
    words->push_back(e.label);
    words->push_back(e.att.size());
    words->insert(words->end(), e.att.begin(), e.att.end());
  }
}

// The grammar as the decoder returns it, plus the origins, flattened
// to words: terminal ranks, each rule's rhs in rule order (external
// nodes are 0..rank-1, so the node count fixes them), the start graph
// in its canonical edge order, then the origins.
std::vector<uint64_t> StructureWords(const SlhrGrammar& grammar,
                                     const std::vector<NodeId>& origins) {
  std::vector<uint64_t> words;
  words.push_back(grammar.num_terminals());
  for (Label l = 0; l < grammar.num_terminals(); ++l) {
    words.push_back(static_cast<uint64_t>(grammar.alphabet().rank(l)));
  }
  words.push_back(grammar.num_rules());
  for (uint32_t j = 0; j < grammar.num_rules(); ++j) {
    words.push_back(grammar.rhs_by_index(j).ext().size());
    AppendGraph(grammar.rhs_by_index(j), &words);
  }
  AppendGraph(WholeStartGraph(grammar), &words);
  words.push_back(origins.size());
  words.insert(words.end(), origins.begin(), origins.end());
  return words;
}

// Compresses `gg` under `c` and folds the output bytes into *digests;
// a mapped run must also reproduce its input exactly.
void FoldCase(const GeneratedGraph& gg, const GoldenCase& c,
              Digests* digests) {
  auto result = Compress(gg.graph, gg.alphabet, OptionsFor(c));
  ASSERT_TRUE(result.ok()) << gg.name << ": " << result.status().ToString();
  const SlhrGrammar& grammar = result.value().grammar;
  const std::vector<uint8_t> grammar_bytes = EncodeGrammar(grammar);
  digests->grammar = FoldBytes(grammar_bytes, digests->grammar);
  auto decoded = DecodeGrammar(grammar_bytes);
  ASSERT_TRUE(decoded.ok()) << gg.name << ": "
                            << decoded.status().ToString();
  const std::vector<NodeId>& origins = result.value().origins;
  const std::vector<uint64_t> words = StructureWords(decoded.value(), origins);
  digests->structure =
      HashBytes(reinterpret_cast<const uint8_t*>(words.data()),
                words.size() * sizeof(uint64_t), digests->structure);
  if (!c.mapping) return;
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
    EXPECT_EQ(digests[k].structure, cases[k].structure_digest)
        << CaseName(cases[k]) << " structure digest "
        << Hex(digests[k].structure);
  }
}

TEST(CompressorGoldenTest, OutputBytesMatchPinnedDigests) {
  const std::vector<GeneratedGraph> corpus = GoldenCorpus();
  ASSERT_EQ(corpus.size(), kDblpParts + 3u);

  // Pinned digests: the byte digests change when the compressor's
  // output or the bit format changes on purpose (format, rule choice or
  // numbering); the structure digests only on a change of output.
  const std::vector<GoldenCase> cases = {
      {PruneMode::kOff, false, false, 0xe9bbda54fa3e165cull, 0,
       0x418852079efda3dcull},
      {PruneMode::kOff, false, true, 0xe03a4c65f29a6708ull,
       0xf08cee8b7d2b792bull,
       0xf10beb0bb31ed27bull},
      {PruneMode::kOff, true, false, 0x6f51488b716af77dull, 0,
       0x60f1b3e0e14e3406ull},
      {PruneMode::kOff, true, true, 0xbaf26fa2b9df02e0ull,
       0xe8f4fa2b120b0ee5ull,
       0xbcacd3c395e49b06ull},
      {PruneMode::kPaper, false, false, 0xaaad39b75ab4f36dull, 0,
       0x19dc87fbdf5fa3e4ull},
      {PruneMode::kPaper, false, true, 0x449725a8c914df48ull,
       0xadd09d9e7e552826ull,
       0xb7fe159e49582108ull},
      {PruneMode::kPaper, true, false, 0x9e666ca9a0ef88aaull, 0,
       0xd568ab2d79790088ull},
      {PruneMode::kPaper, true, true, 0xae2c43e4b27778eaull,
       0x4dc2dc96911e08fcull,
       0xcdf055ecea9cad0dull},
      {PruneMode::kFixpoint, false, false, 0xbb792d42503a4199ull, 0,
       0x627b85620f88297cull},
      {PruneMode::kFixpoint, false, true, 0x44796923deaa441aull,
       0x86e92bb48b293696ull,
       0x605f97a646f51acbull},
      {PruneMode::kFixpoint, true, false, 0xb9846892fa853b5aull, 0,
       0x62a370fc6e8b50d7ull},
      {PruneMode::kFixpoint, true, true, 0x3fc1a3f8b7935481ull,
       0xcd3050973c5d7de2ull,
       0xb2cff594e583434dull},
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
      {PruneMode::kPaper, true, true, 0xb7912bb4c3f40a85ull,
       0xae0fee46a7216ee4ull,
       0xa5540dadd641cbd5ull},
      {PruneMode::kOff, false, false, 0x480b4e572aab4381ull, 0,
       0x80537a42e3221541ull, 63},
      {PruneMode::kFixpoint, true, true, 0x29efe90c4cfa460eull,
       0x2ffe2d45f7fc94e3ull,
       0x6b499ea3d39a633dull, 63},
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
