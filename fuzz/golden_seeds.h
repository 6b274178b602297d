// Golden-path fixtures shared by the GTest mutation battery
// (tests/net_fuzz_test.cc), the other tests that need the same inputs,
// and the seed-corpus generator (fuzz/gen_corpus.cc), so the seeds the
// coverage-guided fuzzers start from are exactly the ones the always-on
// test fuzzing mutates.

#ifndef GREPAIR_FUZZ_GOLDEN_SEEDS_H_
#define GREPAIR_FUZZ_GOLDEN_SEEDS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/baselines/k2_compressor.h"
#include "src/net/frame.h"
#include "src/serve/stats.h"
#include "src/shard/delta_overlay.h"
#include "src/shard/sharded_codec.h"
#include "src/util/bit_stream.h"
#include "src/util/byte_io.h"
#include "src/util/elias.h"
#include "src/util/hashing.h"
#include "src/util/status.h"

namespace grepair {
namespace fuzz {

/// \brief `frame` with its version and type bytes replaced and its
/// checksum recomputed: a well-checksummed frame no conforming peer
/// sends (a retired GRNF v1 verb, an unknown type).
inline std::vector<uint8_t> WithFrameHeader(std::vector<uint8_t> frame,
                                            uint8_t version, uint8_t type) {
  frame[4] = version;
  frame[5] = type;
  frame.resize(frame.size() - net::kFrameChecksumBytes);
  PutU64LE(HashBytes(frame.data(), frame.size()), &frame);
  return frame;
}

/// \brief One golden frame per GRNF v2 verb, then one hand-built GRNF
/// v1 frame (version 1, type 1: the retired kGetDir, empty body) that
/// must fail closed.
inline std::vector<std::vector<uint8_t>> GoldenFrameSeeds() {
  std::vector<uint8_t> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  std::vector<uint8_t> hello;
  PutU32LE(net::kProtoV2, &hello);
  std::vector<uint8_t> hello_ok = hello;
  PutU32LE(3, &hello_ok);
  std::vector<uint8_t> open_corpus;
  PutU64LE(42, &open_corpus);
  open_corpus.push_back(3);
  open_corpus.insert(open_corpus.end(), {'w', 'e', 'b'});
  std::vector<uint8_t> corpus_dir;
  PutU64LE(42, &corpus_dir);
  PutU32LE(1, &corpus_dir);
  PutU64LE(128, &corpus_dir);
  corpus_dir.insert(corpus_dir.end(), payload.begin(), payload.end());
  std::vector<uint8_t> get_shard2;
  PutU64LE(43, &get_shard2);
  PutU32LE(1, &get_shard2);
  PutU32LE(2, &get_shard2);
  std::vector<uint8_t> shard2 = get_shard2;
  shard2.insert(shard2.end(), payload.begin(), payload.end());
  std::vector<uint8_t> get_stats;
  PutU64LE(44, &get_stats);
  serve::ServerStatsSnapshot stats;
  stats.connections = 2;
  stats.requests = 9;
  stats.bytes_sent = 512;
  stats.corpora.resize(1);
  stats.corpora[0].name = "web";
  stats.corpora[0].inner_name = "grepair";
  stats.corpora[0].num_nodes = 100;
  stats.corpora[0].requests = 8;
  stats.corpora[0].histogram_epoch = 8;
  stats.corpora[0].shard_hits = {5, 3};
  return {
      net::EncodeFrame(net::kHello, SpanOf(hello)),
      net::EncodeFrame(net::kHelloOk, SpanOf(hello_ok)),
      net::EncodeFrame(net::kOpenCorpus, SpanOf(open_corpus)),
      net::EncodeFrame(net::kCorpusDir, SpanOf(corpus_dir)),
      net::EncodeFrame(net::kGetShard2, SpanOf(get_shard2)),
      net::EncodeFrame(net::kShard2, SpanOf(shard2)),
      net::EncodeFrame(net::kGetStats, SpanOf(get_stats)),
      net::EncodeFrame(net::kStats,
                       SpanOf(serve::EncodeStatsBody(44, stats))),
      net::EncodeFrame(net::kError2,
                       SpanOf(net::EncodeErrorBody2(
                           99, Status::NotFound("seed error 2")))),
      WithFrameHeader(net::EncodeFrame(net::kHello, ByteSpan{}), 1, 1),
  };
}

/// \brief A small real GRSHARD2 container (BarabasiAlbert graph,
/// sharded:grepair codec) whose directory region seeds the directory
/// fuzzing. Dies on failure: these are fixed golden parameters, so a
/// failure is a build problem, not an input problem.
inline std::vector<uint8_t> GoldenContainerBytes(uint32_t nodes,
                                                 uint32_t shards,
                                                 uint64_t rng_seed) {
  GeneratedGraph gg = BarabasiAlbert(nodes, 3, rng_seed);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", std::to_string(shards));
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  if (!rep.ok()) {
    std::fprintf(stderr, "golden container compress failed: %s\n",
                 rep.status().ToString().c_str());
    std::abort();
  }
  return dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2();
}

/// \brief A grammar of `rules` rules whose val(G) doubles per rule: R0
/// has one internal node (none without `new_node`) and one terminal
/// edge, each Rj has two R(j-1) edges, and the start graph is one
/// R(rules-1) edge on two nodes. So val(G) has 2^(rules-1) + 2 nodes
/// (2 without `new_node`) and 2^(rules-1) edges: 65 rules overflow a
/// uint64_t count, 33 overflow NodeId.
inline SlhrGrammar DoublingGrammar(uint32_t rules, bool new_node = true) {
  Alphabet alphabet;
  const Label a = alphabet.Add("a", 2);
  SlhrGrammar grammar(std::move(alphabet), Hypergraph(2));
  for (uint32_t j = 0; j < rules; ++j) {
    const Label nt = grammar.AddNonterminal(2);
    Hypergraph rhs(j == 0 && new_node ? 3 : 2);
    if (j == 0) {
      rhs.AddSimpleEdge(0, new_node ? 2 : 1, a);
    } else {
      rhs.AddSimpleEdge(0, 1, nt - 1);
      rhs.AddSimpleEdge(0, 1, nt - 1);
    }
    rhs.SetExternal({0, 1});
    grammar.SetRule(nt, std::move(rhs));
  }
  grammar.mutable_start()->AddSimpleEdge(
      0, 1, grammar.NonterminalLabel(rules - 1));
  return grammar;
}

/// \brief A hand-built grammar whose start graph exercises the start
/// adjacency's merge: two terminal rank-2 labels a and b, a parallel
/// duplicate a edge (a dup patch), a and b on the same cell, a rank-3
/// terminal hyperedge, and rank-2 nonterminal start edges whose rule
/// derives one new node each.
inline SlhrGrammar StartAdjacencyGrammar() {
  Alphabet alphabet;
  const Label a = alphabet.Add("a", 2);
  const Label b = alphabet.Add("b", 2);
  const Label h = alphabet.Add("h", 3);
  SlhrGrammar grammar(std::move(alphabet), Hypergraph(5));
  const Label nt = grammar.AddNonterminal(2);
  Hypergraph rhs(3);
  rhs.AddSimpleEdge(0, 2, a);
  rhs.AddSimpleEdge(2, 1, b);
  rhs.SetExternal({0, 1});
  grammar.SetRule(nt, std::move(rhs));
  Hypergraph* start = grammar.mutable_start();
  start->AddSimpleEdge(0, 1, a);
  start->AddSimpleEdge(0, 1, a);  // parallel duplicate
  start->AddSimpleEdge(0, 1, b);  // same cell, other label
  start->AddSimpleEdge(3, 0, b);
  start->AddSimpleEdge(2, 3, a);
  start->AddSimpleEdge(1, 4, a);
  start->AddSimpleEdge(4, 2, b);
  start->AddEdge(h, {4, 0, 2});
  start->AddSimpleEdge(1, 2, nt);
  start->AddSimpleEdge(4, 3, nt);
  CanonicalizeStartEdgeOrder(&grammar, nullptr);
  return grammar;
}

/// \brief A grepair payload (CompressedGraph::Serialize's layout: u8
/// mapping flag, u64 LE grammar length, grammar bytes, mapping bytes)
/// around `grammar`, with no node mapping. Builds payloads that
/// CompressedGraph itself refuses to hold.
inline std::vector<uint8_t> GrammarPayload(const SlhrGrammar& grammar) {
  const std::vector<uint8_t> grammar_bytes = EncodeGrammar(grammar);
  std::vector<uint8_t> out = {0};
  PutU64LE(grammar_bytes.size(), &out);
  out.insert(out.end(), grammar_bytes.begin(), grammar_bytes.end());
  return out;
}

/// \brief A grepair payload in the retired v1 layout (grammar magic
/// "GRG1"), as written before the v2 bump: a 12-node graph of three
/// blocks, each one rank-3 and two rank-2 edges, with a node mapping.
/// No writer produces it any more; it is kept to prove that such
/// payloads fail closed with a "recompress" message.
inline std::vector<uint8_t> RetiredV1GrepairPayload() {
  return {0x01, 0x17, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x47, 0x52,
          0x47, 0x31, 0x55, 0x44, 0x63, 0x1C, 0xA4, 0xCA, 0x85, 0x30, 0xA6,
          0xC8, 0x65, 0x12, 0x51, 0x8C, 0x63, 0x49, 0x79, 0x0A, 0x20, 0x63,
          0x08, 0x09, 0x1A, 0xF7, 0x10, 0x91, 0x91, 0x55, 0x00};
}

/// \brief Seeds for the grepair payload parser: small real payloads
/// with and without a node mapping, the 65-rule DoublingGrammar, whose
/// val(G) counts wrap uint64_t, and StartAdjacencyGrammar, whose two
/// terminal rank-2 labels and dup patch reach the start adjacency's
/// label merge and edge multiplicity.
inline std::vector<std::vector<uint8_t>> GoldenGrepairPayloadSeeds() {
  std::vector<std::vector<uint8_t>> seeds;
  auto add = [&](const GeneratedGraph& gg, bool original_ids) {
    auto graph = CompressedGraph::FromGraph(gg.graph, gg.alphabet, {},
                                            original_ids);
    if (!graph.ok()) {
      std::fprintf(stderr, "golden payload compress failed: %s\n",
                   graph.status().ToString().c_str());
      std::abort();
    }
    seeds.push_back(graph.value().Serialize());
  };
  add(CoAuthorship(40, 60, 91), true);
  add(RdfTypes(60, 4, 92), true);
  add(DisjointCopies(CycleWithDiagonal(), 8, "copies8"), false);
  seeds.push_back(GrammarPayload(DoublingGrammar(65)));
  seeds.push_back(GrammarPayload(StartAdjacencyGrammar()));
  return seeds;
}

/// \brief Writes the 4 x 4 k = 2 k^2-tree holding (0,1) and (3,2)
/// under a header that claims `dim` rows and columns and `cells`
/// cells; honest at dim 4 and cells 2.
inline void PutSmallK2Tree(uint64_t dim, uint64_t cells, BitWriter* w) {
  EliasDeltaEncode(2, w);          // k
  EliasDeltaEncode(dim + 1, w);    // rows
  EliasDeltaEncode(dim + 1, w);    // cols
  EliasDeltaEncode(cells + 1, w);  // cells
  EliasDeltaEncode(4 + 1, w);      // |T|
  EliasDeltaEncode(8 + 1, w);      // |L|
  for (char bit : std::string("1001" "01000010")) w->PutBit(bit == '1');
}

/// \brief A k2 baseline payload (K2GraphRepresentation::Serialize's
/// layout: node count, label count, then per label a presence bit and
/// a k^2-tree) of one label whose tree is PutSmallK2Tree(dim, 2), under
/// a header claiming `nodes` nodes. Honest at nodes = dim = 4; a count
/// above 2^32 - 1 must fail closed instead of wrapping to 4.
inline std::vector<uint8_t> SmallK2Payload(uint64_t nodes, uint64_t dim) {
  BitWriter w;
  EliasDeltaEncode(nodes + 1, &w);
  EliasDeltaEncode(1 + 1, &w);
  w.PutBit(true);
  PutSmallK2Tree(dim, 2, &w);
  return w.TakeBytes();
}

/// \brief Seeds for the k2 payload parser: real payloads (unlabeled,
/// labeled, k = 3, edgeless), the honest small payload, and the two
/// headers whose counts wrap uint32_t to the small tree's 4.
inline std::vector<std::vector<uint8_t>> GoldenK2PayloadSeeds() {
  auto payload = [](const GeneratedGraph& gg, int k) {
    return K2GraphRepresentation::Build(gg.graph, gg.alphabet, k)
        .Serialize();
  };
  const uint64_t wrapped = (1ull << 32) + 4;
  return {payload(ErdosRenyi(60, 150, 94), 2),
          payload(RdfTypes(60, 4, 95), 2),
          payload(BarabasiAlbert(50, 3, 96), 3),
          payload(ErdosRenyi(12, 0, 93), 2),
          SmallK2Payload(4, 4),
          SmallK2Payload(wrapped, 4),
          SmallK2Payload(4, wrapped)};
}

/// \brief Dies with `what` and the status unless `s` is ok: the golden
/// deltas below are fixed inputs, so a failure is a build problem.
inline void GoldenOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

/// \brief Seeds for the GRSHARD3 delta-container parser, all bound to a
/// 3-shard BA(60) container: a real BuildDelta output carrying folded
/// shards plus residual adds and kills, one with residual edits and no
/// changed shard, and a correctly sealed one whose add run is out of
/// order (it must fail closed).
inline std::vector<std::vector<uint8_t>> GoldenDeltaSeeds() {
  const std::vector<uint8_t> base = GoldenContainerBytes(60, 3, 5);
  auto open = [&] {
    auto rep = shard::ShardedRep::Deserialize(base);
    GoldenOk(rep.status(), "golden delta base open");
    return std::move(rep).ValueOrDie();
  };
  auto graph = open()->Decompress();
  GoldenOk(graph.status(), "golden delta base decompress");
  const std::vector<HEdge>& edges = graph.value().edges();
  // Reversed edges keep both endpoints in one shard, so they can fold.
  auto edits = [&](size_t from) {
    std::vector<shard::EdgeEdit> out;
    for (size_t i = from; i < from + 3; ++i) {
      out.push_back(shard::EdgeEdit::Add(edges[i].att[1], edges[i].att[0]));
    }
    const HEdge& killed = edges[from + 3];
    out.push_back(shard::EdgeEdit::Delete(killed.att[0], killed.att[1]));
    return out;
  };
  auto delta_of = [&](shard::ShardedRep* rep) {
    auto delta = rep->BuildDelta(HashBytes(base.data(), base.size()),
                                 base.size());
    GoldenOk(delta.status(), "golden delta build");
    return std::move(delta).ValueOrDie();
  };

  auto folded = open();
  GoldenOk(folded->ApplyEdits(edits(0)), "golden delta edits");
  GoldenOk(folded->FoldOverlay(), "golden delta fold");
  GoldenOk(folded->ApplyEdits(edits(40)), "golden delta residual edits");
  shard::DeltaContainer with_shards = delta_of(folded.get());

  auto residual = open();
  GoldenOk(residual->ApplyEdits(edits(80)), "golden delta edits");
  shard::DeltaContainer residual_only = delta_of(residual.get());

  if (with_shards.shards.empty() || with_shards.adds.empty() ||
      with_shards.kills.empty() || !residual_only.shards.empty() ||
      residual_only.adds.size() < 2) {
    std::fprintf(stderr, "golden deltas lost their shape\n");
    std::abort();
  }
  shard::DeltaContainer unsorted = residual_only;
  std::swap(unsorted.adds[0], unsorted.adds[1]);
  return {shard::EncodeDeltaContainer(with_shards),
          shard::EncodeDeltaContainer(residual_only),
          shard::EncodeDeltaContainer(unsorted)};
}

/// \brief Edit texts for the `append --edits` reader: well-formed
/// streams (comments, blank and CRLF lines, labels, the u32 extremes),
/// then one line each of the shapes it must refuse: a field with
/// trailing text, an extra token, a number past u32, a labeled delete.
inline std::vector<std::string> GoldenEditTextSeeds() {
  return {
      "# two adds and a delete\na 17 4021\nd 9 12   # retract\n\na 3 4 7\n",
      "a 0 4294967295 4294967295\r\nd 4294967295 0\r\n",
      "\t a\t1\t2 \n  \n# only a comment\nd 1 2",
      "a 1 2x\n",
      "a 1 2 3 junk\n",
      "a 1 4294967296\n",
      "d 1 2 3\n",
  };
}

/// \brief Graph texts for the CLI's `compress` reader (ParseGraphText):
/// two written by WriteGraphText (a labeled RDF graph and a rank-3
/// hypergraph), a header-only empty graph, loose whitespace with CRLF,
/// then one each of the shapes it must refuse: a bad magic, a rank-0
/// label, an unknown edge label, a node past the count, a node attached
/// twice (restriction 1) and an edge list cut short.
inline std::vector<std::string> GoldenGraphTextSeeds() {
  std::vector<std::string> seeds;
  auto written = [&](const Hypergraph& g, const Alphabet& alphabet) {
    std::ostringstream out;
    WriteGraphText(g, alphabet, out);
    seeds.push_back(out.str());
  };
  GeneratedGraph rdf = RdfEntities(8, 3, 4, 1);
  written(rdf.graph, rdf.alphabet);
  Alphabet hyper;
  hyper.Add("e", 2);
  hyper.Add("t", 3);
  Hypergraph h(5);
  h.AddEdge(1, {0, 1, 2});
  h.AddEdge(1, {2, 3, 4});
  h.AddEdge(0, {4, 0});
  written(h, hyper);
  seeds.push_back("grepair-graph 0 0 0\n\n");
  seeds.push_back("\t grepair-graph  4 2 2\r\n2\t2\r\n0 0 1\r\n  1 2 3");
  seeds.push_back("grepair-grape 2 1 1\n2\n0 0 1\n");
  seeds.push_back("grepair-graph 2 1 1\n0\n0 0 1\n");
  seeds.push_back("grepair-graph 2 1 1\n2\n1 0 1\n");
  seeds.push_back("grepair-graph 2 1 1\n2\n0 0 2\n");
  seeds.push_back("grepair-graph 2 1 1\n2\n0 1 1\n");
  seeds.push_back("grepair-graph 3 2 1\n2\n0 0 1\n");
  return seeds;
}

/// \brief Tagged GRPCODEC frames for the file-open parser
/// (api::UnwrapShardedPayload): a real 2-shard sharded:grepair file,
/// which unwraps, then one each of the shapes it must refuse: a
/// sharded:k2 frame around an empty payload (a deleted inner codec), an
/// old single-codec tag, the untagged GRSHARD2 bytes, a frame cut
/// inside its name, a zero-length name and the bare magic.
inline std::vector<std::vector<uint8_t>> GoldenCodecFrameSeeds() {
  const std::vector<uint8_t> container = GoldenContainerBytes(40, 2, 7);
  std::vector<uint8_t> cut_name =
      api::WrapCodecPayload("sharded:grepair", {});
  cut_name.resize(cut_name.size() - 4);
  std::vector<uint8_t> magic(api::kCodecContainerMagic,
                             api::kCodecContainerMagic + 8);
  std::vector<uint8_t> empty_name = magic;
  empty_name.push_back(0);
  return {
      api::WrapCodecPayload("sharded:grepair", container),
      api::WrapCodecPayload("sharded:k2", {}),
      api::WrapCodecPayload("grepair", container),
      container,
      cut_name,
      empty_name,
      magic,
  };
}

}  // namespace fuzz
}  // namespace grepair

#endif  // GREPAIR_FUZZ_GOLDEN_SEEDS_H_
