// RDF-graph compression scenario (Section IV-C2), on the public API.
//
// Builds a DBpedia-style instance-types graph (a star forest: many
// subjects, few popular type objects), compresses it with the gRePair
// codec from the registry, sizes it against the k^2-tree baseline, and
// answers triple-pattern queries (s type ?o / ?s type o) on the
// grammar — no decompression — checking them against the input.
//
//   ./build/examples/rdf_compression

#include <cstdio>
#include <set>
#include <vector>

#include "src/api/grepair_api.h"
#include "src/baselines/k2_compressor.h"

using namespace grepair;

int main() {
  // 40k instances over 40 types (Zipf popularity), like the paper's
  // DBpedia "mapping-based types" slices.
  GeneratedGraph rdf = RdfTypes(40000, 40, 2024);
  std::printf("RDF graph: %u nodes, %u triples\n", rdf.graph.num_nodes(),
              rdf.graph.num_edges());

  auto grepair_codec = api::CodecRegistry::Create("grepair").ValueOrDie();
  auto grepair_rep = grepair_codec->Compress(rdf.graph, rdf.alphabet);
  if (!grepair_rep.ok()) {
    std::fprintf(stderr, "compression failed\n");
    return 1;
  }
  size_t grepair_bytes = grepair_rep.value()->ByteSize();
  // The paper's k^2 column: a size-only baseline, built directly.
  size_t k2_bytes = K2CompressedSize(rdf.graph, rdf.alphabet);
  std::printf("gRePair: %zu bytes (%.3f bpe)   k2-tree: %zu bytes "
              "(%.2f bpe)   -> %.0fx smaller\n",
              grepair_bytes,
              BitsPerEdge(grepair_bytes, rdf.graph.num_edges()), k2_bytes,
              BitsPerEdge(k2_bytes, rdf.graph.num_edges()),
              static_cast<double>(k2_bytes) / grepair_bytes);

  // Triple patterns on the compressed representation. The gRePair codec
  // answers them on the *grammar* (Section V), translating original RDF
  // dictionary ids via the tracked psi' mapping. No edges are
  // materialized.
  uint64_t subject = 40 + 12345;  // some instance
  auto grepair_types = grepair_rep.value()->OutNeighbors(subject);
  if (!grepair_types.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  std::printf("(s, type, ?o) for s=%llu: %zu type(s), first = %llu\n",
              static_cast<unsigned long long>(subject),
              grepair_types.value().size(),
              grepair_types.value().empty()
                  ? 0ull
                  : static_cast<unsigned long long>(
                        grepair_types.value()[0]));

  uint64_t type = grepair_types.value().empty()
                      ? 0
                      : grepair_types.value()[0];
  auto members = grepair_rep.value()->InNeighbors(type);
  if (!members.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  std::printf("(?s, type, o) for that type: %zu instances\n",
              members.value().size());

  // Both answers must equal a scan of the uncompressed triples.
  std::set<uint64_t> types, instances;
  for (const HEdge& e : rdf.graph.edges()) {
    if (e.att[0] == subject) types.insert(e.att[1]);
    if (e.att[1] == type) instances.insert(e.att[0]);
  }
  bool agree =
      grepair_types.value() ==
          std::vector<uint64_t>(types.begin(), types.end()) &&
      members.value() ==
          std::vector<uint64_t>(instances.begin(), instances.end());
  std::printf("a scan of the input agrees on both queries: %s\n",
              agree ? "yes" : "NO");
  return agree ? 0 : 1;
}
