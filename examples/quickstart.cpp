// Quickstart for the public API (src/api/grepair_api.h): build a
// graph, compress it with the gRePair codec from the registry, query
// it without decompressing, serialize it and round-trip it back.
//
//   ./build/examples/quickstart
//
// Runs as a ctest smoke test, so this example cannot silently rot.

#include <cstdio>

#include "src/api/grepair_api.h"

using namespace grepair;

int main() {
  // A graph with obvious repeated structure: 50 triangles hanging off a
  // central hub, each triangle built from edges labeled a, b, c.
  Alphabet alphabet;
  Label a = alphabet.Add("a", 2);
  Label b = alphabet.Add("b", 2);
  Label c = alphabet.Add("c", 2);

  Hypergraph graph(1 + 3 * 50);  // hub + 50 triangles
  for (uint32_t t = 0; t < 50; ++t) {
    NodeId x = 1 + 3 * t, y = x + 1, z = x + 2;
    graph.AddSimpleEdge(0, x, a);  // hub -> triangle entry
    graph.AddSimpleEdge(x, y, b);
    graph.AddSimpleEdge(y, z, c);
    graph.AddSimpleEdge(z, x, b);
  }
  std::printf("input: %u nodes, %u edges, |g| = %llu\n", graph.num_nodes(),
              graph.num_edges(),
              static_cast<unsigned long long>(graph.TotalSize()));

  // Compress through the registry.
  auto codec = api::CodecRegistry::Create("grepair");
  if (!codec.ok()) {
    std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
    return 1;
  }
  auto rep = codec.value()->Compress(graph, alphabet);
  if (!rep.ok()) {
    std::fprintf(stderr, "compression failed: %s\n",
                 rep.status().ToString().c_str());
    return 1;
  }
  std::printf("grepair: %zu bytes (%.2f bits/edge)\n",
              rep.value()->ByteSize(),
              BitsPerEdge(rep.value()->ByteSize(), graph.num_edges()));

  // Query without decompressing: the hub's out-neighbors are the 50
  // triangle entry points (Proposition 4 of the paper).
  auto hub_out = rep.value()->OutNeighbors(0);
  auto reach = rep.value()->Reachable(0, graph.num_nodes() - 1);
  if (!hub_out.ok() || !reach.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  std::printf("hub out-degree (queried compressed): %zu; hub reaches "
              "last node: %s\n",
              hub_out.value().size(), reach.value() ? "yes" : "no");
  if (hub_out.value().size() != 50 || !reach.value()) {
    std::fprintf(stderr, "unexpected query results\n");
    return 1;
  }

  // Serialize, round-trip, and reconstruct the exact input (the psi'
  // node mapping rides along in the serialization by default).
  auto bytes = rep.value()->Serialize();
  auto back = codec.value()->Deserialize(bytes);
  if (!back.ok()) {
    std::fprintf(stderr, "%s\n", back.status().ToString().c_str());
    return 1;
  }
  auto restored = back.value()->Decompress();
  if (!restored.ok()) {
    std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
    return 1;
  }
  bool exact = restored.value().EqualUpToEdgeOrder(graph);
  std::printf("serialize -> deserialize -> decompress matches input: %s\n",
              exact ? "yes" : "NO");
  return exact ? 0 : 1;
}
