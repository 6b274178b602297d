#include "src/datasets/generators.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "src/util/rng.h"

namespace grepair {

namespace {

Alphabet SimpleAlphabet(uint32_t num_labels) {
  Alphabet a;
  a.AddSimpleLabels(static_cast<int>(num_labels));
  return a;
}

}  // namespace

GeneratedGraph ErdosRenyi(uint32_t num_nodes, uint32_t num_edges,
                          uint64_t seed, uint32_t num_labels) {
  Rng rng(seed);
  std::vector<std::array<uint32_t, 3>> triples;
  triples.reserve(num_edges * 11 / 10);
  // Oversample: BuildSimpleGraph drops self-loops and duplicates.
  for (uint32_t i = 0; i < num_edges * 11 / 10 + 8; ++i) {
    uint32_t u = static_cast<uint32_t>(rng.UniformBounded(num_nodes));
    uint32_t v = static_cast<uint32_t>(rng.UniformBounded(num_nodes));
    uint32_t l = static_cast<uint32_t>(rng.UniformBounded(num_labels));
    triples.push_back({u, v, l});
  }
  GeneratedGraph g;
  g.name = "erdos-renyi";
  g.alphabet = SimpleAlphabet(num_labels);
  g.graph = BuildSimpleGraph(num_nodes, std::move(triples));
  return g;
}

GeneratedGraph BarabasiAlbert(uint32_t num_nodes, uint32_t edges_per_node,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<uint32_t, 3>> triples;
  // Repeated-endpoint list implements preferential attachment.
  std::vector<uint32_t> endpoints;
  endpoints.reserve(static_cast<size_t>(num_nodes) * edges_per_node * 2);
  uint32_t start = edges_per_node + 1;
  for (uint32_t v = 0; v < start && v + 1 < num_nodes; ++v) {
    triples.push_back({v, v + 1, 0});
    endpoints.push_back(v);
    endpoints.push_back(v + 1);
  }
  for (uint32_t v = start; v < num_nodes; ++v) {
    for (uint32_t e = 0; e < edges_per_node; ++e) {
      uint32_t target =
          endpoints[rng.UniformBounded(endpoints.size())];
      if (target == v) target = (target + 1) % num_nodes;
      triples.push_back({v, target, 0});
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  GeneratedGraph g;
  g.name = "barabasi-albert";
  g.alphabet = SimpleAlphabet(1);
  g.graph = BuildSimpleGraph(num_nodes, std::move(triples));
  return g;
}

GeneratedGraph CoAuthorship(uint32_t num_authors, uint32_t papers,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<uint32_t, 3>> triples;
  std::vector<uint32_t> endpoints;  // preferential author selection
  endpoints.push_back(0);
  for (uint32_t p = 0; p < papers; ++p) {
    uint32_t team = 2 + static_cast<uint32_t>(rng.UniformBounded(4));
    std::vector<uint32_t> authors;
    for (uint32_t a = 0; a < team; ++a) {
      uint32_t author;
      if (rng.Bernoulli(0.35)) {
        author = endpoints[rng.UniformBounded(endpoints.size())];
      } else {
        author = static_cast<uint32_t>(rng.UniformBounded(num_authors));
      }
      authors.push_back(author);
      endpoints.push_back(author);
    }
    std::sort(authors.begin(), authors.end());
    authors.erase(std::unique(authors.begin(), authors.end()),
                  authors.end());
    // Clique over the paper's authors, directed low id -> high id (the
    // paper treats CA-* as directed edge lists).
    for (size_t i = 0; i < authors.size(); ++i) {
      for (size_t j = i + 1; j < authors.size(); ++j) {
        triples.push_back({authors[i], authors[j], 0});
        triples.push_back({authors[j], authors[i], 0});
      }
    }
  }
  GeneratedGraph g;
  g.name = "co-authorship";
  g.alphabet = SimpleAlphabet(1);
  g.graph = BuildSimpleGraph(num_authors, std::move(triples));
  return g;
}

GeneratedGraph HubNetwork(uint32_t num_nodes, uint32_t num_edges,
                          uint32_t num_hubs, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<uint32_t, 3>> triples;
  triples.reserve(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    uint32_t u, v;
    if (rng.Bernoulli(0.7)) {
      // Traffic touching a Zipf-popular hub.
      uint32_t hub = static_cast<uint32_t>(rng.Zipf(num_hubs, 1.1));
      uint32_t other = static_cast<uint32_t>(rng.UniformBounded(num_nodes));
      if (rng.Bernoulli(0.5)) {
        u = other;
        v = hub;
      } else {
        u = hub;
        v = other;
      }
    } else {
      u = static_cast<uint32_t>(rng.UniformBounded(num_nodes));
      v = static_cast<uint32_t>(rng.UniformBounded(num_nodes));
    }
    triples.push_back({u, v, 0});
  }
  GeneratedGraph g;
  g.name = "hub-network";
  g.alphabet = SimpleAlphabet(1);
  g.graph = BuildSimpleGraph(num_nodes, std::move(triples));
  return g;
}

GeneratedGraph RdfTypes(uint32_t instances, uint32_t num_types,
                        uint64_t seed, double mean_types) {
  Rng rng(seed);
  assert(mean_types >= 1.0);
  // Nodes: [0, num_types) are type objects, the rest are instances.
  uint32_t num_nodes = num_types + instances;
  std::vector<std::array<uint32_t, 3>> triples;
  triples.reserve(static_cast<size_t>(instances * mean_types) + 16);
  // Extra type edges follow a capped geometric with the right mean.
  double extra_prob = (mean_types - 1.0) / mean_types;
  for (uint32_t i = 0; i < instances; ++i) {
    uint32_t subject = num_types + i;
    uint32_t count = 1 + rng.GeometricCapped(1.0 - extra_prob, 6);
    count = std::min(count, num_types);
    // Multi-typed instances follow an ontology *chain* (type, parent,
    // grandparent, ...), as in DBpedia's class hierarchy: instances of
    // the same leaf type share the identical type set, which keeps
    // |[~FP]| tiny — the property the paper's "Types de with en" graph
    // exhibits (335 classes over 1.8M edges) and that gRePair exploits.
    // Popular Zipf ranks map to high ids so their ancestor chains are
    // long enough for the requested depth.
    uint32_t leaf = num_types - 1 -
                    static_cast<uint32_t>(rng.Zipf(num_types, 1.05));
    uint32_t type = leaf;
    for (uint32_t c = 0; c < count; ++c) {
      triples.push_back({subject, type, 0});
      if (type == 0) break;
      type /= 2;  // parent in the implicit binary hierarchy
    }
  }
  GeneratedGraph g;
  g.name = "rdf-types";
  g.alphabet = SimpleAlphabet(1);
  g.graph = BuildSimpleGraph(num_nodes, std::move(triples));
  return g;
}

GeneratedGraph RdfEntities(uint32_t num_entities, uint32_t num_predicates,
                           uint32_t num_templates, uint64_t seed) {
  Rng rng(seed);
  // Template t = subset of predicates the entity type uses, each with a
  // choice of shared object pool or a fresh private object.
  struct Field {
    uint32_t predicate;
    bool shared;      // points into a small shared pool
    uint32_t pool;    // which shared pool
  };
  std::vector<std::vector<Field>> templates(num_templates);
  uint32_t num_pools = std::max<uint32_t>(4, num_predicates);
  uint32_t max_extra_fields = std::min<uint32_t>(6, num_predicates);
  for (auto& t : templates) {
    uint32_t fields =
        2 + static_cast<uint32_t>(rng.UniformBounded(max_extra_fields));
    for (uint32_t f = 0; f < fields; ++f) {
      Field field;
      field.predicate =
          static_cast<uint32_t>(rng.UniformBounded(num_predicates));
      field.shared = rng.Bernoulli(0.4);
      field.pool = static_cast<uint32_t>(rng.UniformBounded(num_pools));
      t.push_back(field);
    }
  }
  const uint32_t pool_size = 24;
  uint32_t shared_base = 0;
  uint32_t entity_base = shared_base + num_pools * pool_size;
  std::vector<std::array<uint32_t, 3>> triples;
  uint32_t next_private = entity_base + num_entities;
  std::vector<std::array<uint32_t, 3>> private_edges;
  for (uint32_t e = 0; e < num_entities; ++e) {
    uint32_t subject = entity_base + e;
    const auto& t = templates[rng.Zipf(num_templates, 1.0)];
    for (const Field& f : t) {
      uint32_t object;
      if (f.shared) {
        object = shared_base + f.pool * pool_size +
                 static_cast<uint32_t>(rng.Zipf(pool_size, 1.0));
      } else {
        object = next_private++;
      }
      triples.push_back({subject, object, f.predicate});
    }
  }
  GeneratedGraph g;
  g.name = "rdf-entities";
  g.alphabet = SimpleAlphabet(num_predicates);
  g.graph = BuildSimpleGraph(next_private, std::move(triples));
  return g;
}

GeneratedGraph CycleWithDiagonal() {
  GeneratedGraph g;
  g.name = "cycle4+diag";
  g.alphabet = SimpleAlphabet(1);
  g.graph = Hypergraph(4);
  g.graph.AddSimpleEdge(0, 1, 0);
  g.graph.AddSimpleEdge(1, 2, 0);
  g.graph.AddSimpleEdge(2, 3, 0);
  g.graph.AddSimpleEdge(3, 0, 0);
  g.graph.AddSimpleEdge(0, 2, 0);
  return g;
}

GeneratedGraph DisjointCopies(const GeneratedGraph& unit, uint32_t copies,
                              const std::string& name) {
  std::vector<const Hypergraph*> parts(copies, &unit.graph);
  GeneratedGraph g = DisjointUnion(parts, unit.alphabet, name);
  return g;
}

GeneratedGraph DisjointUnion(const std::vector<const Hypergraph*>& parts,
                             const Alphabet& alphabet,
                             const std::string& name) {
  GeneratedGraph g;
  g.name = name;
  g.alphabet = alphabet;
  uint64_t total_nodes = 0;
  for (const Hypergraph* p : parts) total_nodes += p->num_nodes();
  g.graph = Hypergraph(static_cast<uint32_t>(total_nodes));
  uint32_t base = 0;
  for (const Hypergraph* p : parts) {
    for (const auto& e : p->edges()) {
      Attachments att = e.att;
      for (NodeId& v : att) v += base;
      g.graph.AddEdge(e.label, std::move(att));
    }
    base += p->num_nodes();
  }
  return g;
}

GeneratedGraph GamePositions(uint32_t num_positions, uint32_t nodes_per_pos,
                             uint32_t num_labels, uint32_t num_templates,
                             uint64_t seed, double perturb) {
  Rng rng(seed);
  // Build the templates: small labeled connected digraphs (deduplicated
  // through BuildSimpleGraph so positions stay simple).
  std::vector<Hypergraph> templates;
  for (uint32_t t = 0; t < num_templates; ++t) {
    std::vector<std::array<uint32_t, 3>> triples;
    // Spanning path keeps positions connected.
    for (uint32_t v = 0; v + 1 < nodes_per_pos; ++v) {
      triples.push_back(
          {v, v + 1, static_cast<uint32_t>(rng.UniformBounded(num_labels))});
    }
    uint32_t extra = nodes_per_pos / 2 +
                     static_cast<uint32_t>(rng.UniformBounded(3));
    for (uint32_t e = 0; e < extra; ++e) {
      uint32_t u = static_cast<uint32_t>(rng.UniformBounded(nodes_per_pos));
      uint32_t v = static_cast<uint32_t>(rng.UniformBounded(nodes_per_pos));
      triples.push_back(
          {u, v, static_cast<uint32_t>(rng.UniformBounded(num_labels))});
    }
    templates.push_back(BuildSimpleGraph(nodes_per_pos, std::move(triples)));
  }
  // Positions: a template, occasionally with one edge relabeled (and
  // re-deduplicated, since the relabel can collide with a parallel
  // edge).
  std::vector<Hypergraph> positions;
  positions.reserve(num_positions);
  for (uint32_t p = 0; p < num_positions; ++p) {
    Hypergraph h = templates[rng.Zipf(num_templates, 0.8)];
    if (rng.Bernoulli(perturb) && h.num_edges() > 0) {
      EdgeId e = static_cast<EdgeId>(rng.UniformBounded(h.num_edges()));
      h.mutable_edge(e).label =
          static_cast<Label>(rng.UniformBounded(num_labels));
      std::vector<std::array<uint32_t, 3>> triples;
      for (const auto& edge : h.edges()) {
        triples.push_back({edge.att[0], edge.att[1], edge.label});
      }
      h = BuildSimpleGraph(nodes_per_pos, std::move(triples));
    }
    positions.push_back(std::move(h));
  }
  std::vector<const Hypergraph*> parts;
  parts.reserve(positions.size());
  for (const auto& p : positions) parts.push_back(&p);
  GeneratedGraph g =
      DisjointUnion(parts, SimpleAlphabet(num_labels), "game-positions");
  return g;
}

std::vector<Hypergraph> CoAuthorshipHistory(uint32_t years,
                                            uint32_t authors_per_year,
                                            uint32_t papers_per_year,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Hypergraph> snapshots;
  std::vector<std::array<uint32_t, 3>> triples;
  std::vector<uint32_t> endpoints;
  endpoints.push_back(0);
  uint32_t num_authors = authors_per_year;  // year-0 population
  for (uint32_t y = 0; y < years; ++y) {
    for (uint32_t p = 0; p < papers_per_year; ++p) {
      uint32_t team = 2 + static_cast<uint32_t>(rng.UniformBounded(3));
      std::vector<uint32_t> authors;
      for (uint32_t a = 0; a < team; ++a) {
        uint32_t author;
        if (rng.Bernoulli(0.45)) {
          author = endpoints[rng.UniformBounded(endpoints.size())];
        } else {
          author = static_cast<uint32_t>(rng.UniformBounded(num_authors));
        }
        authors.push_back(author);
        endpoints.push_back(author);
      }
      std::sort(authors.begin(), authors.end());
      authors.erase(std::unique(authors.begin(), authors.end()),
                    authors.end());
      for (size_t i = 0; i < authors.size(); ++i) {
        for (size_t j = i + 1; j < authors.size(); ++j) {
          triples.push_back({authors[i], authors[j], 0});
        }
      }
    }
    snapshots.push_back(BuildSimpleGraph(num_authors, triples));
    num_authors += authors_per_year;
  }
  return snapshots;
}

GeneratedGraph DblpVersions(uint32_t num_versions, uint32_t authors_per_year,
                            uint32_t papers_per_year, uint64_t seed,
                            const std::string& name) {
  auto snapshots = CoAuthorshipHistory(num_versions, authors_per_year,
                                       papers_per_year, seed);
  std::vector<const Hypergraph*> parts;
  parts.reserve(snapshots.size());
  for (const auto& s : snapshots) parts.push_back(&s);
  return DisjointUnion(parts, SimpleAlphabet(1), name);
}

}  // namespace grepair
