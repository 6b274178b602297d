#include "src/graph/graph_io.h"

#include <array>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace grepair {

void WriteGraphText(const Hypergraph& g, const Alphabet& alphabet,
                    std::ostream& out) {
  out << "grepair-graph " << g.num_nodes() << " " << g.num_edges() << " "
      << alphabet.size() << "\n";
  for (Label l = 0; l < alphabet.size(); ++l) {
    if (l) out << " ";
    out << alphabet.rank(l);
  }
  out << "\n";
  for (const auto& e : g.edges()) {
    out << e.label;
    for (NodeId v : e.att) out << " " << v;
    out << "\n";
  }
}

Status SaveGraphText(const Hypergraph& g, const Alphabet& alphabet,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  WriteGraphText(g, alphabet, out);
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

Result<LoadedGraph> ParseGraphText(std::istream& in) {
  std::string magic;
  uint32_t num_nodes = 0, num_edges = 0, num_labels = 0;
  if (!(in >> magic >> num_nodes >> num_edges >> num_labels) ||
      magic != "grepair-graph") {
    return Status::Corruption("bad graph header");
  }
  LoadedGraph result;
  result.graph = Hypergraph(num_nodes);
  for (uint32_t l = 0; l < num_labels; ++l) {
    int rank = 0;
    if (!(in >> rank) || rank < 1 || rank > 255) {
      return Status::Corruption("bad label rank");
    }
    result.alphabet.Add("l" + std::to_string(l), rank);
  }
  for (uint32_t i = 0; i < num_edges; ++i) {
    Label label = 0;
    if (!(in >> label) || label >= num_labels) {
      return Status::Corruption("bad edge label at edge " + std::to_string(i));
    }
    int rank = result.alphabet.rank(label);
    Attachments att;
    att.resize(rank);
    for (int a = 0; a < rank; ++a) {
      if (!(in >> att[a]) || att[a] >= num_nodes) {
        return Status::Corruption("bad attachment at edge " +
                                  std::to_string(i));
      }
    }
    result.graph.AddEdge(label, std::move(att));
  }
  GREPAIR_RETURN_IF_ERROR(result.graph.Validate(result.alphabet));
  return result;
}

Result<LoadedGraph> LoadGraphText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return ParseGraphText(in);
}

Result<LoadedGraph> LoadSnapEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::unordered_map<uint64_t, uint32_t> remap;
  std::vector<std::array<uint32_t, 3>> triples;
  std::string line;
  auto intern = [&](uint64_t raw) {
    auto [it, inserted] = remap.emplace(raw, static_cast<uint32_t>(remap.size()));
    return it->second;
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) {
      return Status::Corruption("bad edge line: " + line);
    }
    triples.push_back({intern(u), intern(v), 0});
  }
  LoadedGraph result;
  result.alphabet.Add("edge", 2);
  result.graph =
      BuildSimpleGraph(static_cast<uint32_t>(remap.size()), std::move(triples));
  return result;
}

}  // namespace grepair
