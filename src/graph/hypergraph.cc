#include "src/graph/hypergraph.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace grepair {

Label Alphabet::Add(std::string name, int rank) {
  assert(rank >= 1 && rank <= 255);
  ranks_.push_back(static_cast<uint8_t>(rank));
  names_.push_back(std::move(name));
  return static_cast<Label>(ranks_.size() - 1);
}

Label Alphabet::AddSimpleLabels(int count) {
  Label first = static_cast<Label>(ranks_.size());
  for (int i = 0; i < count; ++i) {
    Add("l" + std::to_string(first + i), 2);
  }
  return first;
}

uint64_t Hypergraph::EdgeSize() const {
  uint64_t size = 0;
  for (const auto& e : edges_) {
    size += e.att.size() <= 2 ? 1 : e.att.size();
  }
  return size;
}

Status Hypergraph::Validate(const Alphabet& alphabet) const {
  for (EdgeId i = 0; i < edges_.size(); ++i) {
    const HEdge& e = edges_[i];
    if (e.label >= alphabet.size()) {
      return Status::InvalidArgument("edge " + std::to_string(i) +
                                     " has unknown label");
    }
    if (static_cast<int>(e.att.size()) != alphabet.rank(e.label)) {
      return Status::InvalidArgument(
          "edge " + std::to_string(i) + " rank " +
          std::to_string(e.att.size()) + " != label rank " +
          std::to_string(alphabet.rank(e.label)));
    }
    for (size_t a = 0; a < e.att.size(); ++a) {
      if (e.att[a] >= num_nodes_) {
        return Status::InvalidArgument("edge " + std::to_string(i) +
                                       " references missing node");
      }
      for (size_t b = a + 1; b < e.att.size(); ++b) {
        if (e.att[a] == e.att[b]) {
          return Status::InvalidArgument(
              "edge " + std::to_string(i) +
              " attaches the same node twice (restriction 1)");
        }
      }
    }
  }
  std::unordered_set<NodeId> seen;
  for (NodeId v : ext_) {
    if (v >= num_nodes_) {
      return Status::InvalidArgument("external node out of range");
    }
    if (!seen.insert(v).second) {
      return Status::InvalidArgument(
          "external sequence repeats a node (restriction 2)");
    }
  }
  return Status::OK();
}

bool Hypergraph::EqualUpToEdgeOrder(const Hypergraph& other) const {
  if (num_nodes_ != other.num_nodes_ || ext_ != other.ext_ ||
      edges_.size() != other.edges_.size()) {
    return false;
  }
  auto sorted = [](const std::vector<HEdge>& edges) {
    std::vector<HEdge> s = edges;
    std::sort(s.begin(), s.end(), [](const HEdge& a, const HEdge& b) {
      if (a.label != b.label) return a.label < b.label;
      return a.att < b.att;
    });
    return s;
  };
  return sorted(edges_) == sorted(other.edges_);
}

Incidence Hypergraph::BuildIncidence() const {
  // Counting sort by node, edge ids ascending. Node v's count goes to
  // offsets[v + 2], so after the prefix sum offsets[v + 1] is v's start
  // and doubles as its fill cursor; filling leaves it at v's end, which
  // is v + 1's start, and the spare last entry is dropped.
  Incidence inc;
  inc.offsets.assign(static_cast<size_t>(num_nodes_) + 2, 0);
  for (const HEdge& e : edges_) {
    for (NodeId v : e.att) ++inc.offsets[v + 2];
  }
  for (size_t i = 2; i < inc.offsets.size(); ++i) {
    inc.offsets[i] += inc.offsets[i - 1];
  }
  inc.edges.resize(inc.offsets.back());
  for (EdgeId i = 0; i < edges_.size(); ++i) {
    for (NodeId v : edges_[i].att) inc.edges[inc.offsets[v + 1]++] = i;
  }
  inc.offsets.pop_back();
  return inc;
}

std::vector<uint32_t> Hypergraph::Degrees() const {
  std::vector<uint32_t> deg(num_nodes_, 0);
  for (const auto& e : edges_) {
    for (NodeId v : e.att) ++deg[v];
  }
  return deg;
}

Hypergraph BuildSimpleGraph(uint32_t num_nodes,
                            std::vector<std::array<uint32_t, 3>> triples) {
  Hypergraph g(num_nodes);
  // Exact dedup: (u,v) pair -> labels already present on that pair.
  std::unordered_map<uint64_t, std::vector<uint32_t>> seen;
  seen.reserve(triples.size() * 2);
  for (const auto& t : triples) {
    if (t[0] == t[1]) continue;  // self-loop, excluded by restriction (1)
    if (t[0] >= num_nodes || t[1] >= num_nodes) continue;
    uint64_t key = (static_cast<uint64_t>(t[0]) << 32) | t[1];
    std::vector<uint32_t>& labels = seen[key];
    if (std::find(labels.begin(), labels.end(), t[2]) != labels.end()) {
      continue;  // duplicate triple
    }
    labels.push_back(t[2]);
    g.AddSimpleEdge(t[0], t[1], t[2]);
  }
  return g;
}

Alphabet InferAlphabet(const Hypergraph& g) {
  Label max_label = 0;
  for (const HEdge& e : g.edges()) max_label = std::max(max_label, e.label);
  std::vector<int> ranks(static_cast<size_t>(max_label) + 1, -1);
  for (const HEdge& e : g.edges()) {
    if (ranks[e.label] < 0) ranks[e.label] = e.rank();
  }
  Alphabet alphabet;
  for (size_t l = 0; l < ranks.size(); ++l) {
    alphabet.Add("l" + std::to_string(l), ranks[l] < 0 ? 2 : ranks[l]);
  }
  return alphabet;
}

}  // namespace grepair
