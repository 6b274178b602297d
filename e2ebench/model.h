// Uncompressed reference models the benchmark checks answers against.
//
// They are built from the generator's edge list, never from a decode of
// the compressed bytes, so a compressor bug that round-trips
// consistently through its own decoder still shows up as a wrong
// answer.

#ifndef GREPAIR_E2EBENCH_MODEL_H_
#define GREPAIR_E2EBENCH_MODEL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/rng.h"

namespace grepair {
namespace e2e {

/// \brief A graph's edges as sorted (label, source, target) triples:
/// what a full Decompress must reproduce.
inline std::vector<std::array<uint32_t, 3>> EdgeTriples(const Hypergraph& g) {
  std::vector<std::array<uint32_t, 3>> triples;
  triples.reserve(g.num_edges());
  for (const HEdge& e : g.edges()) {
    triples.push_back({e.label, e.att[0], e.att[1]});
  }
  std::sort(triples.begin(), triples.end());
  return triples;
}

/// \brief Out- and in-adjacency (sorted, duplicate-free) of a static
/// graph of rank-2 edges, in CSR form.
class AdjacencyModel {
 public:
  explicit AdjacencyModel(const Hypergraph& g) : n_(g.num_nodes()) {
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    pairs.reserve(g.num_edges());
    for (const HEdge& e : g.edges()) pairs.emplace_back(e.att[0], e.att[1]);
    Build(pairs, &out_off_, &out_);
    for (auto& p : pairs) std::swap(p.first, p.second);
    Build(pairs, &in_off_, &in_);
  }

  uint64_t num_nodes() const { return n_; }
  size_t num_pairs() const { return out_.size(); }

  bool OutMatches(uint64_t node, const std::vector<uint64_t>& answer) const {
    return Matches(out_off_, out_, node, answer);
  }
  bool InMatches(uint64_t node, const std::vector<uint64_t>& answer) const {
    return Matches(in_off_, in_, node, answer);
  }

  /// \brief Directed reachability by BFS over the out-adjacency.
  bool Reachable(uint64_t from, uint64_t to) const {
    if (from == to) return true;
    std::vector<uint8_t> seen(n_, 0);
    std::vector<uint32_t> frontier{static_cast<uint32_t>(from)};
    seen[from] = 1;
    while (!frontier.empty()) {
      uint32_t u = frontier.back();
      frontier.pop_back();
      for (uint64_t i = out_off_[u]; i < out_off_[u + 1]; ++i) {
        uint32_t v = out_[i];
        if (v == to) return true;
        if (!seen[v]) {
          seen[v] = 1;
          frontier.push_back(v);
        }
      }
    }
    return false;
  }

 private:
  void Build(std::vector<std::pair<uint32_t, uint32_t>> pairs,
             std::vector<uint64_t>* off, std::vector<uint32_t>* adj) const {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    off->assign(n_ + 1, 0);
    adj->reserve(pairs.size());
    for (const auto& [u, v] : pairs) {
      ++(*off)[u + 1];
      adj->push_back(v);
    }
    for (uint64_t i = 0; i < n_; ++i) (*off)[i + 1] += (*off)[i];
  }

  static bool Matches(const std::vector<uint64_t>& off,
                      const std::vector<uint32_t>& adj, uint64_t node,
                      const std::vector<uint64_t>& answer) {
    if (node + 1 >= off.size()) return false;
    uint64_t begin = off[node];
    if (answer.size() != off[node + 1] - begin) return false;
    for (size_t i = 0; i < answer.size(); ++i) {
      if (answer[i] != adj[begin + i]) return false;
    }
    return true;
  }

  uint64_t n_;
  std::vector<uint64_t> out_off_, in_off_;
  std::vector<uint32_t> out_, in_;
};

/// \brief Pair-level edge set of a mutable corpus, following the
/// overlay semantics: add(u, v) makes u -> v present, delete(u, v)
/// removes it whatever its label. Live pairs touching the "hot" id
/// range (ids >= hot_begin) and the rest are kept in two pools so
/// deletes can pick a random live edge of either kind.
class EdgeSetModel {
 public:
  EdgeSetModel(const Hypergraph& g, uint32_t hot_begin)
      : n_(g.num_nodes()), hot_begin_(hot_begin) {
    for (const HEdge& e : g.edges()) Add(e.att[0], e.att[1]);
  }

  uint64_t num_nodes() const { return n_; }
  size_t size() const { return pairs_.size(); }
  bool hot(uint32_t node) const { return node >= hot_begin_; }

  void Add(uint32_t u, uint32_t v) {
    uint64_t key = Key(u, v);
    if (!pairs_.insert(key).second) return;
    Pool& pool = hot(u) || hot(v) ? hot_pool_ : cold_pool_;
    pool.index[key] = pool.keys.size();
    pool.keys.push_back(key);
  }

  void Delete(uint32_t u, uint32_t v) {
    uint64_t key = Key(u, v);
    if (pairs_.erase(key) == 0) return;
    Pool& pool = hot(u) || hot(v) ? hot_pool_ : cold_pool_;
    size_t at = pool.index[key];
    uint64_t last = pool.keys.back();
    pool.keys[at] = last;
    pool.index[last] = at;
    pool.keys.pop_back();
    pool.index.erase(key);
  }

  /// \brief A uniformly chosen live pair from the hot (or cold) pool;
  /// false when that pool is empty.
  bool PickLive(bool from_hot, Rng* rng, uint32_t* u, uint32_t* v) const {
    const Pool& pool = from_hot ? hot_pool_ : cold_pool_;
    if (pool.keys.empty()) return false;
    uint64_t key = pool.keys[rng->UniformBounded(pool.keys.size())];
    *u = static_cast<uint32_t>(key >> 32);
    *v = static_cast<uint32_t>(key);
    return true;
  }

  bool OutMatches(uint64_t node, const std::vector<uint64_t>& answer) const {
    auto it = pairs_.lower_bound(node << 32);
    for (uint64_t target : answer) {
      if (target > UINT32_MAX || it == pairs_.end() ||
          *it != Key(static_cast<uint32_t>(node),
                                           static_cast<uint32_t>(target))) {
        return false;
      }
      ++it;
    }
    return it == pairs_.end() || (*it >> 32) != node;
  }

 private:
  struct Pool {
    std::vector<uint64_t> keys;
    std::unordered_map<uint64_t, size_t> index;
  };

  static uint64_t Key(uint32_t u, uint32_t v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  uint64_t n_;
  uint32_t hot_begin_;
  std::set<uint64_t> pairs_;
  Pool hot_pool_;
  Pool cold_pool_;
};

}  // namespace e2e
}  // namespace grepair

#endif  // GREPAIR_E2EBENCH_MODEL_H_
