#include "src/baselines/hn.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "src/graph/graph_algos.h"
#include "src/k2tree/k2tree.h"
#include "src/util/elias.h"
#include "src/util/hashing.h"

namespace grepair {

HnCompressed HnCompress(const Hypergraph& g, const HnOptions& options) {
  // Mutable sorted out-adjacency; virtual nodes are appended past the
  // original id range.
  std::vector<std::vector<uint32_t>> adj(g.num_nodes());
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2) adj[e.att[0]].push_back(e.att[1]);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  HnCompressed out;
  out.original_nodes = g.num_nodes();

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Min-hash shingle of each out-neighborhood.
    uint64_t salt = Mix64(options.seed + 0x9E37u * (iter + 1));
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    for (uint32_t v = 0; v < adj.size(); ++v) {
      if (adj[v].size() < 2) continue;
      uint64_t shingle = ~0ull;
      for (uint32_t n : adj[v]) {
        shingle = std::min(shingle, Mix64(n ^ salt));
      }
      buckets[shingle].push_back(v);
    }

    bool extracted_any = false;
    std::vector<char> used(adj.size(), 0);
    for (auto& [shingle, members] : buckets) {
      if (members.size() < options.min_rows) continue;
      // Greedy biclique growth: keep candidates whose intersection with
      // the current common-neighbor set C preserves the saving.
      std::vector<uint32_t> sources;
      std::vector<uint32_t> common;
      for (uint32_t v : members) {
        if (used[v]) continue;
        if (sources.empty()) {
          sources.push_back(v);
          common = adj[v];
          continue;
        }
        std::vector<uint32_t> next;
        std::set_intersection(common.begin(), common.end(), adj[v].begin(),
                              adj[v].end(), std::back_inserter(next));
        if (next.size() >= 2 &&
            (sources.size() + 1) * next.size() >=
                sources.size() * common.size()) {
          sources.push_back(v);
          common = std::move(next);
        }
      }
      if (sources.size() < options.min_rows || common.size() < 2) continue;
      int64_t saving = static_cast<int64_t>(sources.size()) *
                           static_cast<int64_t>(common.size()) -
                       static_cast<int64_t>(sources.size()) -
                       static_cast<int64_t>(common.size());
      if (saving < options.min_saving) continue;

      // Extract: virtual node w with S -> w -> C.
      uint32_t w = static_cast<uint32_t>(adj.size());
      adj.push_back(common);
      for (uint32_t s : sources) {
        std::vector<uint32_t> rest;
        std::set_difference(adj[s].begin(), adj[s].end(), common.begin(),
                            common.end(), std::back_inserter(rest));
        rest.insert(std::upper_bound(rest.begin(), rest.end(), w), w);
        adj[s] = std::move(rest);
        used[s] = 1;
      }
      ++out.patterns;
      extracted_any = true;
    }
    if (!extracted_any) break;
  }

  out.total_nodes = static_cast<uint32_t>(adj.size());
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  for (uint32_t v = 0; v < adj.size(); ++v) {
    for (uint32_t n : adj[v]) cells.push_back({v, n});
  }
  out.residual_edges = cells.size();
  K2Tree tree =
      K2Tree::Build(out.total_nodes, out.total_nodes, cells, options.k);
  BitWriter w;
  EliasDeltaEncode(out.original_nodes + 1, &w);
  EliasDeltaEncode(out.total_nodes + 1, &w);
  tree.Serialize(&w);
  out.bytes = w.TakeBytes();
  return out;
}

Result<Hypergraph> HnDecompress(const HnCompressed& compressed) {
  BitReader r(compressed.bytes);
  uint64_t original = 0, total = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &original));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &total));
  if (original == 0 || total == 0) return Status::Corruption("bad header");
  --original;
  --total;
  if (original > total) {
    return Status::Corruption("more original than total nodes");
  }
  K2Tree::Cells tree;
  GREPAIR_RETURN_IF_ERROR(K2Tree::DecodeCells(&r, &tree));
  if (tree.num_rows != total || tree.num_cols != total) {
    return Status::Corruption("HN tree dimensions mismatch header");
  }

  // The keys come in level order, whose cells of one row already
  // ascend by column, so each row's list is sorted without a sort.
  std::vector<std::vector<uint32_t>> adj(total);
  for (uint64_t cell : tree.keys) {
    adj[cell >> 32].push_back(static_cast<uint32_t>(cell & 0xFFFFFFFFu));
  }
  // Expansion of a virtual node: the original nodes reachable from it
  // through virtual nodes. Virtual-to-virtual edges can form cycles
  // (a virtual node may serve as a source of a later pattern whose
  // target set contains an older virtual node), so we condense the
  // virtual subgraph with SCC and propagate expansions in reverse
  // topological order.
  const uint32_t num_virtual = static_cast<uint32_t>(total - original);
  std::vector<std::vector<NodeId>> vadj(num_virtual);
  for (uint32_t w = 0; w < num_virtual; ++w) {
    for (uint32_t n : adj[original + w]) {
      if (n >= original) vadj[w].push_back(n - static_cast<uint32_t>(original));
    }
  }
  auto scc = TarjanScc(vadj);
  // comp ids are in reverse topological order: an edge u->v implies
  // comp[u] >= comp[v], so ascending comp order visits successors first.
  std::vector<std::vector<uint32_t>> comp_members(scc.num_components);
  for (uint32_t w = 0; w < num_virtual; ++w) {
    comp_members[scc.comp[w]].push_back(w);
  }
  std::vector<std::vector<uint32_t>> comp_expansion(scc.num_components);
  for (uint32_t c = 0; c < scc.num_components; ++c) {
    std::vector<uint32_t>& exp = comp_expansion[c];
    for (uint32_t w : comp_members[c]) {
      for (uint32_t n : adj[original + w]) {
        if (n < original) {
          exp.push_back(n);
        } else {
          uint32_t nc = scc.comp[n - static_cast<uint32_t>(original)];
          if (nc != c) {
            exp.insert(exp.end(), comp_expansion[nc].begin(),
                       comp_expansion[nc].end());
          }
        }
      }
    }
    std::sort(exp.begin(), exp.end());
    exp.erase(std::unique(exp.begin(), exp.end()), exp.end());
  }
  std::vector<std::vector<uint32_t>> expansion(num_virtual);
  for (uint32_t w = 0; w < num_virtual; ++w) {
    expansion[w] = comp_expansion[scc.comp[w]];
  }

  Hypergraph g(static_cast<uint32_t>(original));
  for (uint32_t u = 0; u < original; ++u) {
    std::vector<uint32_t> targets;
    for (uint32_t n : adj[u]) {
      if (n < original) {
        targets.push_back(n);
      } else {
        const auto& sub = expansion[n - original];
        targets.insert(targets.end(), sub.begin(), sub.end());
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (uint32_t t : targets) g.AddSimpleEdge(u, t, 0);
  }
  return g;
}

}  // namespace grepair
