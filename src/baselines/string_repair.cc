#include "src/baselines/string_repair.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

#include "src/util/elias.h"

namespace grepair {

namespace {

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Doubly-linked sequence with lazily validated pair occurrence lists.
struct RePairState {
  std::vector<uint32_t> sym;
  std::vector<uint32_t> prev, next;
  std::vector<char> alive;
  std::unordered_map<uint64_t, uint32_t> count;
  std::unordered_map<uint64_t, std::vector<uint32_t>> positions;
  // Max-heap of (count snapshot, pair key); stale entries are skipped.
  std::priority_queue<std::pair<uint32_t, uint64_t>> heap;

  void AddPair(uint32_t i) {
    if (next[i] == ~0u) return;
    uint64_t key = PairKey(sym[i], sym[next[i]]);
    uint32_t c = ++count[key];
    positions[key].push_back(i);
    if (c >= 2) heap.push({c, key});
  }

  void DropPair(uint32_t i) {
    if (next[i] == ~0u) return;
    uint64_t key = PairKey(sym[i], sym[next[i]]);
    auto it = count.find(key);
    if (it != count.end() && it->second > 0) --it->second;
  }
};

}  // namespace

StringRePairResult StringRePair(const std::vector<uint32_t>& input,
                                uint32_t alphabet_size) {
  StringRePairResult result;
  result.alphabet_size = alphabet_size;
  const uint32_t n = static_cast<uint32_t>(input.size());
  if (n < 2) {
    result.sequence = input;
    return result;
  }

  RePairState st;
  st.sym = input;
  st.prev.resize(n);
  st.next.resize(n);
  st.alive.assign(n, 1);
  for (uint32_t i = 0; i < n; ++i) {
    st.prev[i] = i == 0 ? ~0u : i - 1;
    st.next[i] = i + 1 == n ? ~0u : i + 1;
  }
  for (uint32_t i = 0; i + 1 < n; ++i) st.AddPair(i);

  uint32_t next_symbol = alphabet_size;
  while (!st.heap.empty()) {
    auto [snapshot, key] = st.heap.top();
    st.heap.pop();
    auto cit = st.count.find(key);
    if (cit == st.count.end() || cit->second != snapshot ||
        snapshot < 2) {
      continue;  // stale
    }
    uint32_t a = static_cast<uint32_t>(key >> 32);
    uint32_t b = static_cast<uint32_t>(key & 0xFFFFFFFFu);
    uint32_t x = next_symbol++;
    result.rules.push_back({a, b});

    auto plist = std::move(st.positions[key]);
    st.positions.erase(key);
    st.count.erase(key);
    for (uint32_t i : plist) {
      // Validate: position may be stale or overlap an earlier
      // replacement in this batch.
      if (!st.alive[i] || st.sym[i] != a) continue;
      uint32_t j = st.next[i];
      if (j == ~0u || !st.alive[j] || st.sym[j] != b) continue;
      // Neighbors lose their old pairs.
      if (st.prev[i] != ~0u) st.DropPair(st.prev[i]);
      st.DropPair(j);
      // Merge: i becomes x, j dies.
      st.sym[i] = x;
      st.alive[j] = 0;
      st.next[i] = st.next[j];
      if (st.next[j] != ~0u) st.prev[st.next[j]] = i;
      // Neighbors gain new pairs.
      if (st.prev[i] != ~0u) st.AddPair(st.prev[i]);
      st.AddPair(i);
    }
  }

  // Alive positions keep their array order (replacements only merge
  // neighbors), so a plain scan reads the final sequence.
  for (uint32_t i = 0; i < n; ++i) {
    if (st.alive[i]) result.sequence.push_back(st.sym[i]);
  }
  return result;
}

std::vector<uint32_t> StringRePairExpand(const StringRePairResult& result) {
  std::vector<uint32_t> out;
  std::vector<uint32_t> stack;
  for (uint32_t s : result.sequence) {
    stack.push_back(s);
    while (!stack.empty()) {
      uint32_t top = stack.back();
      stack.pop_back();
      if (top < result.alphabet_size) {
        out.push_back(top);
      } else {
        auto [a, b] = result.rules[top - result.alphabet_size];
        stack.push_back(b);
        stack.push_back(a);
      }
    }
  }
  return out;
}

AdjRePairCompressed AdjListRePairCompress(const Hypergraph& g) {
  // Concatenated sorted adjacency lists; a unique separator per list
  // (symbol n + u) prevents pairs from spanning lists.
  std::vector<std::vector<uint32_t>> adj(g.num_nodes());
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2) adj[e.att[0]].push_back(e.att[1]);
  }
  std::vector<uint32_t> seq;
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    auto& list = adj[u];
    if (list.empty()) continue;
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    seq.insert(seq.end(), list.begin(), list.end());
    seq.push_back(g.num_nodes() + u);
  }
  AdjRePairCompressed out;
  out.num_nodes = g.num_nodes();
  out.repair = StringRePair(seq, 2 * g.num_nodes());
  return out;
}

Result<Hypergraph> AdjListRePairDecompress(
    const AdjRePairCompressed& compressed) {
  const uint32_t n = compressed.num_nodes;
  // Bound the expansion before materializing it: nested rules can blow
  // up exponentially (rule i = (i-1, i-1) doubles each level), so a
  // tiny hostile payload could otherwise OOM. The cap mirrors
  // DeriveOptions::max_edges plus one separator per node.
  const uint64_t limit = 500'000'000ull + n + 1;
  const auto& rules = compressed.repair.rules;
  const uint32_t alpha = compressed.repair.alphabet_size;
  std::vector<uint64_t> expanded_len(rules.size());
  auto symbol_len = [&](uint32_t s) {
    return s < alpha ? 1 : expanded_len[s - alpha];
  };
  for (size_t i = 0; i < rules.size(); ++i) {
    expanded_len[i] = std::min(
        symbol_len(rules[i].first) + symbol_len(rules[i].second),
        limit + 1);
  }
  uint64_t total = 0;
  for (uint32_t s : compressed.repair.sequence) {
    total = std::min(total + symbol_len(s), limit + 1);
  }
  if (total > limit) {
    return Status::Corruption("RePair expansion exceeds size limit");
  }
  std::vector<uint32_t> seq = StringRePairExpand(compressed.repair);
  Hypergraph g(n);
  std::vector<uint32_t> targets;
  for (uint32_t s : seq) {
    if (s < n) {
      targets.push_back(s);
    } else if (s < 2 * n) {
      uint32_t u = s - n;
      for (uint32_t t : targets) g.AddSimpleEdge(u, t, 0);
      targets.clear();
    } else {
      return Status::Corruption("RePair symbol out of range");
    }
  }
  if (!targets.empty()) {
    return Status::Corruption("adjacency list missing its separator");
  }
  return g;
}

std::vector<uint8_t> AdjRePairSerialize(const AdjRePairCompressed& c) {
  BitWriter w;
  EliasDeltaEncode(c.num_nodes + 1, &w);
  EliasDeltaEncode(c.repair.alphabet_size + 1, &w);
  EliasDeltaEncode(c.repair.rules.size() + 1, &w);
  for (const auto& [a, b] : c.repair.rules) {
    EliasDeltaEncode(a + 1, &w);
    EliasDeltaEncode(b + 1, &w);
  }
  EliasDeltaEncode(c.repair.sequence.size() + 1, &w);
  for (uint32_t s : c.repair.sequence) EliasDeltaEncode(s + 1, &w);
  return w.TakeBytes();
}

size_t AdjListRePairSizeBytes(const Hypergraph& g) {
  return AdjRePairSerialize(AdjListRePairCompress(g)).size();
}

}  // namespace grepair
