#include "src/baselines/lm.h"

#include <algorithm>
#include <cassert>

#include "src/baselines/deflate.h"
#include "src/util/bit_stream.h"
#include "src/util/elias.h"

namespace grepair {

LmCompressed LmCompress(const Hypergraph& g, uint32_t chunk_size) {
  assert(chunk_size >= 1 && chunk_size <= 64);
  LmCompressed out;
  out.num_nodes = g.num_nodes();
  out.chunk_size = chunk_size;

  // Sorted out-adjacency lists (duplicates collapse; rank-2 edges only).
  std::vector<std::vector<uint32_t>> adj(g.num_nodes());
  for (const auto& e : g.edges()) {
    if (e.att.size() == 2) adj[e.att[0]].push_back(e.att[1]);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    out.num_edges += list.size();
  }

  BitWriter w;
  for (uint32_t base = 0; base < g.num_nodes(); base += chunk_size) {
    uint32_t block = std::min(chunk_size, g.num_nodes() - base);
    // Merged ordered union of the block's lists.
    std::vector<uint32_t> merged;
    for (uint32_t i = 0; i < block; ++i) {
      merged.insert(merged.end(), adj[base + i].begin(),
                    adj[base + i].end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());

    EliasDeltaEncode(merged.size() + 1, &w);
    uint32_t prev = 0;
    for (size_t m = 0; m < merged.size(); ++m) {
      // Gap code (first element stores value + 1).
      EliasDeltaEncode(m == 0 ? merged[0] + 1 : merged[m] - prev, &w);
      prev = merged[m];
    }
    // Membership columns: one bit per (merged element, block row).
    for (uint32_t value : merged) {
      for (uint32_t i = 0; i < block; ++i) {
        const auto& list = adj[base + i];
        bool member =
            std::binary_search(list.begin(), list.end(), value);
        w.PutBit(member);
      }
    }
  }
  w.AlignToByte();
  std::vector<uint8_t> stream = w.TakeBytes();
  out.raw_stream_size = stream.size();
  out.deflated = DeflateBytes(stream);
  return out;
}

Result<Hypergraph> LmDecompress(const LmCompressed& compressed) {
  auto inflated =
      InflateBytes(compressed.deflated, compressed.raw_stream_size);
  if (!inflated.ok()) return inflated.status();
  BitReader r(inflated.value());

  Hypergraph g(compressed.num_nodes);
  for (uint32_t base = 0; base < compressed.num_nodes;
       base += compressed.chunk_size) {
    uint32_t block =
        std::min(compressed.chunk_size, compressed.num_nodes - base);
    uint64_t merged_size = 0;
    GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &merged_size));
    if (merged_size == 0) return Status::Corruption("bad merged size");
    --merged_size;
    // Each merged entry costs at least one bit in the stream; a larger
    // count is corrupt and would front-allocate attacker-chosen memory.
    if (merged_size > inflated.value().size() * 8) {
      return Status::Corruption("merged size exceeds stream");
    }
    std::vector<uint32_t> merged(merged_size);
    uint32_t prev = 0;
    for (uint64_t m = 0; m < merged_size; ++m) {
      uint64_t gap = 0;
      GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &gap));
      if (m == 0) {
        prev = static_cast<uint32_t>(gap - 1);
      } else {
        prev += static_cast<uint32_t>(gap);
      }
      if (prev >= compressed.num_nodes) {
        return Status::Corruption("neighbor out of range");
      }
      merged[m] = prev;
    }
    std::vector<std::vector<uint32_t>> lists(block);
    for (uint32_t value : merged) {
      for (uint32_t i = 0; i < block; ++i) {
        bool member = false;
        GREPAIR_RETURN_IF_ERROR(r.ReadBit(&member));
        if (member) lists[i].push_back(value);
      }
    }
    for (uint32_t i = 0; i < block; ++i) {
      for (uint32_t v : lists[i]) {
        g.AddSimpleEdge(base + i, v, 0);
      }
    }
  }
  return g;
}

}  // namespace grepair
