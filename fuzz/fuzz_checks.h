// Shared invariant checks for the untrusted-input parsers, used from
// two harnesses that must never drift apart:
//
//   * the libFuzzer targets in fuzz/*_fuzzer.cc (coverage-guided,
//     CI-smoked over the checked-in seed corpora, run long locally),
//   * the bounded-budget GTest batteries in tests/net_fuzz_test.cc and
//     tests/k2tree_test.cc (mutation fuzzing that runs in every ctest
//     invocation).
//
// Each check returns nullptr when every invariant holds and a static
// description of the first violated invariant otherwise; the fuzzer
// aborts on non-null (so the crash reproducer IS the counterexample)
// and the GTest battery turns the same message into a test failure.
// Memory safety itself is the sanitizers' job — these checks pin the
// semantic contract: parsers either succeed and uphold the documented
// invariants, or fail with a clean, non-empty corruption Status.

#ifndef GREPAIR_FUZZ_FUZZ_CHECKS_H_
#define GREPAIR_FUZZ_FUZZ_CHECKS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/largest_allocation.h"
#include "src/baselines/k2_compressor.h"
#include "src/api/container.h"
#include "src/graph/graph_io.h"
#include "src/k2tree/k2tree.h"
#include "src/net/frame.h"
#include "src/query/compressed_graph.h"
#include "src/serve/placement.h"
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

/// \brief GRNF wire-frame decode: ok frames carry a GRNF v2 type and
/// re-encode byte-identically; failures are non-empty kCorruption. A
/// kStats frame's body goes on through DecodeStatsBody under the same
/// contract: a decoded snapshot re-encodes byte-identically.
/// Returns nullptr or the violated invariant.
inline const char* CheckFrameParse(ByteSpan bytes) {
  size_t consumed = 0;
  auto frame = net::DecodeFrame(bytes, &consumed);
  if (!frame.ok()) {
    if (frame.status().code() != StatusCode::kCorruption) {
      return "frame decode failed with a code other than kCorruption";
    }
    if (frame.status().message().empty()) {
      return "frame decode failed with an empty status message";
    }
    return nullptr;
  }
  if (consumed > bytes.size) {
    return "frame decode claims to have consumed more bytes than given";
  }
  if (frame.value().type < net::kHello || frame.value().type > net::kError2) {
    return "decoded frame type is outside the known verb range";
  }
  auto reencoded =
      net::EncodeFrame(frame.value().type, SpanOf(frame.value().body));
  if (reencoded !=
      std::vector<uint8_t>(bytes.data, bytes.data + consumed)) {
    return "re-encoding a decoded frame did not reproduce its input bytes";
  }
  if (frame.value().type != net::kStats) return nullptr;
  uint64_t req_id = 0;
  auto stats = serve::DecodeStatsBody(SpanOf(frame.value().body), &req_id);
  if (!stats.ok()) {
    if (stats.status().code() != StatusCode::kCorruption) {
      return "stats body decode failed with a code other than kCorruption";
    }
    if (stats.status().message().empty()) {
      return "stats body decode failed with an empty status message";
    }
    return nullptr;
  }
  if (serve::EncodeStatsBody(req_id, stats.value()) != frame.value().body) {
    return "re-encoding a decoded stats body did not reproduce its bytes";
  }
  return nullptr;
}

/// \brief Whether the largest heap request since `probe.reset()` fits
/// `per_input_byte` bytes per byte of a `size`-byte input plus `slack`;
/// true when the binary has no probe (see largest_allocation.h).
inline bool AllocationWithin(size_t size, size_t per_input_byte,
                             size_t slack) {
  return !g_largest_allocation.installed() ||
         g_largest_allocation.largest() <= per_input_byte * size + slack;
}

/// \brief What one directory parse may allocate at once. A node map
/// costs at least one bit per 4-byte entry and grows by doubling past
/// its first reserve; a row and its map's vector header take fewer
/// bytes than the row does.
inline constexpr size_t kDirectoryBytesPerInputByte = 64;
inline constexpr size_t kDirectorySlackBytes = 4 << 10;

/// \brief GRSHARD2 directory parse: a successful parse must uphold the
/// invariants queries rely on (row/node-map agreement, strictly
/// increasing in-range node IDs, payload ranges confined to
/// [8, dir_off)); failures are non-empty kCorruption. Either way no
/// single allocation may exceed kDirectoryBytesPerInputByte per input
/// byte plus kDirectorySlackBytes.
inline const char* CheckDirectoryParse(ByteSpan dir, uint64_t dir_off) {
  if (g_largest_allocation.installed()) g_largest_allocation.reset();
  auto parsed = shard::ParseV2Directory(dir, dir_off);
  if (!AllocationWithin(dir.size, kDirectoryBytesPerInputByte,
                        kDirectorySlackBytes)) {
    return "a directory parse made an allocation its input does not bound";
  }
  if (!parsed.ok()) {
    if (parsed.status().code() != StatusCode::kCorruption) {
      return "directory parse failed with a code other than kCorruption";
    }
    if (parsed.status().message().empty()) {
      return "directory parse failed with an empty status message";
    }
    return nullptr;
  }
  const shard::ParsedDirectory& d = parsed.value();
  if (d.rows.size() != d.node_maps.size()) {
    return "directory row count disagrees with node-map count";
  }
  for (size_t i = 0; i < d.rows.size(); ++i) {
    if (d.rows[i].node_count != d.node_maps[i].size()) {
      return "directory node_count disagrees with the node map's length";
    }
    for (size_t k = 0; k < d.node_maps[i].size(); ++k) {
      if (d.node_maps[i][k] >= d.num_nodes) {
        return "node map contains an ID >= num_nodes";
      }
      if (k > 0 && d.node_maps[i][k - 1] >= d.node_maps[i][k]) {
        return "node map is not strictly increasing";
      }
    }
    if (d.rows[i].length > 0) {
      if (d.rows[i].offset < 8) {
        return "shard payload overlaps the container header";
      }
      if (d.rows[i].offset + d.rows[i].length > dir_off) {
        return "shard payload range reaches into the directory";
      }
    }
  }
  return nullptr;
}

/// \brief The GRSHARD2 directory fuzzer's input framing: the first 8
/// bytes are the little-endian dir_off the parser is told, the rest is
/// the directory region. Seeds (fuzz/gen_corpus.cc) use the same shape.
inline const char* CheckFramedDirectoryInput(const uint8_t* data,
                                             size_t size) {
  if (size < 8) return nullptr;  // not enough bytes for the dir_off
  uint64_t dir_off = 0;
  for (int i = 0; i < 8; ++i) {
    dir_off |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  return CheckDirectoryParse(ByteSpan(data + 8, size - 8), dir_off);
}

/// \brief `.grdir` sidecar parse (serve::ParseDirSidecar): failures are
/// non-empty kCorruption; a parsed sidecar re-encodes to exactly its
/// input bytes, and its raw directory passes CheckDirectoryParse, the
/// parse an offline remote open runs on it next.
inline const char* CheckDirSidecarParse(const uint8_t* data, size_t size) {
  auto sidecar = serve::ParseDirSidecar(ByteSpan(data, size));
  if (!sidecar.ok()) {
    if (sidecar.status().code() != StatusCode::kCorruption) {
      return "sidecar parse failed with a code other than kCorruption";
    }
    if (sidecar.status().message().empty()) {
      return "sidecar parse failed with an empty status message";
    }
    return nullptr;
  }
  if (serve::EncodeDirSidecar(sidecar.value()) !=
      std::vector<uint8_t>(data, data + size)) {
    return "a parsed sidecar does not re-encode to its input bytes";
  }
  return CheckDirectoryParse(SpanOf(sidecar.value().raw_directory),
                             sidecar.value().dir_off);
}

/// \brief Runs `ops` on a windowed BitReader and on the bit-at-a-time
/// oracles over the first `bit_count` bits of `data`: op % 5 picks
/// ReadBit, ReadBits(op / 5 % 65), EliasDeltaDecode, EliasGammaDecode
/// or AlignToByte. Both must give the same value, status (code and
/// message) and cursor after every op, until the first failure.
inline const char* CheckMixedReads(const uint8_t* data, size_t bit_count,
                                   const uint8_t* ops, size_t num_ops) {
  BitReader fast(data, bit_count);
  BitReader oracle(data, bit_count);
  for (size_t i = 0; i < num_ops; ++i) {
    uint64_t fast_value = 0;
    uint64_t oracle_value = 0;
    Status fast_status;
    Status oracle_status;
    switch (ops[i] % 5) {
      case 0: {
        bool bit = false;
        fast_status = fast.ReadBit(&bit);
        fast_value = bit;
        oracle_status = oracle.ReadBitsScalar(1, &oracle_value);
        break;
      }
      case 1: {
        const int width = ops[i] / 5 % 65;
        fast_status = fast.ReadBits(width, &fast_value);
        oracle_status = oracle.ReadBitsScalar(width, &oracle_value);
        break;
      }
      case 2:
        fast_status = EliasDeltaDecode(&fast, &fast_value);
        oracle_status = EliasDeltaDecodeScalar(&oracle, &oracle_value);
        break;
      case 3:
        fast_status = EliasGammaDecode(&fast, &fast_value);
        oracle_status = EliasGammaDecodeScalar(&oracle, &oracle_value);
        break;
      default:
        fast.AlignToByte();
        oracle.AlignToByte();
        break;
    }
    if (fast_status.code() != oracle_status.code() ||
        fast_status.message() != oracle_status.message()) {
      return "a windowed read and its oracle disagree on the status";
    }
    if (fast.position() != oracle.position()) {
      return "a windowed read and its oracle left different cursors";
    }
    if (!fast_status.ok()) return nullptr;
    if (fast_value != oracle_value) {
      return "a windowed read and its oracle read different values";
    }
  }
  return nullptr;
}

/// \brief Differential check of the word-at-a-time bit-stream/Elias
/// decoders against their bit-at-a-time scalar oracles: on ANY input
/// the two must produce identical values, identical statuses (code and
/// message) and identical cursor positions after every single decode.
inline const char* CheckEliasDifferential(const uint8_t* data, size_t size) {
  const size_t bit_count = size * 8;

  // Gamma then delta: decode the whole stream twice, lock-step.
  for (int use_delta = 0; use_delta < 2; ++use_delta) {
    BitReader fast(data, bit_count);
    BitReader scalar(data, bit_count);
    for (;;) {
      uint64_t fast_value = 0;
      uint64_t scalar_value = 0;
      Status fast_status =
          use_delta ? EliasDeltaDecode(&fast, &fast_value)
                    : EliasGammaDecode(&fast, &fast_value);
      Status scalar_status =
          use_delta ? EliasDeltaDecodeScalar(&scalar, &scalar_value)
                    : EliasGammaDecodeScalar(&scalar, &scalar_value);
      if (fast_status.code() != scalar_status.code()) {
        return "fast and scalar Elias decoders disagree on the status code";
      }
      if (fast_status.message() != scalar_status.message()) {
        return "fast and scalar Elias decoders disagree on the message";
      }
      if (fast.position() != scalar.position()) {
        return "fast and scalar Elias decoders left different cursors";
      }
      if (!fast_status.ok()) break;
      if (fast_value != scalar_value) {
        return "fast and scalar Elias decoders decoded different values";
      }
      // Every successful decode consumes >= 1 bit, so this terminates.
    }
  }

  // ReadBits vs ReadBitsScalar with widths walked from the input so
  // the fuzzer explores the 0/64/straddle edges.
  {
    BitReader fast(data, bit_count);
    BitReader scalar(data, bit_count);
    int width = 0;
    for (;;) {
      uint64_t fast_value = 0;
      uint64_t scalar_value = 0;
      Status fast_status = fast.ReadBits(width, &fast_value);
      Status scalar_status = scalar.ReadBitsScalar(width, &scalar_value);
      if (fast_status.code() != scalar_status.code()) {
        return "ReadBits and ReadBitsScalar disagree on the status code";
      }
      if (fast.position() != scalar.position()) {
        return "ReadBits and ReadBitsScalar left different cursors";
      }
      if (!fast_status.ok()) break;
      if (fast_value != scalar_value) {
        return "ReadBits and ReadBitsScalar read different values";
      }
      if (width == 0 && fast.BitsAvailable() == 0) break;
      width = (width + 7) % 65;  // 0,7,14,...,63,5,... covers 0..64
    }
  }

  // Every read kind interleaved on one windowed reader, the ops drawn
  // from the input, over a sub-window that ends up to 7 bits before
  // the buffer does: the window must never surface a bit past the end.
  if (size > 0) {
    const char* mixed = CheckMixedReads(data, bit_count - data[0] % 8, data,
                                        size);
    if (mixed != nullptr) return mixed;
  }
  return nullptr;
}

/// \brief k^2-tree parse through both entry points: the ranked
/// K2Tree::Deserialize and the enumerate-only K2Tree::DecodeCells
/// accept exactly the same inputs with the same status, and a parsed
/// tree's AllCells is sorted, unique, in bounds, num_cells() long and
/// equal to DecodeCells' keys once sorted, which come ascending within
/// each row and each column (level order); every listed cell satisfies
/// Contains, and on matrices up to 64 x 64 Contains holds on no other
/// cell.
inline const char* CheckK2TreeParse(const uint8_t* data, size_t size) {
  BitReader ranked_reader(data, size * 8);
  auto tree = K2Tree::Deserialize(&ranked_reader);
  BitReader cells_reader(data, size * 8);
  K2Tree::Cells c;
  const Status cells = K2Tree::DecodeCells(&cells_reader, &c);
  if (tree.ok() != cells.ok()) {
    return "Deserialize and DecodeCells disagree on the input's validity";
  }
  if (!tree.ok()) {
    if (tree.status().code() != cells.code() ||
        tree.status().message() != cells.message()) {
      return "Deserialize and DecodeCells fail with different statuses";
    }
    if (tree.status().code() != StatusCode::kCorruption &&
        tree.status().code() != StatusCode::kOutOfRange) {
      return "k2-tree parse failed with a code other than kCorruption or "
             "kOutOfRange";
    }
    if (tree.status().message().empty()) {
      return "k2-tree parse failed with an empty status message";
    }
    return nullptr;
  }
  if (ranked_reader.position() != cells_reader.position()) {
    return "Deserialize and DecodeCells consumed different bit counts";
  }
  const K2Tree& t = tree.value();
  if (c.num_rows != t.num_rows() || c.num_cols != t.num_cols()) {
    return "Deserialize and DecodeCells report different dimensions";
  }
  const auto all = t.AllCells();
  if (all.size() != t.num_cells()) {
    return "AllCells lists a different number of cells than num_cells";
  }
  if (c.keys.size() != all.size()) {
    return "DecodeCells lists a different number of cells than AllCells";
  }
  // Level order: a row's cells ascend by column and a column's by row.
  // Sorting by (col, row) the one way and stably by row the other must
  // leave the keys where they are.
  std::vector<uint64_t> sorted(c.keys.begin(), c.keys.end());
  std::vector<uint64_t> by_col(c.keys.begin(), c.keys.end());
  std::stable_sort(by_col.begin(), by_col.end(), [](uint64_t a, uint64_t b) {
    return (a & 0xFFFFFFFFu) < (b & 0xFFFFFFFFu);
  });
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](uint64_t a, uint64_t b) { return a >> 32 < b >> 32; });
  for (size_t i = 1; i < by_col.size(); ++i) {
    if ((by_col[i] & 0xFFFFFFFFu) == (by_col[i - 1] & 0xFFFFFFFFu) &&
        by_col[i] >> 32 <= by_col[i - 1] >> 32) {
      return "DecodeCells lists a column's cells out of row order";
    }
  }
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && !(all[i - 1] < all[i])) {
      return "AllCells output is not strictly increasing";
    }
    if (all[i].first >= t.num_rows() || all[i].second >= t.num_cols()) {
      return "AllCells lists a cell outside the matrix";
    }
    if (sorted[i] != (static_cast<uint64_t>(all[i].first) << 32 |
                      all[i].second)) {
      return "DecodeCells and AllCells list different cells";
    }
    if (!t.Contains(all[i].first, all[i].second)) {
      return "AllCells lists a cell that Contains rejects";
    }
  }
  if (t.num_rows() <= 64 && t.num_cols() <= 64) {
    uint64_t contained = 0;
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      for (uint32_t col = 0; col < t.num_cols(); ++col) {
        contained += t.Contains(r, col) ? 1 : 0;
      }
    }
    // Every listed cell is contained, so equal counts mean equal sets.
    if (contained != all.size()) {
      return "Contains accepts a cell that AllCells does not list";
    }
  }
  return nullptr;
}

/// \brief What one payload decode may allocate at once. Every count
/// that sizes a buffer is bounded by the input's bits: start nodes, psi'
/// entries, k^2 levels (8 bytes per bit), labels, rules, permutations
/// and start edges (a 32-byte HEdge per bit, doubled by growth) all fit
/// 1024 bytes per input byte. Parallel start edges are the exception:
/// dup patches may claim up to kMaxDupEdges of them from a few bytes,
/// so the slack holds that many HEdges.
inline constexpr size_t kPayloadBytesPerInputByte = 1024;
inline constexpr size_t kPayloadSlackBytes =
    sizeof(HEdge) * kMaxDupEdges + (64 << 10);

/// \brief Grepair payload parse (CompressedGraph::Deserialize, i.e.
/// DecodeGrammar plus DecodeNodeMapping): a failure carries a non-empty
/// message and is kCorruption or kOutOfRange; kInvalidArgument only for
/// a grammar with the retired GRG1 magic. A success passes the full
/// SlhrGrammar::Validate, which DecodeGrammar splits into checks made
/// as it decodes; holds a permutation of val(G)'s ids as psi' (or
/// none); re-serializes to bytes that decode again; answers every
/// node's out- and in-neighbor queries with its rank-2 edges when val(G)
/// has at most 4,096 nodes and edges; and, when val(G) is small enough
/// to materialize here, both decodes decompress to the same graph. The
/// decode, whatever its outcome, allocates at most
/// kPayloadBytesPerInputByte per input byte plus kPayloadSlackBytes at
/// once.
inline const char* CheckGrepairPayload(const uint8_t* data, size_t size) {
  if (g_largest_allocation.installed()) g_largest_allocation.reset();
  auto graph = CompressedGraph::Deserialize(ByteSpan(data, size));
  if (!AllocationWithin(size, kPayloadBytesPerInputByte,
                        kPayloadSlackBytes)) {
    return "a payload decode made an allocation its input does not bound";
  }
  if (!graph.ok()) {
    if (graph.status().message().empty()) {
      return "grepair payload decode failed with an empty status message";
    }
    const StatusCode code = graph.status().code();
    if (code == StatusCode::kInvalidArgument) {
      // The grammar starts after the mapping flag and its u64 length.
      if (size < 13 || std::string_view(reinterpret_cast<const char*>(data) +
                                            9, 4) != "GRG1") {
        return "a grepair payload other than GRG1 failed with "
               "kInvalidArgument";
      }
    } else if (code != StatusCode::kCorruption &&
               code != StatusCode::kOutOfRange) {
      return "grepair payload decode failed with a code other than "
             "kCorruption, kOutOfRange or kInvalidArgument";
    }
    return nullptr;
  }
  const CompressedGraph& g = graph.value();
  if (!g.grammar().Validate().ok()) {
    return "a decoded grammar fails SlhrGrammar::Validate";
  }
  const std::vector<NodeId>& origins = g.origins();
  if (!origins.empty()) {
    if (origins.size() != g.num_nodes()) {
      return "decoded origin count differs from val(G)'s node count";
    }
    std::vector<char> seen(origins.size(), 0);
    for (NodeId o : origins) {
      if (o >= origins.size() || seen[o]) {
        return "decoded origins are not a permutation of val(G)'s ids";
      }
      seen[o] = 1;
    }
  }
  auto again = CompressedGraph::Deserialize(g.Serialize());
  if (!again.ok()) return "a re-serialized payload fails to decode";
  if (again.value().origins() != origins) {
    return "a re-serialized payload decodes to different origins";
  }
  // Every node's neighbors are its sorted, unique rank-2 edges. Capped
  // because a tiny payload may describe a star with 2^30 leaves.
  if (g.num_nodes() <= 4096 && g.num_edges() <= 4096) {
    const size_t n = static_cast<size_t>(g.num_nodes());
    std::vector<std::vector<uint64_t>> out(n), in(n);
    bool in_range = true;
    Status streamed = g.ForEachRank2Edge([&](NodeId u, NodeId v) {
      if (u >= n || v >= n) {
        in_range = false;
        return;
      }
      out[u].push_back(v);
      in[v].push_back(u);
    });
    if (!streamed.ok() || !in_range) {
      return "streaming a small payload's rank-2 edges failed";
    }
    for (size_t v = 0; v < n; ++v) {
      for (std::vector<uint64_t>* list : {&out[v], &in[v]}) {
        std::sort(list->begin(), list->end());
        list->erase(std::unique(list->begin(), list->end()), list->end());
      }
      if (g.OutNeighbors(v) != out[v] || g.InNeighbors(v) != in[v]) {
        return "a neighbor query disagrees with the rank-2 edges";
      }
    }
  }
  // Tight derive limits: a tiny payload may still describe a huge val(G).
  if (g.num_nodes() > (1u << 16) || g.num_edges() > (1u << 18)) {
    return nullptr;
  }
  auto first = g.Decompress();
  auto second = again.value().Decompress();
  if (!first.ok() || !second.ok()) {
    return "decompressing a small decoded payload failed";
  }
  if (!(first.value() == second.value())) {
    return "a re-serialized payload decompresses to a different graph";
  }
  return nullptr;
}

/// \brief k2 payload parse (K2GraphRepresentation::Deserialize, the
/// paper's k^2 size baseline): a failure carries a non-empty message.
/// A success decodes to num_nodes() nodes and rank-2 edges whose ids
/// are all below num_nodes(), and the per-label OutNeighbors report the
/// same edge set: for every node when num_nodes() <= 2^16, else for
/// every node with an out-edge.
inline const char* CheckK2PayloadParse(const uint8_t* data, size_t size) {
  auto rep = K2GraphRepresentation::Deserialize(
      std::vector<uint8_t>(data, data + size));
  if (!rep.ok()) {
    if (rep.status().message().empty()) {
      return "k2 payload decode failed with an empty status message";
    }
    return nullptr;
  }
  const K2GraphRepresentation& k2 = rep.value();
  const uint64_t n = k2.num_nodes();
  const Hypergraph graph = k2.ToGraph();
  if (graph.num_nodes() != n) {
    return "a decoded k2 payload has another node count";
  }
  std::map<uint64_t, std::vector<uint64_t>> out;
  for (const HEdge& e : graph.edges()) {
    if (e.att.size() != 2) return "a decompressed k2 edge is not rank 2";
    if (e.att[0] >= n || e.att[1] >= n) {
      return "a decompressed k2 edge names a node id >= num_nodes()";
    }
    out[e.att[0]].push_back(e.att[1]);
  }
  for (auto& [u, targets] : out) {
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
  }
  const std::vector<uint64_t> none;
  auto agrees = [&](uint64_t u) {
    std::vector<uint64_t> got;
    for (Label l = 0; l < k2.num_labels(); ++l) {
      for (uint32_t v : k2.OutNeighbors(static_cast<uint32_t>(u), l)) {
        got.push_back(v);
      }
    }
    std::sort(got.begin(), got.end());
    got.erase(std::unique(got.begin(), got.end()), got.end());
    auto it = out.find(u);
    return got == (it == out.end() ? none : it->second);
  };
  if (n <= (1u << 16)) {
    for (uint64_t u = 0; u < n; ++u) {
      if (!agrees(u)) return "OutNeighbors disagrees with Decompress";
    }
    return nullptr;
  }
  for (const auto& entry : out) {
    if (!agrees(entry.first)) return "OutNeighbors disagrees with Decompress";
  }
  return nullptr;
}

/// \brief GRSHARD3 delta-container parse (shard::DecodeDeltaContainer):
/// a failure is kInvalidArgument (no magic) or kCorruption with a
/// non-empty message; a decoded container re-encodes to its input
/// bytes.
inline const char* CheckDeltaContainerParse(const uint8_t* data,
                                            size_t size) {
  auto delta = shard::DecodeDeltaContainer(ByteSpan(data, size));
  if (!delta.ok()) {
    if (delta.status().code() != StatusCode::kInvalidArgument &&
        delta.status().code() != StatusCode::kCorruption) {
      return "delta decode failed with a code other than kInvalidArgument "
             "or kCorruption";
    }
    if (delta.status().message().empty()) {
      return "delta decode failed with an empty status message";
    }
    return nullptr;
  }
  if (shard::EncodeDeltaContainer(delta.value()) !=
      std::vector<uint8_t>(data, data + size)) {
    return "a decoded delta container does not re-encode to its input";
  }
  return nullptr;
}

/// \brief The delta fuzzer's check: the input as given, then a copy
/// whose trailing checksum is recomputed over the (mutated) body, so
/// mutations get past the checksum gate into the field parser.
inline const char* CheckDeltaContainerInput(const uint8_t* data,
                                            size_t size) {
  const char* violated = CheckDeltaContainerParse(data, size);
  if (violated != nullptr || size < 8) return violated;
  std::vector<uint8_t> resealed(data, data + size - 8);
  PutU64LE(HashBytes(resealed.data(), resealed.size()), &resealed);
  return CheckDeltaContainerParse(resealed.data(), resealed.size());
}

/// \brief Edit-text parse (shard::ParseEditText, the `append --edits`
/// reader): a failure is kInvalidArgument naming its line; a success
/// prints back as canonical text (`a u v label` or `d u v` per line)
/// that parses to the same edits.
inline const char* CheckEditTextParse(const uint8_t* data, size_t size) {
  auto edits = shard::ParseEditText(
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (!edits.ok()) {
    if (edits.status().code() != StatusCode::kInvalidArgument) {
      return "edit-text parse failed with a code other than kInvalidArgument";
    }
    if (edits.status().message().rfind("line ", 0) != 0) {
      return "edit-text parse failure does not name its line";
    }
    return nullptr;
  }
  std::string canonical;
  for (const shard::EdgeEdit& e : edits.value()) {
    if (e.kind == shard::EdgeEdit::kDelete && e.label != 0) {
      return "a parsed delete carries a label";
    }
    canonical += (e.kind == shard::EdgeEdit::kAdd ? "a " : "d ") +
                 std::to_string(e.u) + " " + std::to_string(e.v);
    if (e.kind == shard::EdgeEdit::kAdd) {
      canonical += " " + std::to_string(e.label);
    }
    canonical += "\n";
  }
  auto again = shard::ParseEditText(canonical);
  if (!again.ok()) return "canonical edit text fails to parse";
  if (again.value().size() != edits.value().size()) {
    return "canonical edit text parses to another edit count";
  }
  for (size_t i = 0; i < edits.value().size(); ++i) {
    const shard::EdgeEdit& a = edits.value()[i];
    const shard::EdgeEdit& b = again.value()[i];
    if (a.kind != b.kind || a.u != b.u || a.v != b.v || a.label != b.label) {
      return "canonical edit text parses to other edits";
    }
  }
  return nullptr;
}

/// \brief Graph-text parse (ParseGraphText, the CLI's `compress`
/// reader): a failure is kCorruption or kInvalidArgument with a
/// message; a success writes back (WriteGraphText) as text that parses
/// to the same graph, edge for edge, and the same label ranks.
inline const char* CheckGraphTextParse(const uint8_t* data, size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  auto loaded = ParseGraphText(in);
  if (!loaded.ok()) {
    const StatusCode code = loaded.status().code();
    if (code != StatusCode::kCorruption &&
        code != StatusCode::kInvalidArgument) {
      return "graph-text parse failed with a code other than "
             "kCorruption or kInvalidArgument";
    }
    if (loaded.status().message().empty()) {
      return "graph-text parse failed without a message";
    }
    return nullptr;
  }
  std::ostringstream out;
  WriteGraphText(loaded.value().graph, loaded.value().alphabet, out);
  std::istringstream written(out.str());
  auto again = ParseGraphText(written);
  if (!again.ok()) return "written graph text fails to parse";
  if (!(again.value().graph == loaded.value().graph)) {
    return "written graph text parses to another graph";
  }
  const Alphabet& a = loaded.value().alphabet;
  const Alphabet& b = again.value().alphabet;
  if (a.size() != b.size()) {
    return "written graph text parses to another label count";
  }
  for (Label l = 0; l < a.size(); ++l) {
    if (a.rank(l) != b.rank(l)) {
      return "written graph text parses to other label ranks";
    }
  }
  return nullptr;
}

/// \brief Tagged GRPCODEC frame parse (api::UnwrapShardedPayload, the
/// first parse every file open runs): a failure is kInvalidArgument,
/// kNotFound (a "sharded:<inner>" tag of another inner codec) or
/// kCorruption with a message; a success yields a payload view inside
/// the input, and framing that payload again under its tag
/// ("sharded:grepair", api::WrapCodecPayload) reproduces the input
/// bytes exactly.
inline const char* CheckCodecFrameParse(const uint8_t* data, size_t size) {
  ByteSpan payload;
  Status unwrapped =
      api::UnwrapShardedPayload("input", ByteSpan(data, size), &payload);
  if (!unwrapped.ok()) {
    if (unwrapped.code() != StatusCode::kInvalidArgument &&
        unwrapped.code() != StatusCode::kNotFound &&
        unwrapped.code() != StatusCode::kCorruption) {
      return "codec frame parse failed with a code other than "
             "kInvalidArgument, kNotFound or kCorruption";
    }
    if (unwrapped.message().empty()) {
      return "codec frame parse failed without a message";
    }
    return nullptr;
  }
  const auto begin = reinterpret_cast<uintptr_t>(data);
  const auto at = reinterpret_cast<uintptr_t>(payload.data);
  if (at < begin || at - begin > size || payload.size > size - (at - begin)) {
    return "codec frame payload view lies outside the input";
  }
  const std::vector<uint8_t> reframed = api::WrapCodecPayload(
      "sharded:grepair", std::vector<uint8_t>(payload.begin(), payload.end()));
  if (!std::equal(reframed.begin(), reframed.end(), data, data + size)) {
    return "codec frame framed again differs from the input";
  }
  return nullptr;
}

}  // namespace fuzz
}  // namespace grepair

#endif  // GREPAIR_FUZZ_FUZZ_CHECKS_H_
