#include "src/query/compressed_graph.h"

#include <algorithm>
#include <cassert>

#include "src/encoding/grammar_coder.h"
#include "src/query/speedup.h"
#include "src/util/byte_io.h"

namespace grepair {

namespace {

// One bottom-up pass; the counts saturate, so a grammar whose val(G)
// outgrows NodeId (or uint64_t edges) fails here instead of wrapping.
Result<ValSize> NameableValSize(const SlhrGrammar& grammar) {
  const ValSize size = ComputeValSize(grammar);
  if (size.nodes > kMaxValNodes || size.edges == UINT64_MAX) {
    return Status::OutOfRange("val(G) has more nodes or edges than ids "
                              "can name");
  }
  return size;
}

// The payload layout Serialize documents, around `grammar` and psi'
// as `origins` (none when empty).
std::vector<uint8_t> PayloadOf(const SlhrGrammar& grammar,
                               const std::vector<NodeId>& origins) {
  auto grammar_bytes = EncodeGrammar(grammar);
  std::vector<uint8_t> out;
  out.push_back(origins.empty() ? 0 : 1);
  PutU64LE(grammar_bytes.size(), &out);
  out.insert(out.end(), grammar_bytes.begin(), grammar_bytes.end());
  if (!origins.empty()) {
    auto mapping_bytes = EncodeNodeMapping(grammar, origins);
    out.insert(out.end(), mapping_bytes.begin(), mapping_bytes.end());
  }
  return out;
}

}  // namespace

Result<CompressedGraph> CompressedGraph::FromGraph(
    const Hypergraph& graph, const Alphabet& alphabet,
    CompressOptions options, bool keep_original_ids) {
  options.track_node_mapping = keep_original_ids;
  auto result = Compress(graph, alphabet, options);
  if (!result.ok()) return result.status();
  const std::vector<uint8_t> payload =
      PayloadOf(result.value().grammar, result.value().origins);
  auto g = Deserialize(SpanOf(payload));
  if (!g.ok()) return g.status();
  g.value().stats_ = result.value().stats;
  return g;
}

Result<std::vector<uint8_t>> CompressedGraph::CompressToPayload(
    const Hypergraph& graph, const Alphabet& alphabet,
    CompressOptions options) {
  options.track_node_mapping = true;
  auto result = Compress(graph, alphabet, options);
  if (!result.ok()) return result.status();
  return PayloadOf(result.value().grammar, result.value().origins);
}

CompressedGraph CompressedGraph::FromValidGrammar(SlhrGrammar grammar,
                                                  ValSize size,
                                                  DecodedNodeMapping mapping) {
  CompressedGraph g;
  g.grammar_ = std::make_unique<SlhrGrammar>(std::move(grammar));
  g.num_nodes_ = size.nodes;
  g.num_edges_ = size.edges;
  assert(mapping.to_original.empty() ||
         mapping.to_original.size() == size.nodes);
  g.to_original_ = std::move(mapping.to_original);
  g.to_val_ = std::move(mapping.to_val);
  g.neighborhood_ = std::make_unique<LazyIndex<NeighborhoodIndex>>();
  g.reachability_ = std::make_unique<LazyIndex<ReachabilityIndex>>();
  return g;
}

std::vector<uint8_t> CompressedGraph::Serialize() const {
  return PayloadOf(*grammar_, to_original_);
}

Result<CompressedGraph> CompressedGraph::Deserialize(
    const std::vector<uint8_t>& bytes) {
  return Deserialize(SpanOf(bytes));
}

Result<CompressedGraph> CompressedGraph::Deserialize(ByteSpan bytes) {
  ByteSource src(bytes, "grepair payload");
  uint8_t mapping_flag = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU8(&mapping_flag));
  uint64_t grammar_len = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&grammar_len));
  ByteSpan grammar_bytes;
  GREPAIR_RETURN_IF_ERROR(src.ReadSpan(grammar_len, &grammar_bytes));
  // DecodeGrammar validates what it returns, so it is not checked twice.
  // psi' spends at least one bit per val(G) node, and val(G) holds
  // every start node, so the payload's bits bound |V_S| before the
  // start adjacency is sized by it. A payload without psi' is held to
  // the same bound.
  auto grammar = DecodeGrammar(grammar_bytes, uint64_t{bytes.size} * 8);
  if (!grammar.ok()) return grammar.status();
  auto size = NameableValSize(grammar.value());
  if (!size.ok()) return size.status();
  DecodedNodeMapping mapping;
  if (mapping_flag != 0) {
    ByteSpan mapping_bytes;
    GREPAIR_RETURN_IF_ERROR(src.ReadSpan(src.remaining(), &mapping_bytes));
    auto decoded =
        DecodeNodeMapping(grammar.value(), size.value().nodes, mapping_bytes);
    if (!decoded.ok()) return decoded.status();
    mapping = std::move(decoded).ValueOrDie();
  }
  return FromValidGrammar(std::move(grammar).ValueOrDie(), size.value(),
                          std::move(mapping));
}

uint64_t CompressedGraph::memo_entries() const {
  const NeighborhoodIndex* n = neighborhood_->IfBuilt();
  const ReachabilityIndex* r = reachability_->IfBuilt();
  return (n ? n->memo_entries() : 0) + (r ? r->memo_entries() : 0);
}

uint64_t CompressedGraph::memo_hits() const {
  const NeighborhoodIndex* n = neighborhood_->IfBuilt();
  const ReachabilityIndex* r = reachability_->IfBuilt();
  return (n ? n->memo_hits() : 0) + (r ? r->memo_hits() : 0);
}

std::vector<uint64_t> CompressedGraph::OutNeighbors(uint64_t node) const {
  auto result = neighborhood().OutNeighbors(ToVal(node));
  if (!to_original_.empty()) {
    for (auto& v : result) v = ToOriginal(v);
    std::sort(result.begin(), result.end());
  }
  return result;
}

std::vector<uint64_t> CompressedGraph::InNeighbors(uint64_t node) const {
  auto result = neighborhood().InNeighbors(ToVal(node));
  if (!to_original_.empty()) {
    for (auto& v : result) v = ToOriginal(v);
    std::sort(result.begin(), result.end());
  }
  return result;
}

bool CompressedGraph::Reachable(uint64_t from, uint64_t to) const {
  return reachability().Reachable(ToVal(from), ToVal(to));
}

uint64_t CompressedGraph::NumConnectedComponents() const {
  return CountConnectedComponents(*grammar_);
}

size_t CompressedGraph::SerializedSize() const {
  return EncodeGrammar(*grammar_).size();
}

Result<Hypergraph> CompressedGraph::Decompress() const {
  auto graph = Derive(*grammar_);
  if (!graph.ok() || !has_original_ids()) return graph;
  // to_original_ is a permutation of val(G)'s ids, checked when it was
  // decoded, so val(G) is renamed in place without re-checking it.
  Hypergraph& g = graph.value();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (NodeId& v : g.mutable_edge(e).att) v = to_original_[v];
  }
  return graph;
}

Status CompressedGraph::ForEachRank2Edge(
    const std::function<void(NodeId from, NodeId to)>& sink) const {
  // to_original_ is a permutation of val(G)'s ids, checked when it was
  // built, so no edge needs re-validating here.
  return ForEachDerivedEdge(
      *grammar_, [&](Label, const Attachments& att) {
        if (att.size() == 2) {
          sink(static_cast<NodeId>(ToOriginal(att[0])),
               static_cast<NodeId>(ToOriginal(att[1])));
        }
      });
}

}  // namespace grepair
