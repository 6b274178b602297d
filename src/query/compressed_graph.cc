#include "src/query/compressed_graph.h"

#include <algorithm>

#include "src/encoding/grammar_coder.h"
#include "src/query/speedup.h"
#include "src/util/byte_io.h"

namespace grepair {

namespace {

// Fills the val<->original id translation tables from a psi' mapping.
// The origins must form a permutation of [0, |val(G)|_V); Deserialize
// feeds this untrusted bytes, so out-of-range or duplicate ids are
// Corruption, not UB.
Status BuildIdTranslation(std::vector<NodeId>* to_original,
                          std::vector<uint64_t>* to_val,
                          const SlhrGrammar& grammar,
                          const NodeMapping& mapping) {
  auto origins = FlattenOrigins(grammar, mapping);
  if (!origins.ok()) return origins.status();
  *to_original = std::move(origins).ValueOrDie();
  constexpr uint64_t kUnset = ~0ull;
  to_val->assign(to_original->size(), kUnset);
  for (uint64_t v = 0; v < to_original->size(); ++v) {
    NodeId orig = (*to_original)[v];
    if (orig >= to_original->size() || (*to_val)[orig] != kUnset) {
      return Status::Corruption("psi' mapping is not a permutation");
    }
    (*to_val)[orig] = v;
  }
  return Status::OK();
}

}  // namespace

Result<CompressedGraph> CompressedGraph::FromGraph(
    const Hypergraph& graph, const Alphabet& alphabet,
    CompressOptions options, bool keep_original_ids) {
  options.track_node_mapping = keep_original_ids;
  auto result = Compress(graph, alphabet, options);
  if (!result.ok()) return result.status();

  CompressedGraph g;
  g.grammar_ = std::make_unique<SlhrGrammar>(std::move(result.value().grammar));
  g.mapping_ = std::move(result.value().mapping);
  g.stats_ = result.value().stats;
  if (keep_original_ids) {
    GREPAIR_RETURN_IF_ERROR(BuildIdTranslation(
        &g.to_original_, &g.to_val_, *g.grammar_, g.mapping_));
  }
  g.Init();
  return g;
}

Result<CompressedGraph> CompressedGraph::FromGrammar(SlhrGrammar grammar) {
  return FromGrammar(std::move(grammar), NodeMapping());
}

Result<CompressedGraph> CompressedGraph::FromGrammar(SlhrGrammar grammar,
                                                     NodeMapping mapping) {
  GREPAIR_RETURN_IF_ERROR(grammar.Validate());
  return FromValidGrammar(std::move(grammar), std::move(mapping));
}

Result<CompressedGraph> CompressedGraph::FromValidGrammar(
    SlhrGrammar grammar, NodeMapping mapping) {
  CompressedGraph g;
  g.grammar_ = std::make_unique<SlhrGrammar>(std::move(grammar));
  if (!mapping.empty()) {
    g.mapping_ = std::move(mapping);
    GREPAIR_RETURN_IF_ERROR(BuildIdTranslation(
        &g.to_original_, &g.to_val_, *g.grammar_, g.mapping_));
  }
  g.Init();
  return g;
}

std::vector<uint8_t> CompressedGraph::Serialize() const {
  auto grammar_bytes = EncodeGrammar(*grammar_);
  std::vector<uint8_t> out;
  out.push_back(mapping_.empty() ? 0 : 1);
  PutU64LE(grammar_bytes.size(), &out);
  out.insert(out.end(), grammar_bytes.begin(), grammar_bytes.end());
  if (!mapping_.empty()) {
    auto mapping_bytes = EncodeNodeMapping(*grammar_, mapping_);
    out.insert(out.end(), mapping_bytes.begin(), mapping_bytes.end());
  }
  return out;
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
  auto grammar = DecodeGrammar(grammar_bytes);
  if (!grammar.ok()) return grammar.status();
  if (mapping_flag == 0) {
    return FromValidGrammar(std::move(grammar).ValueOrDie(), NodeMapping());
  }
  ByteSpan mapping_bytes;
  GREPAIR_RETURN_IF_ERROR(src.ReadSpan(src.remaining(), &mapping_bytes));
  auto mapping = DecodeNodeMapping(grammar.value(), mapping_bytes);
  if (!mapping.ok()) return mapping.status();
  return FromValidGrammar(std::move(grammar).ValueOrDie(),
                          std::move(mapping).ValueOrDie());
}

void CompressedGraph::Init() {
  const ValSize size = ComputeValSize(*grammar_);
  num_nodes_ = size.nodes;
  num_edges_ = size.edges;
  neighborhood_ = std::make_unique<LazyIndex<NeighborhoodIndex>>();
  reachability_ = std::make_unique<LazyIndex<ReachabilityIndex>>();
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

std::vector<uint64_t> CompressedGraph::LabelHistogram() const {
  return grepair::LabelHistogram(*grammar_);
}

size_t CompressedGraph::SerializedSize() const {
  if (!serialized_size_.has_value()) {
    serialized_size_ = EncodeGrammar(*grammar_).size();
  }
  return *serialized_size_;
}

Result<Hypergraph> CompressedGraph::Decompress() const {
  if (!to_original_.empty()) {
    return DeriveOriginal(*grammar_, mapping_);
  }
  return Derive(*grammar_);
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
