#include "src/baselines/k2_compressor.h"

#include <cassert>

#include "src/util/elias.h"

namespace grepair {

K2GraphRepresentation K2GraphRepresentation::Build(const Hypergraph& g,
                                                   const Alphabet& alphabet,
                                                   int k) {
  K2GraphRepresentation rep;
  rep.num_nodes_ = g.num_nodes();
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> cells(
      alphabet.size());
  for (const auto& e : g.edges()) {
    assert(e.att.size() == 2 && "k2 baseline requires a simple graph");
    cells[e.label].push_back({e.att[0], e.att[1]});
  }
  rep.trees_.reserve(alphabet.size());
  for (Label l = 0; l < alphabet.size(); ++l) {
    rep.trees_.push_back(
        K2Tree::Build(g.num_nodes(), g.num_nodes(), std::move(cells[l]), k));
  }
  return rep;
}

std::vector<uint8_t> K2GraphRepresentation::Serialize() const {
  BitWriter w;
  EliasDeltaEncode(num_nodes_ + 1, &w);
  EliasDeltaEncode(trees_.size() + 1, &w);
  for (const auto& tree : trees_) {
    w.PutBit(tree.num_cells() > 0);
    if (tree.num_cells() > 0) tree.Serialize(&w);
  }
  return w.TakeBytes();
}

Result<K2GraphRepresentation> K2GraphRepresentation::Deserialize(
    const std::vector<uint8_t>& bytes) {
  BitReader r(bytes);
  uint64_t num_nodes = 0, num_labels = 0;
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_nodes));
  GREPAIR_RETURN_IF_ERROR(EliasDeltaDecode(&r, &num_labels));
  if (num_nodes == 0 || num_labels == 0) {
    return Status::Corruption("bad header");
  }
  if (num_nodes - 1 > 0xFFFFFFFFull) {
    return Status::Corruption("k2 node count out of range");
  }
  K2GraphRepresentation rep;
  rep.num_nodes_ = static_cast<uint32_t>(num_nodes - 1);
  for (uint64_t l = 0; l + 1 < num_labels; ++l) {
    bool present = false;
    GREPAIR_RETURN_IF_ERROR(r.ReadBit(&present));
    if (present) {
      auto tree = K2Tree::Deserialize(&r);
      if (!tree.ok()) return tree.status();
      // Every per-label tree spans the full adjacency matrix; anything
      // else is corrupt and would let ToGraph emit out-of-range ids.
      if (tree.value().num_rows() != rep.num_nodes_ ||
          tree.value().num_cols() != rep.num_nodes_) {
        return Status::Corruption("k2 tree dimensions mismatch header");
      }
      rep.trees_.push_back(std::move(tree).ValueOrDie());
    } else {
      rep.trees_.push_back(K2Tree::Build(rep.num_nodes_, rep.num_nodes_, {}));
    }
  }
  return rep;
}

Hypergraph K2GraphRepresentation::ToGraph() const {
  Hypergraph g(num_nodes_);
  for (Label l = 0; l < trees_.size(); ++l) {
    for (const auto& cell : trees_[l].AllCells()) {
      g.AddSimpleEdge(cell.first, cell.second, l);
    }
  }
  return g;
}

size_t K2CompressedSize(const Hypergraph& g, const Alphabet& alphabet,
                        int k) {
  return K2GraphRepresentation::Build(g, alphabet, k).Serialize().size();
}

}  // namespace grepair
