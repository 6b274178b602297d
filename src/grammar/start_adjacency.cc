#include "src/grammar/start_adjacency.h"

#include <algorithm>
#include <cassert>

namespace grepair {

namespace {

// Calls visit(u, v) for each edge of `section`, a parallel edge once
// per copy, in key order.
template <typename Visit>
void ForEachEdge(const uint64_t* keys, const StartAdjacency::Section& section,
                 Visit&& visit) {
  if (section.copies.empty()) {
    for (size_t i = section.begin; i < section.end; ++i) {
      visit(static_cast<NodeId>(keys[i] >> 32), static_cast<NodeId>(keys[i]));
    }
    return;
  }
  for (size_t i = section.begin; i < section.end; ++i) {
    for (uint32_t c = 0; c < section.copies[i - section.begin]; ++c) {
      visit(static_cast<NodeId>(keys[i] >> 32), static_cast<NodeId>(keys[i]));
    }
  }
}

}  // namespace

Result<StartAdjacency> StartAdjacency::Build(
    uint32_t num_nodes, const uint64_t* keys,
    const std::vector<Section>& sections, Degrees degrees) {
  StartAdjacency adj;
  if (sections.empty()) return adj;
  const size_t n = num_nodes;
  uint64_t total = 0;
  for (const Section& section : sections) {
    if (section.copies.empty()) {
      total += section.end - section.begin;
    } else {
      for (uint32_t copies : section.copies) total += copies;
    }
  }
  // Checked before the prefix sums: a row's count can only have
  // wrapped if the total is past it too.
  if (total > UINT32_MAX) {
    return Status::Corruption("start graph has more edges than it can index");
  }
  // Row v's degree is at off[v + 2]. After the prefix sums off[v + 1]
  // is row v's first slot, and a scatter that bumps it leaves it at
  // row v's end, which is row v + 1's first slot: the offsets are done
  // without a cursor array.
  adj.out_off_ = std::move(degrees.out);
  adj.in_off_ = std::move(degrees.in);
  for (size_t v = 2; v < n + 2; ++v) {
    adj.out_off_[v] += adj.out_off_[v - 1];
    adj.in_off_[v] += adj.in_off_[v - 1];
  }

  adj.sources_.resize(total);
  adj.targets_.resize(total);
  bool diagonal = false;
  if (sections.size() == 1) {
    // One label, like every dblp shard's: no per-edge label, and one
    // pass fills both directions, since the keys already ascend by
    // column within each row and by row within each column.
    ForEachEdge(keys, sections[0], [&](NodeId u, NodeId v) {
      assert(u < n && v < n);
      diagonal |= u == v;
      adj.sources_[adj.in_off_[v + 1]++] = u;
      adj.targets_[adj.out_off_[u + 1]++] = v;
    });
    if (diagonal) {
      return Status::Corruption("start edge attaches the same node twice");
    }
    adj.in_off_.resize(n + 1);
    adj.out_off_.resize(n + 1);
    adj.single_label_ = sections[0].label;
    return adj;
  }

  // Pass 1, by column: in rows sorted by (label, source).
  UninitializedVector<Label> column_labels(total);
  for (const Section& section : sections) {
    ForEachEdge(keys, section, [&](NodeId u, NodeId v) {
      assert(u < n && v < n);
      diagonal |= u == v;
      const uint32_t at = adj.in_off_[v + 1]++;
      adj.sources_[at] = u;
      column_labels[at] = section.label;
    });
  }
  if (diagonal) {
    return Status::Corruption("start edge attaches the same node twice");
  }
  adj.in_off_.resize(n + 1);

  // Pass 2, by row over the in rows in column order: out rows sorted
  // by (target, label).
  adj.labels_.resize(total);
  for (size_t v = 0; v < n; ++v) {
    for (uint32_t at = adj.in_off_[v]; at < adj.in_off_[v + 1]; ++at) {
      const uint32_t to = adj.out_off_[adj.sources_[at] + 1]++;
      adj.targets_[to] = static_cast<NodeId>(v);
      adj.labels_[to] = column_labels[at];
    }
  }
  adj.out_off_.resize(n + 1);

  // Pass 3, by column over the out rows: in rows sorted by source.
  std::vector<uint32_t> cursor(adj.in_off_.begin(), adj.in_off_.end() - 1);
  for (size_t u = 0; u < n; ++u) {
    for (uint32_t at = adj.out_off_[u]; at < adj.out_off_[u + 1]; ++at) {
      adj.sources_[cursor[adj.targets_[at]]++] = static_cast<NodeId>(u);
    }
  }
  return adj;
}

StartAdjacency::LabelGroups StartAdjacency::GroupByLabel() const {
  LabelGroups groups;
  if (empty()) return groups;
  auto label_at = [&](uint64_t at) {
    return labels_.empty() ? single_label_ : labels_[at];
  };
  const Label bound =
      labels_.empty() ? single_label_
                      : *std::max_element(labels_.begin(), labels_.end());
  groups.begin.assign(size_t{bound} + 2, 0);
  for (uint64_t at = 0; at < targets_.size(); ++at) {
    ++groups.begin[label_at(at) + 1];
  }
  for (size_t l = 1; l < groups.begin.size(); ++l) {
    groups.begin[l] += groups.begin[l - 1];
  }
  // Stable by label over the out rows: (u, v) order within a label.
  std::vector<uint64_t> cursor(groups.begin.begin(), groups.begin.end() - 1);
  groups.keys.resize(targets_.size());
  for (size_t u = 0; u + 1 < out_off_.size(); ++u) {
    for (uint32_t at = out_off_[u]; at < out_off_[u + 1]; ++at) {
      groups.keys[cursor[label_at(at)]++] =
          static_cast<uint64_t>(u) << 32 | targets_[at];
    }
  }
  return groups;
}

}  // namespace grepair
