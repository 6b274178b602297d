#include "src/grammar/start_adjacency.h"

#include <algorithm>

namespace grepair {

namespace {

// Calls visit(u, v) for each edge of `section`, a parallel edge once
// per copy, in key order.
template <typename Visit>
void ForEachEdge(const StartAdjacency::Section& section, Visit&& visit) {
  if (section.copies.empty()) {
    for (uint64_t key : section.keys) {
      visit(static_cast<NodeId>(key >> 32), static_cast<NodeId>(key));
    }
    return;
  }
  for (size_t i = 0; i < section.keys.size(); ++i) {
    for (uint32_t c = 0; c < section.copies[i]; ++c) {
      visit(static_cast<NodeId>(section.keys[i] >> 32),
            static_cast<NodeId>(section.keys[i]));
    }
  }
}

}  // namespace

Result<StartAdjacency> StartAdjacency::Build(
    uint32_t num_nodes, const std::vector<Section>& sections) {
  StartAdjacency adj;
  if (sections.empty()) return adj;
  const size_t n = num_nodes;
  // Row v's degree goes to off[v + 2]. After the prefix sums off[v + 1]
  // is row v's first slot, and a scatter that bumps it leaves it at
  // row v's end, which is row v + 1's first slot: the offsets are done
  // without a cursor array. Every cell is checked here, once.
  adj.out_off_.assign(n + 2, 0);
  adj.in_off_.assign(n + 2, 0);
  uint64_t total = 0;
  for (const Section& section : sections) {
    for (size_t i = 0; i < section.keys.size(); ++i) {
      const uint64_t u = section.keys[i] >> 32;
      const uint64_t v = section.keys[i] & 0xFFFFFFFFu;
      if (u >= n || v >= n) {
        return Status::Corruption("start edge references a missing node");
      }
      if (u == v) {
        return Status::Corruption("start edge attaches the same node twice");
      }
      const uint32_t copies = section.copies.empty() ? 1 : section.copies[i];
      adj.out_off_[u + 2] += copies;
      adj.in_off_[v + 2] += copies;
      total += copies;
    }
  }
  if (total > UINT32_MAX) {
    return Status::Corruption("start graph has more edges than it can index");
  }
  for (size_t v = 2; v < n + 2; ++v) {
    adj.out_off_[v] += adj.out_off_[v - 1];
    adj.in_off_[v] += adj.in_off_[v - 1];
  }

  // One label, like every dblp shard's, stores no per-edge label, and
  // pass 1 already sorts its in rows by source, so pass 3 is skipped.
  // On BM_FaultDblpShards' 16 shards that takes the build from about
  // 350 to 220 us (4-vCPU Xeon) and saves 4 bytes per edge.
  const bool one_label = sections.size() == 1;

  // Pass 1, by column: in rows sorted by (label, source).
  adj.sources_.resize(total);
  std::vector<Label> column_labels(one_label ? 0 : total);
  for (const Section& section : sections) {
    ForEachEdge(section, [&](NodeId u, NodeId v) {
      const uint32_t at = adj.in_off_[v + 1]++;
      adj.sources_[at] = u;
      if (!one_label) column_labels[at] = section.label;
    });
  }
  adj.in_off_.pop_back();

  // Pass 2, by row over the in rows in column order: out rows sorted
  // by (target, label).
  adj.targets_.resize(total);
  adj.labels_.resize(column_labels.size());
  for (size_t v = 0; v < n; ++v) {
    for (uint32_t at = adj.in_off_[v]; at < adj.in_off_[v + 1]; ++at) {
      const uint32_t to = adj.out_off_[adj.sources_[at] + 1]++;
      adj.targets_[to] = static_cast<NodeId>(v);
      if (!one_label) adj.labels_[to] = column_labels[at];
    }
  }
  adj.out_off_.pop_back();
  if (one_label) {
    adj.single_label_ = sections[0].label;
    return adj;
  }

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
