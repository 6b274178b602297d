#include "src/grepair/occurrence_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace grepair {

OccurrenceIndex::OccurrenceIndex(uint32_t expected_edges) {
  bucket_cap_ = static_cast<int32_t>(
      std::sqrt(static_cast<double>(expected_edges < 4 ? 4 : expected_edges)));
  if (bucket_cap_ < 2) bucket_cap_ = 2;
  bucket_head_.assign(static_cast<size_t>(bucket_cap_) + 1, kInvalidDigram);
}

int32_t OccurrenceIndex::BucketFor(uint32_t count) const {
  return count >= static_cast<uint32_t>(bucket_cap_)
             ? bucket_cap_
             : static_cast<int32_t>(count);
}

void OccurrenceIndex::PqInsert(DigramId id) {
  DigramEntry& d = digrams_[id];
  assert(d.bucket == -1 && d.count >= 2);
  int32_t b = BucketFor(d.count);
  d.bucket = b;
  d.pq_prev = kInvalidDigram;
  d.pq_next = bucket_head_[b];
  if (bucket_head_[b] != kInvalidDigram) digrams_[bucket_head_[b]].pq_prev = id;
  bucket_head_[b] = id;
  if (b > max_bucket_) max_bucket_ = b;
}

void OccurrenceIndex::PqRemove(DigramId id) {
  DigramEntry& d = digrams_[id];
  assert(d.bucket >= 0);
  if (d.pq_prev != kInvalidDigram) {
    digrams_[d.pq_prev].pq_next = d.pq_next;
  } else {
    bucket_head_[d.bucket] = d.pq_next;
  }
  if (d.pq_next != kInvalidDigram) digrams_[d.pq_next].pq_prev = d.pq_prev;
  d.bucket = -1;
  d.pq_prev = d.pq_next = kInvalidDigram;
}

DigramId OccurrenceIndex::FindOrAddDigram(const DigramShape& shape) {
  if (2 * (digrams_.size() + 1) > shape_table_.size()) GrowShapeTable();
  const size_t mask = shape_table_.size() - 1;
  for (size_t i = DigramShapeHash()(shape) & mask;; i = (i + 1) & mask) {
    DigramId id = shape_table_[i];
    if (id == kInvalidDigram) {
      id = static_cast<DigramId>(digrams_.size());
      digrams_.emplace_back();
      digrams_.back().shape = shape;
      shape_table_[i] = id;
      return id;
    }
    if (digrams_[id].shape == shape) return id;
  }
}

void OccurrenceIndex::GrowShapeTable() {
  std::vector<DigramId> table(
      std::max<size_t>(64, 2 * shape_table_.size()), kInvalidDigram);
  const size_t mask = table.size() - 1;
  for (DigramId id = 0; id < digrams_.size(); ++id) {
    size_t i = DigramShapeHash()(digrams_[id].shape) & mask;
    while (table[i] != kInvalidDigram) i = (i + 1) & mask;
    table[i] = id;
  }
  shape_table_ = std::move(table);
}

OccId OccurrenceIndex::Add(const DigramShape& shape, EdgeId e0, EdgeId e1) {
  const DigramId did = FindOrAddDigram(shape);

  OccId oid;
  if (!free_occs_.empty()) {
    oid = free_occs_.back();
    free_occs_.pop_back();
  } else {
    oid = static_cast<OccId>(occs_.size());
    occs_.emplace_back();
  }
  Occurrence& o = occs_[oid];
  o.edge0 = e0;
  o.edge1 = e1;
  o.digram = did;
  o.prev = kInvalidOcc;
  o.alive = true;

  DigramEntry& d = digrams_[did];
  o.next = d.head;
  if (d.head != kInvalidOcc) occs_[d.head].prev = oid;
  d.head = oid;
  ++d.count;
  ++total_added_;

  // Requeue on count transitions: entering activity (count 2) or moving
  // buckets below the cap.
  if (d.bucket >= 0) {
    int32_t b = BucketFor(d.count);
    if (b != d.bucket) {
      PqRemove(did);
      PqInsert(did);
    }
  } else if (d.count >= 2) {
    PqInsert(did);
  }
  return oid;
}

void OccurrenceIndex::Remove(OccId id) {
  Occurrence& o = occs_[id];
  assert(o.alive);
  DigramEntry& d = digrams_[o.digram];
  if (o.prev != kInvalidOcc) {
    occs_[o.prev].next = o.next;
  } else {
    d.head = o.next;
  }
  if (o.next != kInvalidOcc) occs_[o.next].prev = o.prev;
  assert(d.count > 0);
  --d.count;
  o.alive = false;
  free_occs_.push_back(id);

  if (d.bucket >= 0) {
    if (d.count < 2) {
      PqRemove(o.digram);
    } else {
      int32_t b = BucketFor(d.count);
      if (b != d.bucket) {
        PqRemove(o.digram);
        PqInsert(o.digram);
      }
    }
  }
}

DigramId OccurrenceIndex::PopMaxDigram() {
  while (max_bucket_ >= 2 && bucket_head_[max_bucket_] == kInvalidDigram) {
    --max_bucket_;
  }
  if (max_bucket_ < 2) return kInvalidDigram;

  DigramId best = bucket_head_[max_bucket_];
  if (max_bucket_ == bucket_cap_) {
    // Top bucket mixes counts >= cap: scan the chain for the maximum.
    for (DigramId cur = best; cur != kInvalidDigram;
         cur = digrams_[cur].pq_next) {
      if (digrams_[cur].count > digrams_[best].count) best = cur;
    }
  }
  PqRemove(best);
  return best;
}

}  // namespace grepair
