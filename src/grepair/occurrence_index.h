// Occurrence bookkeeping for gRePair (Section III-C1).
//
// A direct generalization of the RePair data structures of Larsson &
// Moffat: every active digram owns a doubly-linked list of its current
// non-overlapping occurrences, and a priority queue of sqrt(n) buckets
// keyed by occurrence count serves "most frequent digram" pops in
// (amortized) constant time — bucket b < cap holds digrams with exactly
// b occurrences, the top bucket holds everything with >= cap.
//
// Occurrence lists shrink when a replacement consumes an edge that some
// other occurrence uses, and grow when new nonterminal edges pair with
// their neighbors; both paths are O(1) per event here.

#ifndef GREPAIR_GREPAIR_OCCURRENCE_INDEX_H_
#define GREPAIR_GREPAIR_OCCURRENCE_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/grepair/digram.h"

namespace grepair {

using OccId = uint32_t;
using DigramId = uint32_t;
inline constexpr OccId kInvalidOcc = ~0u;
inline constexpr DigramId kInvalidDigram = ~0u;

/// \brief One stored occurrence; edge0 plays the shape's edge0 role.
struct Occurrence {
  EdgeId edge0 = kInvalidEdge;
  EdgeId edge1 = kInvalidEdge;
  DigramId digram = kInvalidDigram;
  OccId prev = kInvalidOcc;
  OccId next = kInvalidOcc;
  bool alive = false;

  EdgeId other(EdgeId e) const { return e == edge0 ? edge1 : edge0; }
};

/// \brief Per-digram state: shape, occurrence list, PQ linkage.
struct DigramEntry {
  DigramShape shape;
  uint32_t count = 0;
  OccId head = kInvalidOcc;
  DigramId pq_prev = kInvalidDigram;
  DigramId pq_next = kInvalidDigram;
  int32_t bucket = -1;  ///< -1 when not queued (count < 2 or popped)
};

/// \brief Digram table + occurrence arena + frequency priority queue.
class OccurrenceIndex {
 public:
  /// \brief `expected_edges` sizes the bucket cap at sqrt(n) as in
  /// Larsson-Moffat.
  explicit OccurrenceIndex(uint32_t expected_edges);

  /// \brief Registers an occurrence {e0,e1} of `shape` (e0 in the
  /// shape's edge0 role). Creates or revives the digram entry.
  OccId Add(const DigramShape& shape, EdgeId e0, EdgeId e1);

  /// \brief Unlinks an occurrence (it must be alive).
  void Remove(OccId id);

  /// \brief Pops the most frequent digram (count >= 2) out of the queue;
  /// kInvalidDigram when no digram is active. The digram's occurrence
  /// list stays intact for the caller to consume.
  DigramId PopMaxDigram();

  const Occurrence& occ(OccId id) const { return occs_[id]; }
  const DigramEntry& digram(DigramId id) const { return digrams_[id]; }

  /// \brief Head of a digram's occurrence list (kInvalidOcc when empty).
  OccId FirstOccurrence(DigramId id) const { return digrams_[id].head; }

  size_t num_digrams() const { return digrams_.size(); }
  uint64_t total_occurrences_added() const { return total_added_; }

 private:
  void PqInsert(DigramId id);
  void PqRemove(DigramId id);
  int32_t BucketFor(uint32_t count) const;
  DigramId FindOrAddDigram(const DigramShape& shape);
  void GrowShapeTable();

  std::vector<DigramEntry> digrams_;
  // Open-addressing hash table (linear probing, at most half full) of
  // digram ids keyed by digrams_[id].shape, so each shape is stored
  // once; kInvalidDigram marks an empty slot.
  std::vector<DigramId> shape_table_;
  std::vector<Occurrence> occs_;
  std::vector<OccId> free_occs_;
  std::vector<DigramId> bucket_head_;
  int32_t max_bucket_ = 1;  ///< highest bucket that may be nonempty
  int32_t bucket_cap_;
  uint64_t total_added_ = 0;
};

}  // namespace grepair

#endif  // GREPAIR_GREPAIR_OCCURRENCE_INDEX_H_
