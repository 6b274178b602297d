// Delta overlays and GRSHARD3 delta containers: the write path of the
// (until now read-only) sharded corpus stack.
//
// A DeltaOverlay is an immutable snapshot of the edits applied to a
// corpus since its shards were last (re)compressed: appended edges and
// killed node pairs, each held twice in sorted CSR-style runs (by
// source and by target) so a query merges its node's slice with two
// binary searches and two linear merges. Semantics are set-based and
// pair-granular:
//
//   * add(u, v, label)  — the edge joins the corpus (duplicate adds of
//     the same triple coalesce);
//   * delete(u, v)      — every rank-2 edge u->v, whatever its label,
//     leaves the corpus; pending adds of the pair are erased. A later
//     add of the pair re-creates exactly that one edge (base copies
//     stay dead).
//
// The logical corpus is therefore
//     {base edges whose (att0, att1) is not killed}  union  {adds},
// which ShardedRep reproduces per node as
//     out(u) = (base_out(u) \ killed_targets(u)) u add_targets(u)
// — proven byte-identical to a from-scratch recompress of the mutated
// graph by the differential suite (tests/dynamic_corpus_test.cc).
//
// A GRSHARD3 delta container ships a corpus version as a diff: it
// references its base by content hash (of the *entire* previous file
// in the chain, so lineage is tamper-evident), carries only the shards
// whose grammars were re-folded plus the residual overlay runs, and is
// covered end-to-end by a trailing checksum. Deltas are cumulative
// against the base: each carries the full folded set and the full
// residual, so applying the newest delta alone (after its chain
// verifies) yields the newest version.

#ifndef GREPAIR_SHARD_DELTA_OVERLAY_H_
#define GREPAIR_SHARD_DELTA_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/hypergraph.h"
#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {
namespace shard {

/// \brief The 8-byte GRSHARD3 delta-container magic.
extern const char kDeltaContainerMagic[8];

/// \brief One edit against a corpus (the unit of ApplyEdits).
struct EdgeEdit {
  enum Kind : uint8_t {
    kAdd,     ///< append edge u -> v with `label`
    kDelete,  ///< remove every rank-2 edge u -> v (any label)
  };
  Kind kind = kAdd;
  uint32_t u = 0;
  uint32_t v = 0;
  uint32_t label = 0;  ///< adds only; ignored for deletes

  static EdgeEdit Add(uint32_t u, uint32_t v, uint32_t label = 0) {
    return EdgeEdit{kAdd, u, v, label};
  }
  static EdgeEdit Delete(uint32_t u, uint32_t v) {
    return EdgeEdit{kDelete, u, v, 0};
  }
};

/// \brief Parses the edit text `grepair append --edits` reads: one
/// edit per line, `a u v [label]` appends an edge and `d u v` deletes
/// every rank-2 edge u -> v. Fields are separated by blanks, and each
/// number is a whole decimal token of at most 4294967295. '#' starts a
/// comment, and blank lines are skipped. Any other line, including one
/// with an extra token, fails with kInvalidArgument "<where>: expected
/// 'a u v [label]' or 'd u v', got '<line>'", where <where> is
/// `context:N` (a file path), or `line N` when context is empty.
Result<std::vector<EdgeEdit>> ParseEditText(std::string_view text,
                                            const std::string& context = "");

/// \brief An appended edge in an overlay run.
struct DeltaEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  uint32_t label = 0;

  bool operator==(const DeltaEdge& o) const {
    return u == o.u && v == o.v && label == o.label;
  }
};

/// \brief A killed (source, target) pair in an overlay run.
struct DeltaPair {
  uint32_t u = 0;
  uint32_t v = 0;

  bool operator==(const DeltaPair& o) const { return u == o.u && v == o.v; }
};

/// \brief Immutable edit snapshot with per-direction sorted runs.
///
/// Instances are built by Apply (never mutated), shared by
/// shared_ptr<const DeltaOverlay>, and safe to read from any number of
/// threads. All four runs are strictly sorted and duplicate-free; the
/// out-sorted add run is the canonical add set (the in-sorted run holds
/// its (v, u) transposes, one per pair), and likewise for kills. Apply
/// merges an edit batch into each run in one linear pass, so a batch of
/// b edits costs O(|overlay| + b log b) time and no per-edit allocation.
class DeltaOverlay {
 public:
  /// \brief Builds `base + edits` as a fresh snapshot (base may be
  /// null = empty). kInvalidArgument on the first self-loop add (u ==
  /// v; the paper's model excludes them and Hypergraph::Validate
  /// enforces it). Edits are applied in order: a delete erases pending
  /// adds of its pair, an add of a killed pair co-exists with the kill
  /// (the merge rule applies kills to base edges only, then unions
  /// adds). The batch is sorted into runs (O(b log b)) and each of the
  /// base's four runs is merged with its batch run once (O(|base| +
  /// b)); nothing of the base is re-sorted.
  static Result<std::shared_ptr<const DeltaOverlay>> Apply(
      const DeltaOverlay* base, const std::vector<EdgeEdit>& edits);

  /// \brief Rebuilds a snapshot from explicit runs (the GRSHARD3 /
  /// fold-residual path). `adds` must be sorted by (u, v, label) and
  /// `kills` by (u, v), both duplicate-free; kCorruption otherwise —
  /// wire data funnels through here and must fail closed.
  static Result<std::shared_ptr<const DeltaOverlay>> FromRuns(
      std::vector<DeltaEdge> adds, std::vector<DeltaPair> kills);

  bool empty() const { return adds_out_.empty() && kills_out_.empty(); }
  size_t add_count() const { return adds_out_.size(); }
  size_t kill_count() const { return kills_out_.size(); }
  size_t edit_count() const { return add_count() + kill_count(); }

  /// \brief In-memory footprint of the runs (the fold budget's metric).
  size_t ByteSize() const {
    return adds_out_.size() * (2 * sizeof(DeltaEdge)) +
           kills_out_.size() * (2 * sizeof(DeltaPair));
  }

  /// \brief 1 + the largest node id any edit references (0 when
  /// empty): the overlay's lower bound on the corpus node count.
  uint64_t min_num_nodes() const { return min_num_nodes_; }

  /// \brief The canonical sorted runs (serialization + fold planning).
  const std::vector<DeltaEdge>& adds() const { return adds_out_; }
  const std::vector<DeltaPair>& kills() const { return kills_out_; }

  /// \brief Merges `base` (sorted, unique, ascending global ids — a
  /// base-shard answer) with this overlay's view of `node`:
  /// out = (base \ killed targets) u added targets. Idempotent: base
  /// answers that already reflect some of these edits merge to the
  /// same result. Returns sorted unique ids.
  std::vector<uint64_t> MergeOut(uint64_t node,
                                 std::vector<uint64_t> base) const;
  std::vector<uint64_t> MergeIn(uint64_t node,
                                std::vector<uint64_t> base) const;

  /// \brief True when (u, v) is in the kill set (Decompress's filter).
  bool IsKilled(uint64_t u, uint64_t v) const;

  /// \brief True when `node` has any add or kill touching it in the
  /// given direction — lets a merged answer skip the merge entirely
  /// for untouched nodes (the common case).
  bool TouchesOut(uint64_t node) const;
  bool TouchesIn(uint64_t node) const;

 private:
  DeltaOverlay() = default;
  void BuildDerivedRuns();  // FromRuns: in-sorted runs + min_num_nodes_

  std::vector<DeltaEdge> adds_out_;   // sorted by (u, v, label)
  std::vector<DeltaPair> adds_in_;    // (v, u) pairs sorted; dedup'd
  std::vector<DeltaPair> kills_out_;  // sorted by (u, v)
  std::vector<DeltaPair> kills_in_;   // (v, u) pairs sorted
  uint64_t min_num_nodes_ = 0;
};

/// \brief A decoded GRSHARD3 delta container.
struct DeltaContainer {
  uint64_t base_hash = 0;      ///< HashBytes of the whole previous file
  uint64_t base_size = 0;      ///< byte size of the previous file
  uint64_t base_dir_checksum = 0;  ///< the base's v2 directory checksum
  uint64_t num_nodes = 0;      ///< corpus node count after this delta

  /// One shard whose inner grammar was re-folded since the base.
  struct ChangedShard {
    uint32_t index = 0;
    uint64_t checksum = 0;  ///< HashBytes(payload)
    std::vector<uint8_t> payload;
  };
  std::vector<ChangedShard> shards;  ///< strictly ascending by index

  std::vector<DeltaEdge> adds;   ///< residual, sorted by (u, v, label)
  std::vector<DeltaPair> kills;  ///< residual, sorted by (u, v)
};

/// \brief True if `bytes` starts with the GRSHARD3 magic.
bool IsDeltaContainer(ByteSpan bytes);

/// \brief Serializes a delta container (layout in
/// src/shard/README.md), appending the trailing checksum.
std::vector<uint8_t> EncodeDeltaContainer(const DeltaContainer& delta);

/// \brief Parses and fully verifies a delta container: magic, trailing
/// checksum over everything before it, per-shard payload checksums,
/// strict run sortedness, ascending shard indices. Fails closed with
/// kCorruption; kInvalidArgument when the magic is absent. `context`
/// labels errors (a file path).
Result<DeltaContainer> DecodeDeltaContainer(ByteSpan bytes,
                                            const std::string& context = "");

}  // namespace shard
}  // namespace grepair

#endif  // GREPAIR_SHARD_DELTA_OVERLAY_H_
