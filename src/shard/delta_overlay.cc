#include "src/shard/delta_overlay.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "src/util/hashing.h"

namespace grepair {
namespace shard {

const char kDeltaContainerMagic[8] = {'G', 'R', 'S', 'H',
                                      'A', 'R', 'D', '3'};

namespace {

bool EdgeLess(const DeltaEdge& a, const DeltaEdge& b) {
  return std::tie(a.u, a.v, a.label) < std::tie(b.u, b.v, b.label);
}

bool PairLess(const DeltaPair& a, const DeltaPair& b) {
  return std::tie(a.u, a.v) < std::tie(b.u, b.v);
}

// Field separators of the edit text: whitespace other than newline.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// A whole decimal token of at most 2^32 - 1.
bool ParseU32(std::string_view token, uint32_t* out) {
  if (token.empty()) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > ~0u) return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

// The [first == u] slice of a run sorted by (u, ...). The u+1 probe
// must not wrap, so the max id is special-cased to "rest of the run".
template <typename Run, typename T, typename Less>
std::pair<typename Run::const_iterator, typename Run::const_iterator>
SliceFor(const Run& run, uint32_t u, T lo, T hi, Less less) {
  auto begin = std::lower_bound(run.begin(), run.end(), lo, less);
  auto end = (u == ~0u)
                 ? run.end()
                 : std::lower_bound(begin, run.end(), hi, less);
  return {begin, end};
}

std::pair<std::vector<DeltaEdge>::const_iterator,
          std::vector<DeltaEdge>::const_iterator>
EdgeSlice(const std::vector<DeltaEdge>& run, uint32_t u) {
  return SliceFor(run, u, DeltaEdge{u, 0, 0}, DeltaEdge{u + 1, 0, 0},
                  EdgeLess);
}

std::pair<std::vector<DeltaPair>::const_iterator,
          std::vector<DeltaPair>::const_iterator>
PairSlice(const std::vector<DeltaPair>& run, uint32_t u) {
  return SliceFor(run, u, DeltaPair{u, 0}, DeltaPair{u + 1, 0}, PairLess);
}

// Shared core of MergeOut/MergeIn: (base \ kill slice) union (second
// field of the add slice, deduplicated).
std::vector<uint64_t> MergeSlices(
    std::vector<uint64_t> base,
    std::vector<DeltaPair>::const_iterator kb,
    std::vector<DeltaPair>::const_iterator ke, const uint32_t* add_seconds,
    size_t add_count) {
  std::vector<uint64_t> out;
  out.reserve(base.size() + add_count);
  auto ki = kb;
  for (uint64_t id : base) {
    while (ki != ke && static_cast<uint64_t>(ki->v) < id) ++ki;
    if (ki != ke && static_cast<uint64_t>(ki->v) == id) continue;
    out.push_back(id);
  }
  size_t mid = out.size();
  uint64_t last = ~0ull;  // outside the u32 id domain
  for (size_t i = 0; i < add_count; ++i) {
    if (add_seconds[i] != last) {
      out.push_back(add_seconds[i]);
      last = add_seconds[i];
    }
  }
  std::inplace_merge(out.begin(), out.begin() + static_cast<long>(mid),
                     out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The (v, u) transposes of a run's pairs, sorted and duplicate-free:
// two labels on the same pair collapse to one entry, since the
// in-direction runs answer "which sources", not "which edges".
template <typename T>
std::vector<DeltaPair> TransposedRun(const std::vector<T>& run) {
  std::vector<DeltaPair> out;
  out.reserve(run.size());
  for (const T& e : run) out.push_back(DeltaPair{e.v, e.u});
  std::sort(out.begin(), out.end(), PairLess);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Merges two strictly sorted runs into one, skipping the base entries
// whose (u, v) pair is in `drop` (sorted by (u, v)); an entry in both
// runs appears once.
template <typename T, typename Less>
std::vector<T> MergeRun(const std::vector<T>& base,
                        const std::vector<DeltaPair>& drop,
                        const std::vector<T>& batch, Less less) {
  std::vector<T> out;
  out.reserve(base.size() + batch.size());
  auto d = drop.begin();
  auto b = batch.begin();
  for (const T& e : base) {
    const DeltaPair pair{e.u, e.v};
    while (d != drop.end() && PairLess(*d, pair)) ++d;
    if (d != drop.end() && *d == pair) continue;
    while (b != batch.end() && less(*b, e)) out.push_back(*b++);
    if (b != batch.end() && *b == e) ++b;
    out.push_back(e);
  }
  out.insert(out.end(), b, batch.end());
  return out;
}

}  // namespace

Result<std::vector<EdgeEdit>> ParseEditText(std::string_view text,
                                            const std::string& context) {
  std::vector<EdgeEdit> edits;
  size_t line_no = 0;
  for (size_t start = 0; start < text.size(); ++line_no) {
    size_t end = std::min(text.find('\n', start), text.size());
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    line = line.substr(0, line.find('#'));
    // Up to one token more than a valid line holds, to see it is extra.
    std::string_view tokens[5];
    size_t count = 0;
    for (size_t at = 0; at < line.size() && count < 5;) {
      if (IsBlank(line[at])) {
        ++at;
        continue;
      }
      size_t token_end = at;
      while (token_end < line.size() && !IsBlank(line[token_end])) {
        ++token_end;
      }
      tokens[count++] = line.substr(at, token_end - at);
      at = token_end;
    }
    if (count == 0) continue;  // blank or comment-only
    uint32_t fields[3] = {0, 0, 0};
    bool ok = (tokens[0] == "a" && (count == 3 || count == 4)) ||
              (tokens[0] == "d" && count == 3);
    for (size_t i = 1; ok && i < count; ++i) {
      ok = ParseU32(tokens[i], &fields[i - 1]);
    }
    if (!ok) {
      return Status::InvalidArgument(
          (context.empty() ? "line " : context + ":") +
          std::to_string(line_no + 1) +
          ": expected 'a u v [label]' or 'd u v', got '" + std::string(line) +
          "'");
    }
    edits.push_back(tokens[0] == "a"
                        ? EdgeEdit::Add(fields[0], fields[1], fields[2])
                        : EdgeEdit::Delete(fields[0], fields[1]));
  }
  return edits;
}

void DeltaOverlay::BuildDerivedRuns() {
  adds_in_ = TransposedRun(adds_out_);
  kills_in_ = TransposedRun(kills_out_);
  uint64_t max_ref = 0;
  for (const DeltaEdge& e : adds_out_) {
    max_ref = std::max<uint64_t>(max_ref, std::max(e.u, e.v));
  }
  for (const DeltaPair& p : kills_out_) {
    max_ref = std::max<uint64_t>(max_ref, std::max(p.u, p.v));
  }
  min_num_nodes_ = empty() ? 0 : max_ref + 1;
}

Result<std::shared_ptr<const DeltaOverlay>> DeltaOverlay::Apply(
    const DeltaOverlay* base, const std::vector<EdgeEdit>& edits) {
  // Normalize the batch into sorted runs, O(b log b). A delete erases
  // every earlier add of its pair, so an add survives only when no
  // later delete names the pair.
  struct Delete {
    DeltaPair pair;
    size_t pos;
  };
  std::vector<Delete> deletes;
  uint64_t min_num_nodes = base != nullptr ? base->min_num_nodes_ : 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    const EdgeEdit& edit = edits[i];
    if (edit.kind == EdgeEdit::kAdd && edit.u == edit.v) {
      return Status::InvalidArgument(
          "cannot add self-loop edge " + std::to_string(edit.u) + " -> " +
          std::to_string(edit.v) + " (excluded by the graph model)");
    }
    if (edit.kind == EdgeEdit::kDelete) {
      deletes.push_back(Delete{DeltaPair{edit.u, edit.v}, i});
    }
    min_num_nodes =
        std::max<uint64_t>(min_num_nodes, 1ull + std::max(edit.u, edit.v));
  }
  auto delete_less = [](const Delete& a, const Delete& b) {
    return std::tie(a.pair.u, a.pair.v, a.pos) <
           std::tie(b.pair.u, b.pair.v, b.pos);
  };
  std::sort(deletes.begin(), deletes.end(), delete_less);
  std::vector<DeltaEdge> batch_adds;
  for (size_t i = 0; i < edits.size(); ++i) {
    const EdgeEdit& edit = edits[i];
    if (edit.kind != EdgeEdit::kAdd) continue;
    const DeltaPair pair{edit.u, edit.v};
    auto later = std::upper_bound(deletes.begin(), deletes.end(),
                                  Delete{pair, i}, delete_less);
    if (later != deletes.end() && later->pair == pair) continue;
    batch_adds.push_back(DeltaEdge{edit.u, edit.v, edit.label});
  }
  std::sort(batch_adds.begin(), batch_adds.end(), EdgeLess);
  batch_adds.erase(std::unique(batch_adds.begin(), batch_adds.end()),
                   batch_adds.end());
  std::vector<DeltaPair> batch_kills;
  for (const Delete& d : deletes) {
    if (batch_kills.empty() || !(batch_kills.back() == d.pair)) {
      batch_kills.push_back(d.pair);
    }
  }
  const std::vector<DeltaPair> batch_kills_in = TransposedRun(batch_kills);

  // One linear merge per run, O(|base| + b); no base run is re-sorted.
  // Base adds of a pair the batch deletes leave; kills only accumulate.
  const DeltaOverlay empty_base;
  const DeltaOverlay& from = base != nullptr ? *base : empty_base;
  auto overlay = std::shared_ptr<DeltaOverlay>(new DeltaOverlay());
  overlay->adds_out_ =
      MergeRun(from.adds_out_, batch_kills, batch_adds, EdgeLess);
  overlay->kills_out_ = MergeRun(from.kills_out_, {}, batch_kills, PairLess);
  overlay->adds_in_ = MergeRun(from.adds_in_, batch_kills_in,
                               TransposedRun(batch_adds), PairLess);
  overlay->kills_in_ =
      MergeRun(from.kills_in_, {}, batch_kills_in, PairLess);
  overlay->min_num_nodes_ = min_num_nodes;
  return std::shared_ptr<const DeltaOverlay>(std::move(overlay));
}

Result<std::shared_ptr<const DeltaOverlay>> DeltaOverlay::FromRuns(
    std::vector<DeltaEdge> adds, std::vector<DeltaPair> kills) {
  for (size_t i = 0; i < adds.size(); ++i) {
    if (adds[i].u == adds[i].v) {
      return Status::Corruption("overlay add run has self-loop at entry " +
                                std::to_string(i));
    }
    if (i > 0 && !EdgeLess(adds[i - 1], adds[i])) {
      return Status::Corruption(
          "overlay add run unsorted or duplicated at entry " +
          std::to_string(i));
    }
  }
  for (size_t i = 1; i < kills.size(); ++i) {
    if (!PairLess(kills[i - 1], kills[i])) {
      return Status::Corruption(
          "overlay kill run unsorted or duplicated at entry " +
          std::to_string(i));
    }
  }
  auto overlay = std::shared_ptr<DeltaOverlay>(new DeltaOverlay());
  overlay->adds_out_ = std::move(adds);
  overlay->kills_out_ = std::move(kills);
  overlay->BuildDerivedRuns();
  return std::shared_ptr<const DeltaOverlay>(std::move(overlay));
}

std::vector<uint64_t> DeltaOverlay::MergeOut(
    uint64_t node, std::vector<uint64_t> base) const {
  if (node > ~0u) return base;  // beyond the u32 edit domain
  uint32_t u = static_cast<uint32_t>(node);
  auto kills = PairSlice(kills_out_, u);
  auto adds = EdgeSlice(adds_out_, u);
  if (kills.first == kills.second && adds.first == adds.second) return base;
  std::vector<uint32_t> add_targets;
  add_targets.reserve(static_cast<size_t>(adds.second - adds.first));
  for (auto it = adds.first; it != adds.second; ++it) {
    add_targets.push_back(it->v);  // sorted; labels may repeat a target
  }
  return MergeSlices(std::move(base), kills.first, kills.second,
                     add_targets.data(), add_targets.size());
}

std::vector<uint64_t> DeltaOverlay::MergeIn(
    uint64_t node, std::vector<uint64_t> base) const {
  if (node > ~0u) return base;
  uint32_t v = static_cast<uint32_t>(node);
  auto kills = PairSlice(kills_in_, v);
  auto adds = PairSlice(adds_in_, v);
  if (kills.first == kills.second && adds.first == adds.second) return base;
  std::vector<uint32_t> add_sources;
  add_sources.reserve(static_cast<size_t>(adds.second - adds.first));
  for (auto it = adds.first; it != adds.second; ++it) {
    add_sources.push_back(it->v);  // (v, u) entries: ->v is the source
  }
  return MergeSlices(std::move(base), kills.first, kills.second,
                     add_sources.data(), add_sources.size());
}

bool DeltaOverlay::IsKilled(uint64_t u, uint64_t v) const {
  if (u > ~0u || v > ~0u) return false;
  DeltaPair probe{static_cast<uint32_t>(u), static_cast<uint32_t>(v)};
  return std::binary_search(kills_out_.begin(), kills_out_.end(), probe,
                            PairLess);
}

bool DeltaOverlay::TouchesOut(uint64_t node) const {
  if (node > ~0u) return false;
  uint32_t u = static_cast<uint32_t>(node);
  auto kills = PairSlice(kills_out_, u);
  if (kills.first != kills.second) return true;
  auto adds = EdgeSlice(adds_out_, u);
  return adds.first != adds.second;
}

bool DeltaOverlay::TouchesIn(uint64_t node) const {
  if (node > ~0u) return false;
  uint32_t v = static_cast<uint32_t>(node);
  auto kills = PairSlice(kills_in_, v);
  if (kills.first != kills.second) return true;
  auto adds = PairSlice(adds_in_, v);
  return adds.first != adds.second;
}

bool IsDeltaContainer(ByteSpan bytes) {
  return bytes.size >= sizeof(kDeltaContainerMagic) &&
         std::memcmp(bytes.data, kDeltaContainerMagic,
                     sizeof(kDeltaContainerMagic)) == 0;
}

std::vector<uint8_t> EncodeDeltaContainer(const DeltaContainer& delta) {
  ByteSink sink;
  sink.Append(ByteSpan(
      reinterpret_cast<const uint8_t*>(kDeltaContainerMagic),
      sizeof(kDeltaContainerMagic)));
  sink.PutU64LE(delta.base_hash);
  sink.PutU64LE(delta.base_size);
  sink.PutU64LE(delta.base_dir_checksum);
  sink.PutU64LE(delta.num_nodes);
  sink.PutU32LE(static_cast<uint32_t>(delta.shards.size()));
  for (const DeltaContainer::ChangedShard& shard : delta.shards) {
    sink.PutU32LE(shard.index);
    sink.PutU64LE(shard.payload.size());
    sink.PutU64LE(shard.checksum);
    sink.Append(shard.payload);
  }
  sink.PutU32LE(static_cast<uint32_t>(delta.adds.size()));
  for (const DeltaEdge& e : delta.adds) {
    sink.PutU32LE(e.u);
    sink.PutU32LE(e.v);
    sink.PutU32LE(e.label);
  }
  sink.PutU32LE(static_cast<uint32_t>(delta.kills.size()));
  for (const DeltaPair& p : delta.kills) {
    sink.PutU32LE(p.u);
    sink.PutU32LE(p.v);
  }
  std::vector<uint8_t> bytes = sink.TakeBytes();
  PutU64LE(HashBytes(bytes.data(), bytes.size()), &bytes);
  return bytes;
}

Result<DeltaContainer> DecodeDeltaContainer(ByteSpan bytes,
                                            const std::string& context) {
  const std::string where = context.empty() ? "delta container" : context;
  if (!IsDeltaContainer(bytes)) {
    return Status::InvalidArgument(where +
                                   ": not a GRSHARD3 delta container");
  }
  // The trailing checksum gates everything: a torn or tampered delta
  // is rejected before any field is trusted.
  if (bytes.size < sizeof(kDeltaContainerMagic) + 8) {
    return Status::Corruption(where + ": truncated delta container");
  }
  size_t body_len = bytes.size - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(bytes[body_len + i]) << (8 * i);
  }
  if (HashBytes(bytes.data, body_len) != stored) {
    return Status::Corruption(where + ": delta container checksum mismatch");
  }
  ByteSource src(ByteSpan(bytes.data + sizeof(kDeltaContainerMagic),
                          body_len - sizeof(kDeltaContainerMagic)),
                 where);
  DeltaContainer delta;
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&delta.base_hash));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&delta.base_size));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&delta.base_dir_checksum));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&delta.num_nodes));
  uint32_t shard_count = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&shard_count));
  if (shard_count > src.remaining() / (4 + 8 + 8)) {
    return Status::Corruption(where + ": implausible changed-shard count " +
                              std::to_string(shard_count));
  }
  delta.shards.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    DeltaContainer::ChangedShard shard;
    uint64_t length = 0;
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&shard.index));
    GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&length));
    GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&shard.checksum));
    if (!delta.shards.empty() && shard.index <= delta.shards.back().index) {
      return Status::Corruption(where +
                                ": changed-shard indices not ascending");
    }
    ByteSpan payload;
    GREPAIR_RETURN_IF_ERROR(src.ReadSpan(length, &payload));
    if (HashBytes(payload.data, payload.size) != shard.checksum) {
      return Status::Corruption(where + ": changed shard " +
                                std::to_string(shard.index) +
                                " payload checksum mismatch");
    }
    shard.payload = payload.ToVector();
    delta.shards.push_back(std::move(shard));
  }
  uint32_t add_count = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&add_count));
  if (add_count > src.remaining() / 12) {
    return Status::Corruption(where + ": implausible add count " +
                              std::to_string(add_count));
  }
  delta.adds.reserve(add_count);
  for (uint32_t i = 0; i < add_count; ++i) {
    DeltaEdge e;
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&e.u));
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&e.v));
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&e.label));
    delta.adds.push_back(e);
  }
  uint32_t kill_count = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&kill_count));
  if (kill_count > src.remaining() / 8) {
    return Status::Corruption(where + ": implausible kill count " +
                              std::to_string(kill_count));
  }
  delta.kills.reserve(kill_count);
  for (uint32_t i = 0; i < kill_count; ++i) {
    DeltaPair p;
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&p.u));
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&p.v));
    delta.kills.push_back(p);
  }
  GREPAIR_RETURN_IF_ERROR(src.ExpectExhausted("delta container"));
  // Run sortedness is part of the format; FromRuns re-checks on the
  // consuming side, but a decode must already fail closed.
  auto runs = DeltaOverlay::FromRuns(delta.adds, delta.kills);
  if (!runs.ok()) return runs.status();
  return delta;
}

}  // namespace shard
}  // namespace grepair
