// Unit tests for the DeltaOverlay edit snapshot, the edit-text reader
// and the GRSHARD3 delta-container codec (src/shard/delta_overlay.h).
//
// The overlay's merge rule — out(u) = (base \ killed) u adds — and its
// edit-ordering semantics (a delete erases pending adds of its pair, a
// later add resurrects exactly one edge) are pinned here on small
// hand-checked cases and against a std::set model on random batch
// streams; tests/dynamic_corpus_test.cc proves the same rules
// differentially against full recompression. The container codec
// tests exercise the fail-closed contract: every mutated byte must
// surface as kCorruption, never as a silently different corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/shard/delta_overlay.h"
#include "src/util/hashing.h"

namespace grepair {
namespace shard {
namespace {

using Edits = std::vector<EdgeEdit>;

std::shared_ptr<const DeltaOverlay> MustApply(const DeltaOverlay* base,
                                              const Edits& edits) {
  auto result = DeltaOverlay::Apply(base, edits);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(DeltaOverlayTest, EmptyOverlayIsInert) {
  auto overlay = MustApply(nullptr, {});
  EXPECT_TRUE(overlay->empty());
  EXPECT_EQ(overlay->ByteSize(), 0u);
  EXPECT_EQ(overlay->min_num_nodes(), 0u);
  EXPECT_FALSE(overlay->TouchesOut(0));
  EXPECT_FALSE(overlay->IsKilled(1, 2));
  std::vector<uint64_t> base = {3, 5, 9};
  EXPECT_EQ(overlay->MergeOut(1, base), base);
  EXPECT_EQ(overlay->MergeIn(1, base), base);
}

TEST(DeltaOverlayTest, AddsUnionIntoBaseSorted) {
  auto overlay = MustApply(
      nullptr, {EdgeEdit::Add(1, 7), EdgeEdit::Add(1, 2), EdgeEdit::Add(4, 0)});
  EXPECT_EQ(overlay->add_count(), 3u);
  EXPECT_EQ(overlay->min_num_nodes(), 8u);  // node 7 is the max id
  EXPECT_TRUE(overlay->TouchesOut(1));
  EXPECT_TRUE(overlay->TouchesIn(2));
  EXPECT_TRUE(overlay->TouchesIn(0));
  EXPECT_FALSE(overlay->TouchesOut(2));
  EXPECT_EQ(overlay->MergeOut(1, {5}), (std::vector<uint64_t>{2, 5, 7}));
  EXPECT_EQ(overlay->MergeIn(0, {}), (std::vector<uint64_t>{4}));
  // Untouched node: base passes through untouched.
  EXPECT_EQ(overlay->MergeOut(9, {1, 2}), (std::vector<uint64_t>{1, 2}));
}

TEST(DeltaOverlayTest, MergeIsIdempotentOnAlreadyMergedBase) {
  auto overlay =
      MustApply(nullptr, {EdgeEdit::Add(1, 2), EdgeEdit::Delete(1, 9)});
  // A base answer that already reflects the edits (2 present, 9 gone)
  // must merge to itself — this is what makes the query-time re-merge
  // over a folded shard harmless.
  std::vector<uint64_t> merged = {2, 5};
  EXPECT_EQ(overlay->MergeOut(1, merged), merged);
}

TEST(DeltaOverlayTest, KillRemovesAllLabelsOfPair) {
  auto overlay = MustApply(nullptr, {EdgeEdit::Delete(3, 4)});
  EXPECT_TRUE(overlay->IsKilled(3, 4));
  EXPECT_FALSE(overlay->IsKilled(4, 3));
  EXPECT_EQ(overlay->MergeOut(3, {1, 4, 8}), (std::vector<uint64_t>{1, 8}));
  EXPECT_EQ(overlay->MergeIn(4, {3}), (std::vector<uint64_t>{}));
}

TEST(DeltaOverlayTest, DeleteErasesPendingAddsOfPair) {
  auto overlay = MustApply(nullptr, {EdgeEdit::Add(1, 2, 5),
                                     EdgeEdit::Add(1, 2, 6),
                                     EdgeEdit::Delete(1, 2)});
  // Both pending adds die with the pair; the kill itself stays (base
  // copies of 1->2 must not survive either).
  EXPECT_EQ(overlay->add_count(), 0u);
  EXPECT_EQ(overlay->kill_count(), 1u);
  EXPECT_EQ(overlay->MergeOut(1, {2, 9}), (std::vector<uint64_t>{9}));
}

TEST(DeltaOverlayTest, AddAfterDeleteResurrectsOneEdge) {
  auto overlay = MustApply(nullptr, {EdgeEdit::Delete(1, 2),
                                     EdgeEdit::Add(1, 2, 7)});
  // The kill still applies to base edges, but the union re-adds the
  // pair: net out-neighbor answer contains 2 again.
  EXPECT_EQ(overlay->add_count(), 1u);
  EXPECT_EQ(overlay->kill_count(), 1u);
  EXPECT_EQ(overlay->MergeOut(1, {2}), (std::vector<uint64_t>{2}));
  EXPECT_EQ(overlay->MergeOut(1, {}), (std::vector<uint64_t>{2}));
}

TEST(DeltaOverlayTest, DuplicateAddsCoalesce) {
  auto overlay = MustApply(nullptr, {EdgeEdit::Add(1, 2, 3),
                                     EdgeEdit::Add(1, 2, 3)});
  EXPECT_EQ(overlay->add_count(), 1u);
}

TEST(DeltaOverlayTest, SelfLoopAddRejected) {
  auto result = DeltaOverlay::Apply(nullptr, {EdgeEdit::Add(5, 5)});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaOverlayTest, ApplyStacksOnBaseOverlay) {
  auto first = MustApply(nullptr, {EdgeEdit::Add(1, 2), EdgeEdit::Add(3, 4)});
  auto second = MustApply(first.get(), {EdgeEdit::Delete(1, 2),
                                        EdgeEdit::Add(5, 6)});
  EXPECT_EQ(second->add_count(), 2u);  // (3,4) and (5,6); (1,2) erased
  EXPECT_EQ(second->kill_count(), 1u);
  EXPECT_EQ(second->MergeOut(1, {}), (std::vector<uint64_t>{}));
  EXPECT_EQ(second->MergeOut(3, {}), (std::vector<uint64_t>{4}));
  // The base snapshot is immutable: still answers its own state.
  EXPECT_EQ(first->MergeOut(1, {}), (std::vector<uint64_t>{2}));
}

TEST(DeltaOverlayTest, FromRunsRejectsUnsortedAndDuplicates) {
  // Wire data funnels through FromRuns; disorder is kCorruption.
  auto unsorted = DeltaOverlay::FromRuns(
      {DeltaEdge{2, 1, 0}, DeltaEdge{1, 2, 0}}, {});
  EXPECT_EQ(unsorted.status().code(), StatusCode::kCorruption);
  auto dup_kills = DeltaOverlay::FromRuns(
      {}, {DeltaPair{1, 2}, DeltaPair{1, 2}});
  EXPECT_EQ(dup_kills.status().code(), StatusCode::kCorruption);
  auto ok = DeltaOverlay::FromRuns(
      {DeltaEdge{1, 2, 0}, DeltaEdge{1, 2, 1}}, {DeltaPair{4, 0}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value()->add_count(), 2u);
}

// The reference semantics Apply must reproduce: edits replayed one by
// one into std::sets, as the overlay was first specified.
struct SetModel {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> adds;
  std::set<std::pair<uint32_t, uint32_t>> kills;

  // The first self-loop add's message, or "" after applying the batch.
  std::string Apply(const Edits& edits) {
    SetModel next = *this;
    for (const EdgeEdit& edit : edits) {
      if (edit.kind == EdgeEdit::kAdd) {
        if (edit.u == edit.v) {
          return "cannot add self-loop edge " + std::to_string(edit.u) +
                 " -> " + std::to_string(edit.v);
        }
        next.adds.emplace(edit.u, edit.v, edit.label);
      } else {
        next.kills.emplace(edit.u, edit.v);
        next.adds.erase(next.adds.lower_bound({edit.u, edit.v, 0u}),
                        next.adds.upper_bound({edit.u, edit.v, ~0u}));
      }
    }
    *this = std::move(next);
    return "";
  }

  // out(node) or in(node) over `base`: (base \ kills) u adds.
  std::vector<uint64_t> Merge(uint32_t node, bool out,
                              const std::vector<uint64_t>& base) const {
    std::set<uint64_t> result;
    for (uint64_t other : base) {
      auto pair = out ? std::make_pair(node, static_cast<uint32_t>(other))
                      : std::make_pair(static_cast<uint32_t>(other), node);
      if (kills.count(pair) == 0) result.insert(other);
    }
    for (const auto& [u, v, label] : adds) {
      if ((out ? u : v) == node) result.insert(out ? v : u);
    }
    return {result.begin(), result.end()};
  }

  bool Touches(uint32_t node, bool out) const {
    for (const auto& [u, v] : kills) {
      if ((out ? u : v) == node) return true;
    }
    for (const auto& [u, v, label] : adds) {
      if ((out ? u : v) == node) return true;
    }
    return false;
  }

  uint64_t MinNumNodes() const {
    uint64_t n = 0;
    for (const auto& [u, v, label] : adds) {
      n = std::max<uint64_t>(n, std::max(u, v) + 1ull);
    }
    for (const auto& [u, v] : kills) {
      n = std::max<uint64_t>(n, std::max(u, v) + 1ull);
    }
    return n;
  }
};

void ExpectMatchesModel(const DeltaOverlay& overlay, const SetModel& model,
                        uint32_t ids, std::mt19937* rng) {
  using Triples = std::vector<std::tuple<uint32_t, uint32_t, uint32_t>>;
  using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;
  Triples adds;
  for (const DeltaEdge& e : overlay.adds()) {
    adds.emplace_back(e.u, e.v, e.label);
  }
  EXPECT_EQ(adds, Triples(model.adds.begin(), model.adds.end()));
  Pairs kills;
  for (const DeltaPair& p : overlay.kills()) kills.emplace_back(p.u, p.v);
  EXPECT_EQ(kills, Pairs(model.kills.begin(), model.kills.end()));
  EXPECT_EQ(overlay.min_num_nodes(), model.MinNumNodes());
  for (uint32_t node = 0; node <= ids; ++node) {
    std::vector<uint64_t> base;
    for (uint64_t other = 0; other <= ids; ++other) {
      if ((*rng)() % 2 == 0) base.push_back(other);
    }
    EXPECT_EQ(overlay.TouchesOut(node), model.Touches(node, true)) << node;
    EXPECT_EQ(overlay.TouchesIn(node), model.Touches(node, false)) << node;
    EXPECT_EQ(overlay.MergeOut(node, base), model.Merge(node, true, base))
        << node;
    EXPECT_EQ(overlay.MergeIn(node, base), model.Merge(node, false, base))
        << node;
  }
}

// Random batch streams over 8 ids, so pairs collide within and across
// batches: three labels, deletes before and after adds of one pair,
// duplicate adds, and batches with a self-loop add, which must fail
// with the first self-loop's message and leave the stream as it was.
// Each snapshot, and FromRuns over its runs, must match the set model.
TEST(DeltaOverlayTest, RandomStreamsMatchASetModel) {
  constexpr uint32_t kIds = 8;
  std::mt19937 rng(31);
  int rejected = 0;
  for (int stream = 0; stream < 1000; ++stream) {
    SetModel model;
    std::shared_ptr<const DeltaOverlay> overlay;
    const int batches = 1 + static_cast<int>(rng() % 6);
    for (int batch = 0; batch < batches; ++batch) {
      Edits edits;
      const size_t size = rng() % 10;
      const bool with_self_loop = rng() % 8 == 0;
      for (size_t i = 0; i < size; ++i) {
        uint32_t u = rng() % kIds;
        uint32_t v = rng() % kIds;
        if (!edits.empty() && rng() % 3 == 0) {
          const EdgeEdit& earlier = edits[rng() % edits.size()];
          u = earlier.u;
          v = earlier.v;
        }
        if (rng() % 2 == 0) {
          if (u == v) v = (u + 1) % kIds;
          edits.push_back(EdgeEdit::Add(u, v, rng() % 3));
        } else {
          edits.push_back(EdgeEdit::Delete(u, v));
        }
      }
      if (with_self_loop) {
        const uint32_t w = rng() % kIds;
        edits.insert(edits.begin() + static_cast<long>(rng() % (size + 1)),
                     EdgeEdit::Add(w, w));
      }
      const std::string error = model.Apply(edits);
      auto next = DeltaOverlay::Apply(overlay.get(), edits);
      if (!error.empty()) {
        ++rejected;
        ASSERT_EQ(next.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(next.status().message().rfind(error, 0), 0u)
            << next.status().message();
        continue;
      }
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      overlay = std::move(next).ValueOrDie();
      ExpectMatchesModel(*overlay, model, kIds, &rng);
      auto rebuilt = DeltaOverlay::FromRuns(overlay->adds(), overlay->kills());
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      ExpectMatchesModel(*rebuilt.value(), model, kIds, &rng);
      if (HasFailure()) {
        FAIL() << "stream " << stream << " batch " << batch;
      }
    }
  }
  EXPECT_GT(rejected, 100);
}

TEST(EditTextTest, ParsesAddsDeletesLabelsAndComments) {
  auto edits = ParseEditText(
      "# header\na 17 4021\r\n\n  d\t9 12  # retract\na 1 2 4294967295");
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  ASSERT_EQ(edits.value().size(), 3u);
  EXPECT_EQ(edits.value()[0].kind, EdgeEdit::kAdd);
  EXPECT_EQ(edits.value()[0].u, 17u);
  EXPECT_EQ(edits.value()[0].v, 4021u);
  EXPECT_EQ(edits.value()[0].label, 0u);
  EXPECT_EQ(edits.value()[1].kind, EdgeEdit::kDelete);
  EXPECT_EQ(edits.value()[1].u, 9u);
  EXPECT_EQ(edits.value()[1].v, 12u);
  EXPECT_EQ(edits.value()[2].label, 4294967295u);
  EXPECT_TRUE(ParseEditText("").ok());
}

TEST(EditTextTest, RefusesPartialTokensAndExtraFields) {
  for (const char* line :
       {"a 1 2x", "a 1 2 3 junk", "a 1 2 3 4", "d 1 2 3", "a 1",
        "a 1 4294967296", "a -1 2", "a +1 2", "add 1 2", "a1 2 3", "x 1 2"}) {
    auto edits = ParseEditText(std::string("a 5 6\n") + line + "\n");
    EXPECT_EQ(edits.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(edits.status().message(),
              std::string("line 2: expected 'a u v [label]' or 'd u v', "
                          "got '") + line + "'");
    auto in_file = ParseEditText(line, "batch.txt");
    EXPECT_EQ(in_file.status().message().rfind("batch.txt:1: expected", 0),
              0u)
        << in_file.status().message();
  }
}

DeltaContainer SampleDelta() {
  DeltaContainer delta;
  delta.base_hash = 0x1234567890abcdefull;
  delta.base_size = 4096;
  delta.base_dir_checksum = 0xfeedface;
  delta.num_nodes = 1000;
  DeltaContainer::ChangedShard shard;
  shard.index = 2;
  shard.payload = {1, 2, 3, 4, 5};
  shard.checksum = HashBytes(shard.payload.data(), shard.payload.size());
  delta.shards.push_back(std::move(shard));
  delta.adds = {DeltaEdge{1, 2, 0}, DeltaEdge{7, 3, 9}};
  delta.kills = {DeltaPair{0, 4}};
  return delta;
}

TEST(DeltaContainerTest, EncodeDecodeRoundTrip) {
  DeltaContainer delta = SampleDelta();
  auto bytes = EncodeDeltaContainer(delta);
  ASSERT_TRUE(IsDeltaContainer(SpanOf(bytes)));
  auto back = DecodeDeltaContainer(SpanOf(bytes), "test");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const DeltaContainer& d = back.value();
  EXPECT_EQ(d.base_hash, delta.base_hash);
  EXPECT_EQ(d.base_size, delta.base_size);
  EXPECT_EQ(d.base_dir_checksum, delta.base_dir_checksum);
  EXPECT_EQ(d.num_nodes, delta.num_nodes);
  ASSERT_EQ(d.shards.size(), 1u);
  EXPECT_EQ(d.shards[0].index, 2u);
  EXPECT_EQ(d.shards[0].payload, delta.shards[0].payload);
  EXPECT_EQ(d.adds, delta.adds);
  EXPECT_EQ(d.kills, delta.kills);
}

TEST(DeltaContainerTest, NotADeltaIsInvalidArgument) {
  std::vector<uint8_t> bytes = {'G', 'R', 'P', 'C', 'O', 'D', 'E', 'C', 0};
  auto result = DecodeDeltaContainer(SpanOf(bytes), "test");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaContainerTest, EveryFlippedByteFailsClosed) {
  auto bytes = EncodeDeltaContainer(SampleDelta());
  // Flip each byte after the magic in turn: the decode must never
  // succeed (trailing checksum, shard checksum, or run sortedness
  // catches it), and must fail with kCorruption, not a crash.
  for (size_t i = 8; i < bytes.size(); ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[i] ^= 0x5a;
    auto result = DecodeDeltaContainer(SpanOf(mutated), "flip");
    EXPECT_FALSE(result.ok()) << "byte " << i << " flip decoded";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
          << "byte " << i << ": " << result.status().ToString();
    }
  }
}

TEST(DeltaContainerTest, EveryTruncationFailsClosed) {
  auto bytes = EncodeDeltaContainer(SampleDelta());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto result = DecodeDeltaContainer(ByteSpan{bytes.data(), len}, "trunc");
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(DeltaContainerTest, DescendingShardIndicesRejected) {
  DeltaContainer delta = SampleDelta();
  DeltaContainer::ChangedShard earlier;
  earlier.index = 1;  // after index 2 — violates strict ascent
  earlier.payload = {9};
  earlier.checksum = HashBytes(earlier.payload.data(), 1);
  delta.shards.push_back(std::move(earlier));
  auto bytes = EncodeDeltaContainer(delta);
  auto result = DecodeDeltaContainer(SpanOf(bytes), "order");
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace shard
}  // namespace grepair
