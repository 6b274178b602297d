// Tests for digram shapes (Definitions 2-3): canonical orientation,
// externality handling, rule construction and occurrence node mapping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <new>
#include <numeric>
#include <set>

#include "src/grepair/digram.h"
#include "src/util/rng.h"

namespace grepair {
namespace {

// Above any digram's rank: two rank-63 edges have at most 126 nodes.
constexpr int kNoRankLimit = 2 * kMaxSharedPositions;

std::function<bool(NodeId)> ExternalSet(std::set<NodeId> ext) {
  return [ext = std::move(ext)](NodeId v) { return ext.count(v) > 0; };
}

HEdge MakeEdge(Label l, const std::vector<NodeId>& att) {
  return HEdge{l, Attachments(att.data(), att.size())};
}

// ComputeDigramShape for a pair whose nodes are external exactly where
// `is_external` (Definition 3, condition 3) says so. The predicate
// becomes the degrees the compressor keeps: the pair's own edges at a
// node, plus one outside edge at each external node.
template <typename IsExternal>
bool ShapeFor(const HEdge& a, const HEdge& b, const IsExternal& is_external,
              DigramShape* shape, bool* swapped,
              int max_rank = kNoRankLimit) {
  auto degree = [&](NodeId v) {
    return static_cast<uint32_t>(
        (is_external(v) ? 1 : 0) +
        std::count(a.att.begin(), a.att.end(), v) +
        std::count(b.att.begin(), b.att.end(), v));
  };
  return ComputeDigramShape(a, b, degree, max_rank, shape, swapped);
}

TEST(DigramShapeTest, DisconnectedEdgesAreNoDigram) {
  DigramShape shape;
  bool swapped;
  EXPECT_FALSE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(0, {2, 3}),
                                  ExternalSet({}), &shape, &swapped));
}

TEST(DigramShapeTest, ChainDigram) {
  // a: 0->1, b: 1->2; middle node internal, ends external.
  DigramShape shape;
  bool swapped;
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(1, {1, 2}),
                                 ExternalSet({0, 2}), &shape, &swapped));
  EXPECT_EQ(shape.NumNodes(), 3);
  EXPECT_EQ(shape.NumExternal(), 2);
  EXPECT_EQ(shape.NumInternal(), 1);
  ASSERT_EQ(shape.shared.size(), 1u);
}

TEST(DigramShapeTest, CanonicalUnderSwap) {
  // The same pair given in both orders must produce identical shapes.
  HEdge a = MakeEdge(0, {0, 1});
  HEdge b = MakeEdge(1, {1, 2});
  auto ext = ExternalSet({0, 2});
  DigramShape s1, s2;
  bool sw1, sw2;
  ASSERT_TRUE(ShapeFor(a, b, ext, &s1, &sw1));
  ASSERT_TRUE(ShapeFor(b, a, ext, &s2, &sw2));
  EXPECT_TRUE(s1 == s2);
  EXPECT_NE(sw1, sw2);  // exactly one ordering got swapped
}

TEST(DigramShapeTest, DirectionDistinguishesShapes) {
  // a->b chain vs a<-b chain (directions differ) are different digrams.
  auto ext = ExternalSet({0, 2});
  DigramShape chain, converge;
  bool sw;
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(0, {1, 2}),
                                 ext, &chain, &sw));
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(0, {2, 1}),
                                 ext, &converge, &sw));
  EXPECT_FALSE(chain == converge);
}

TEST(DigramShapeTest, ExternalityDistinguishesShapes) {
  // Same topology, but in one occurrence the middle node has outside
  // edges (Figure 4's two grammars differ exactly this way).
  DigramShape middle_internal, middle_external;
  bool sw;
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(0, {1, 2}),
                                 ExternalSet({0, 2}), &middle_internal, &sw));
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(0, {1, 2}),
                                 ExternalSet({0, 1, 2}), &middle_external,
                                 &sw));
  EXPECT_FALSE(middle_internal == middle_external);
  EXPECT_EQ(middle_internal.NumExternal(), 2);
  EXPECT_EQ(middle_external.NumExternal(), 3);
}

TEST(DigramShapeTest, EightUnlabeledDigrams) {
  // Figure 2: with one label and fully external nodes there are exactly
  // eight digrams over two direction-bearing rank-2 edges sharing one
  // node (2 orientations of the shared node in each edge x ... = 8,
  // minus symmetric double counting). Enumerate all oriented pairs and
  // count canonical shapes.
  std::set<std::vector<uint64_t>> shapes;
  auto ext = ExternalSet({0, 1, 2});
  // Edge x uses nodes {0,1}, edge y uses {1,2}, in all 4 direction
  // combinations; plus the "parallel" cases where both use {0,1}.
  std::vector<HEdge> xs = {MakeEdge(0, {0, 1}), MakeEdge(0, {1, 0})};
  std::vector<HEdge> ys = {MakeEdge(0, {1, 2}), MakeEdge(0, {2, 1}),
                           MakeEdge(0, {0, 1}), MakeEdge(0, {1, 0})};
  for (const auto& x : xs) {
    for (const auto& y : ys) {
      DigramShape s;
      bool sw;
      if (ShapeFor(x, y, ext, &s, &sw)) {
        std::vector<uint64_t> key{s.label0, s.label1, s.rank0, s.rank1,
                                  s.ext0, s.ext1};
        for (auto p : s.shared) key.push_back(p);
        shapes.insert(key);
      }
    }
  }
  // Chain (x out of shared node, y in), convergent (both in), divergent
  // (both out) — head-tail and tail-head chains coincide under the
  // canonical orientation — plus parallel and antiparallel double
  // edges: 5 canonical shapes. (The paper's Figure 2 counts 8 possible
  // digrams for undirected unlabeled edges, a different enumeration
  // that includes shapes restriction (1) and externality fold together
  // here.)
  EXPECT_EQ(shapes.size(), 5u);
}

TEST(DigramRhsTest, CanonicalFormChain) {
  DigramShape shape;
  bool swapped;
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {10, 11}), MakeEdge(1, {11, 12}),
                                 ExternalSet({10, 12}), &shape, &swapped));
  Hypergraph rhs = BuildDigramRhs(shape);
  EXPECT_EQ(rhs.num_nodes(), 3u);
  ASSERT_EQ(rhs.ext().size(), 2u);
  EXPECT_EQ(rhs.ext()[0], 0u);
  EXPECT_EQ(rhs.ext()[1], 1u);
  ASSERT_EQ(rhs.num_edges(), 2u);
  // Rule application must reproduce the chain: one edge enters the
  // internal node (id 2), the other leaves it.
  const HEdge* in_edge = nullptr;
  const HEdge* out_edge = nullptr;
  for (const auto& e : rhs.edges()) {
    if (e.att[1] == 2) in_edge = &e;
    if (e.att[0] == 2) out_edge = &e;
  }
  ASSERT_NE(in_edge, nullptr);
  ASSERT_NE(out_edge, nullptr);
  EXPECT_EQ(in_edge->label, 0u);
  EXPECT_EQ(out_edge->label, 1u);
}

TEST(DigramRhsTest, MapOccurrenceNodesMatchesRhs) {
  // Star pair: hub external, two leaves internal.
  HEdge a = MakeEdge(0, {7, 20});
  HEdge b = MakeEdge(0, {7, 30});
  DigramShape shape;
  bool swapped;
  ASSERT_TRUE(ShapeFor(a, b, ExternalSet({7}), &shape, &swapped));
  EXPECT_EQ(shape.NumExternal(), 1);
  EXPECT_EQ(shape.NumInternal(), 2);

  Attachments attachment;
  std::vector<NodeId> removal;
  const auto& att0 = swapped ? b.att : a.att;
  const auto& att1 = swapped ? a.att : b.att;
  MapOccurrenceNodes(shape, att0, att1, &attachment, &removal);
  EXPECT_EQ(attachment, (Attachments{7}));
  ASSERT_EQ(removal.size(), 2u);
  EXPECT_TRUE((removal[0] == 20 && removal[1] == 30) ||
              (removal[0] == 30 && removal[1] == 20));
}

TEST(DigramRhsTest, HyperedgePair) {
  // Rank-3 hyperedge sharing two nodes with a rank-2 edge.
  HEdge h = MakeEdge(2, {1, 2, 3});
  HEdge e = MakeEdge(0, {3, 1});
  DigramShape shape;
  bool swapped;
  ASSERT_TRUE(
      ShapeFor(h, e, ExternalSet({1, 2}), &shape, &swapped));
  EXPECT_EQ(shape.NumNodes(), 3);
  EXPECT_EQ(shape.shared.size(), 2u);
  EXPECT_EQ(shape.NumExternal(), 2);
  Hypergraph rhs = BuildDigramRhs(shape);
  EXPECT_EQ(rhs.num_nodes(), 3u);
  EXPECT_EQ(rhs.ext().size(), 2u);
  // Total size: 3 nodes + hyperedge (3) + simple edge (1).
  EXPECT_EQ(rhs.TotalSize(), 7u);
}

TEST(DigramShapeTest, HashEqualForEqualShapes) {
  auto ext = ExternalSet({0, 2});
  DigramShape s1, s2;
  bool sw;
  ASSERT_TRUE(ShapeFor(MakeEdge(0, {0, 1}), MakeEdge(1, {1, 2}),
                                 ext, &s1, &sw));
  ASSERT_TRUE(ShapeFor(MakeEdge(1, {5, 6}), MakeEdge(0, {4, 5}),
                                 ExternalSet({4, 6}), &s2, &sw));
  EXPECT_TRUE(s1 == s2);  // same digram at different nodes
  EXPECT_EQ(DigramShapeHash()(s1), DigramShapeHash()(s2));
}

// SharedPositions leaves the slots past size() unfilled. Shapes whose
// dead slots hold leftovers -- built over scribbled memory, shrunk by
// clear(), overwritten by assignment or by a double transpose -- must
// compare and hash exactly like a freshly built shape.
TEST(DigramShapeTest, CopiesCompareAndHashOnlyTheLivePrefix) {
  const HEdge a = MakeEdge(0, {0, 1, 2});
  const HEdge b = MakeEdge(0, {2, 1, 3});
  auto ext = ExternalSet({0, 3});
  auto expect_same = [](const DigramShape& x, const DigramShape& y) {
    EXPECT_TRUE(x == y);
    EXPECT_FALSE(x < y || y < x);
    EXPECT_EQ(DigramShapeHash()(x), DigramShapeHash()(y));
  };
  auto fill_dead_slots = [](SharedPositions* p) {
    p->clear();
    for (int i = 0; i < kMaxSharedPositions; ++i) p->push_back(0x3F3F);
    p->clear();
  };
  DigramShape fresh;
  bool swapped = false;
  ASSERT_TRUE(ShapeFor(a, b, ext, &fresh, &swapped));
  ASSERT_EQ(fresh.shared.size(), 2u);

  alignas(DigramShape) unsigned char raw[sizeof(DigramShape)];
  std::memset(raw, 0xA5, sizeof(raw));
  DigramShape* scribbled = new (raw) DigramShape;
  fill_dead_slots(&scribbled->shared);
  ASSERT_TRUE(ShapeFor(a, b, ext, scribbled, &swapped));
  expect_same(*scribbled, fresh);

  const DigramShape copied = *scribbled;
  expect_same(copied, fresh);
  DigramShape assigned;
  fill_dead_slots(&assigned.shared);
  assigned = *scribbled;
  expect_same(assigned, fresh);
  scribbled->~DigramShape();

  SharedPositions there, back;
  fill_dead_slots(&there);
  fill_dead_slots(&back);
  internal::Transpose(fresh.shared, &there);
  internal::Transpose(there, &back);
  DigramShape round_trip = fresh;
  round_trip.shared = back;
  expect_same(round_trip, fresh);
}

// Reference canonicalization: builds both orientations in full and keeps
// the smaller one, the definition ComputeDigramShape must agree with.
template <typename IsExternal>
bool OrientedShapeReference(const HEdge& x, const HEdge& y,
                            const IsExternal& is_external,
                            DigramShape* shape) {
  shape->label0 = x.label;
  shape->label1 = y.label;
  shape->rank0 = static_cast<uint8_t>(x.att.size());
  shape->rank1 = static_cast<uint8_t>(y.att.size());
  shape->shared.clear();
  shape->ext0 = 0;
  shape->ext1 = 0;
  for (size_t i = 0; i < x.att.size(); ++i) {
    for (size_t j = 0; j < y.att.size(); ++j) {
      if (x.att[i] == y.att[j]) {
        shape->shared.push_back(static_cast<uint16_t>((i << 8) | j));
      }
    }
  }
  if (shape->shared.empty()) return false;
  for (size_t i = 0; i < x.att.size(); ++i) {
    if (is_external(x.att[i])) shape->ext0 |= 1ull << i;
  }
  for (size_t j = 0; j < y.att.size(); ++j) {
    if (is_external(y.att[j])) shape->ext1 |= 1ull << j;
  }
  return true;
}

template <typename IsExternal>
bool DigramShapeReference(const HEdge& a, const HEdge& b,
                          const IsExternal& is_external, DigramShape* shape,
                          bool* swapped) {
  DigramShape forward, backward;
  if (!OrientedShapeReference(a, b, is_external, &forward)) return false;
  EXPECT_TRUE(OrientedShapeReference(b, a, is_external, &backward));
  *swapped = backward < forward;
  *shape = *swapped ? backward : forward;
  return true;
}

// Checks ComputeDigramShape, which derives externality from degrees
// and shared positions, against the reference, which applies
// Definition 3 literally, on one pair in both argument orders. Under a
// rank limit, exactly the digrams above it must be rejected.
void ExpectMatchesReference(const HEdge& a, const HEdge& b,
                            const std::vector<char>& external,
                            int max_rank = kNoRankLimit) {
  auto is_external = [&](NodeId v) { return external[v] != 0; };
  for (int order = 0; order < 2; ++order) {
    const HEdge& x = order == 0 ? a : b;
    const HEdge& y = order == 0 ? b : a;
    DigramShape got, want;
    bool got_swapped = false, want_swapped = false;
    bool got_ok = ShapeFor(x, y, is_external, &got, &got_swapped, max_rank);
    bool want_ok =
        DigramShapeReference(x, y, is_external, &want, &want_swapped) &&
        want.NumExternal() <= max_rank;
    ASSERT_EQ(got_ok, want_ok);
    if (!want_ok) continue;
    EXPECT_TRUE(got == want);
    EXPECT_FALSE(got < want || want < got);
    EXPECT_EQ(got_swapped, want_swapped);
    EXPECT_EQ(DigramShapeHash()(got), DigramShapeHash()(want));
    EXPECT_EQ(got.NumExternal(), want.NumExternal());
  }
}

// `rank` distinct nodes drawn from [0, universe).
std::vector<NodeId> DrawAttachment(Rng* rng, uint32_t rank,
                                   uint32_t universe) {
  std::vector<NodeId> pool(universe);
  std::iota(pool.begin(), pool.end(), 0u);
  for (uint32_t i = 0; i < rank; ++i) {
    std::swap(pool[i], pool[i + rng->UniformBounded(universe - i)]);
  }
  pool.resize(rank);
  return pool;
}

TEST(DigramShapeTest, MatchesBothOrientationReferenceOnRandomPairs) {
  Rng rng(2016);
  for (int trial = 0; trial < 4000; ++trial) {
    const bool equal_labels = trial % 2 == 0;
    const uint32_t rank0 = static_cast<uint32_t>(rng.UniformInt(1, 63));
    const uint32_t rank1 =
        equal_labels ? rank0 : static_cast<uint32_t>(rng.UniformInt(1, 63));
    // A universe below rank0 + rank1 forces a shared node; one trial in
    // eight may draw disconnected edges.
    const uint32_t lo = std::max(rank0, rank1);
    const uint32_t hi = trial % 8 == 1 ? rank0 + rank1 + 4 : rank0 + rank1 - 1;
    const uint32_t universe = static_cast<uint32_t>(rng.UniformInt(lo, hi));
    const Label l0 = static_cast<Label>(rng.UniformBounded(4));
    const Label l1 = equal_labels ? l0 : l0 + 1 + rng.UniformBounded(3);
    HEdge a = MakeEdge(l0, DrawAttachment(&rng, rank0, universe));
    HEdge b = MakeEdge(l1, DrawAttachment(&rng, rank1, universe));
    // Externality: none, all, or a random subset, so masks tie often.
    std::vector<char> external(universe);
    const int mode = static_cast<int>(rng.UniformBounded(3));
    for (auto& x : external) {
      x = mode == 0 ? 0 : mode == 1 ? 1 : rng.Bernoulli(0.5);
    }
    ExpectMatchesReference(a, b, external);
    // The same pair under a rank limit that cuts some digrams off.
    const int max_rank = static_cast<int>(rng.UniformInt(0, 8));
    ExpectMatchesReference(a, b, external, max_rank);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial << " ranks " << rank0 << "/"
                    << rank1 << " universe " << universe << " max_rank "
                    << max_rank;
      return;
    }
  }
}

TEST(DigramShapeTest, Rank63PairSharingAllNodes) {
  // The capacity edge: two rank-63 edges over the same 63 nodes share
  // all 63 positions.
  Rng rng(63);
  for (int trial = 0; trial < 200; ++trial) {
    const bool equal_labels = trial % 2 == 0;
    HEdge a = MakeEdge(0, DrawAttachment(&rng, 63, 63));
    HEdge b = MakeEdge(equal_labels ? 0 : 1, DrawAttachment(&rng, 63, 63));
    if (trial < 4) b.att = a.att;  // identical attachment: a full tie
    std::vector<char> external(63);
    const int mode = trial % 3;
    for (auto& x : external) {
      x = mode == 0 ? 0 : mode == 1 ? 1 : rng.Bernoulli(0.5);
    }
    ExpectMatchesReference(a, b, external);
    DigramShape shape;
    bool swapped;
    ASSERT_TRUE(ShapeFor(
        a, b, [&](NodeId v) { return external[v] != 0; }, &shape,
        &swapped));
    EXPECT_EQ(shape.shared.size(), 63u);
    EXPECT_EQ(shape.NumNodes(), 63);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

}  // namespace
}  // namespace grepair
