// Attachments, the inline attachment sequence of HEdge: copy, move and
// self-assignment across the inline/heap boundary, growth, equality and
// ordering against std::vector, and an allocation regression check.
// This binary replaces the global operator new/delete to count heap
// allocations: adding rank-2 and rank-4 edges to a graph with reserved
// edge storage, and deriving a grammar, must not allocate per edge.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/grammar/derivation.h"
#include "src/graph/hypergraph.h"
#include "src/util/rng.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every throwing and nothrow form routes through malloc/free, so the
// count sees each allocation and the sanitizers see matching pairs.
// They stay out of line: once malloc or free is inlined next to a new
// or delete expression, GCC reports the pair as mismatched
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(size_t size,
                                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new[](size_t size,
                                       const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace grepair {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

Attachments Iota(size_t n, NodeId first = 0) {
  Attachments att;
  for (size_t i = 0; i < n; ++i) att.push_back(first + static_cast<NodeId>(i));
  return att;
}

std::vector<NodeId> AsVector(const Attachments& att) {
  return std::vector<NodeId>(att.begin(), att.end());
}

std::vector<NodeId> IotaVector(size_t n, NodeId first = 0) {
  std::vector<NodeId> v;
  for (size_t i = 0; i < n; ++i) v.push_back(first + static_cast<NodeId>(i));
  return v;
}

// Sizes on both sides of the inline capacity.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 8, 9, 63};

TEST(AttachmentsTest, BuildsLikeAVector) {
  EXPECT_TRUE(Attachments().empty());
  Attachments list = {7, 3, 9};
  EXPECT_EQ(AsVector(list), (std::vector<NodeId>{7, 3, 9}));
  std::vector<NodeId> src = IotaVector(6, 10);
  Attachments from_pointer(src.data(), src.size());
  EXPECT_EQ(AsVector(from_pointer), src);
  // Growth across the inline/heap boundary keeps every element.
  Attachments grown;
  for (NodeId v = 0; v < 70; ++v) {
    grown.push_back(v * 3);
    ASSERT_EQ(grown.size(), v + 1u);
    ASSERT_EQ(grown[v], v * 3);
    ASSERT_EQ(grown[0], 0u);
  }
  grown[5] = 99;
  EXPECT_EQ(grown[5], 99u);
}

TEST(AttachmentsTest, ResizeZeroFillsAndTruncates) {
  Attachments att = {5, 6};
  att.resize(7);
  EXPECT_EQ(AsVector(att), (std::vector<NodeId>{5, 6, 0, 0, 0, 0, 0}));
  att.resize(1);
  EXPECT_EQ(AsVector(att), (std::vector<NodeId>{5}));
  att.resize(3);
  EXPECT_EQ(AsVector(att), (std::vector<NodeId>{5, 0, 0}));
}

TEST(AttachmentsTest, CopyAndMoveAcrossTheBoundary) {
  for (size_t from : kSizes) {
    for (size_t to : kSizes) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      const Attachments source = Iota(from, 100);
      Attachments copied(source);
      EXPECT_EQ(AsVector(copied), IotaVector(from, 100));

      Attachments assigned = Iota(to);
      assigned = source;
      EXPECT_EQ(AsVector(assigned), IotaVector(from, 100));
      EXPECT_EQ(AsVector(source), IotaVector(from, 100));

      Attachments moved_from = Iota(from, 100);
      Attachments moved(std::move(moved_from));
      EXPECT_EQ(AsVector(moved), IotaVector(from, 100));
      EXPECT_TRUE(moved_from.empty());  // NOLINT(bugprone-use-after-move)
      moved_from.push_back(1);  // NOLINT(bugprone-use-after-move): reuse
      EXPECT_EQ(AsVector(moved_from), (std::vector<NodeId>{1}));

      Attachments move_assigned = Iota(to);
      Attachments donor = Iota(from, 100);
      move_assigned = std::move(donor);
      EXPECT_EQ(AsVector(move_assigned), IotaVector(from, 100));
      EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(AttachmentsTest, SelfAssignmentKeepsTheContents) {
  for (size_t n : kSizes) {
    Attachments att = Iota(n, 40);
    Attachments& alias = att;
    att = alias;
    EXPECT_EQ(AsVector(att), IotaVector(n, 40)) << n;
    att = std::move(alias);
    EXPECT_EQ(AsVector(att), IotaVector(n, 40)) << n;
    // Assigning a tail of itself: the source overlaps the destination.
    if (n > 1) {
      att.assign(att.data() + 1, n - 1);
      EXPECT_EQ(AsVector(att), IotaVector(n - 1, 41)) << n;
    }
  }
}

TEST(AttachmentsTest, EqualityAndOrderMatchVector) {
  Rng rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    // Short sequences over a tiny alphabet: equal elements, shared
    // prefixes and proper prefixes come up often.
    std::vector<NodeId> a(rng.UniformBounded(7)), b(rng.UniformBounded(7));
    for (auto& v : a) v = static_cast<NodeId>(rng.UniformBounded(3));
    for (auto& v : b) v = static_cast<NodeId>(rng.UniformBounded(3));
    if (trial % 5 == 0) b = a;
    const Attachments x(a.data(), a.size());
    const Attachments y(b.data(), b.size());
    ASSERT_EQ(x == y, a == b) << trial;
    ASSERT_EQ(x != y, a != b) << trial;
    ASSERT_EQ(x < y, a < b) << trial;
    ASSERT_EQ(y < x, b < a) << trial;
  }
}

TEST(AttachmentsTest, ClearedHeapSequenceRefillsWithoutAllocating) {
  Attachments att = Iota(20);
  att.clear();
  const uint64_t before = Allocations();
  for (NodeId v = 0; v < 20; ++v) att.push_back(v);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(AsVector(att), IotaVector(20));
}

TEST(AttachmentAllocationTest, AddEdgeIntoAReservedGraphAllocatesNothing) {
  constexpr uint32_t kEdges = 1000;
  Hypergraph g(kEdges + 4);
  g.ReserveEdges(2 * kEdges);
  const uint64_t before = Allocations();
  for (NodeId v = 0; v < kEdges; ++v) {
    g.AddSimpleEdge(v, v + 1, 0);
    g.AddEdge(1, {v, v + 1, v + 2, v + 3});
  }
  EXPECT_EQ(Allocations() - before, 0u);
  ASSERT_EQ(g.num_edges(), 2 * kEdges);
  EXPECT_EQ(AsVector(g.edge(2 * 7 + 1).att),
            (std::vector<NodeId>{7, 8, 9, 10}));
}

// A chain of `n` A-edges; A derives a rank-2 edge, a rank-4 hyperedge
// over both externals and both internals, and another rank-2 edge.
SlhrGrammar ChainGrammar(uint32_t n) {
  Alphabet terminals;
  const Label a = terminals.Add("a", 2);
  const Label h = terminals.Add("h", 4);
  SlhrGrammar g(std::move(terminals), Hypergraph(n + 1));
  const Label nt = g.AddNonterminal(2, "A");
  Hypergraph rhs(4);
  rhs.AddEdge(a, {0, 2});
  rhs.AddEdge(h, {2, 3, 0, 1});
  rhs.AddEdge(a, {3, 1});
  rhs.SetExternal({0, 1});
  g.SetRule(nt, std::move(rhs));
  for (NodeId v = 0; v < n; ++v) g.mutable_start()->AddEdge(nt, {v, v + 1});
  return g;
}

uint64_t DeriveAllocations(const SlhrGrammar& grammar) {
  const uint64_t before = Allocations();
  Result<Hypergraph> derived = Derive(grammar);
  const uint64_t used = Allocations() - before;
  EXPECT_TRUE(derived.ok());
  return used;
}

TEST(AttachmentAllocationTest, DeriveAllocatesNothingPerEdge) {
  const SlhrGrammar small = ChainGrammar(10);
  const SlhrGrammar large = ChainGrammar(1000);
  ASSERT_TRUE(small.Validate().ok());
  ASSERT_TRUE(large.Validate().ok());
  Result<Hypergraph> derived = Derive(large);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived.value().num_edges(), 3000u);
  // A hundred times the edges, the same fixed allocations: the edge
  // list is reserved once and no edge allocates.
  EXPECT_EQ(DeriveAllocations(large), DeriveAllocations(small));
}

}  // namespace
}  // namespace grepair
