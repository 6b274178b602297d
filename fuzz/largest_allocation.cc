// Replaces the global operator new/delete to record the largest single
// request (see largest_allocation.h). Every throwing and nothrow form
// routes through malloc/free, so the sanitizers see matching pairs;
// out of line, as in attachments_test.

#include "fuzz/largest_allocation.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_largest{0};

void* RecordedAlloc(size_t size) {
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
  }
  if (size > (size_t{1} << 30)) return nullptr;
  return std::malloc(size == 0 ? 1 : size);
}

// Installs the probe before main: g_largest_allocation is constant-
// initialized, so it is already empty when this runs.
const bool g_installed = [] {
  grepair::fuzz::g_largest_allocation.reset = [] { g_largest.store(0); };
  grepair::fuzz::g_largest_allocation.largest = [] {
    return g_largest.load();
  };
  return true;
}();

}  // namespace

[[gnu::noinline]] void* operator new(size_t size) {
  if (void* p = RecordedAlloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](size_t size) {
  if (void* p = RecordedAlloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(size_t size,
                                     const std::nothrow_t&) noexcept {
  return RecordedAlloc(size);
}
[[gnu::noinline]] void* operator new[](size_t size,
                                       const std::nothrow_t&) noexcept {
  return RecordedAlloc(size);
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
