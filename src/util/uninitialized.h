// Vectors that grow without zero-filling.
//
// resize() value-initializes the elements it adds, so a std::vector of
// integers writes zeros over memory its caller is about to overwrite.
// The decode path sizes its buffers from an upper bound (one k^2-tree
// level per bit, one CSR slot per edge) and then writes every slot it
// keeps, so it uses UninitializedVector: the same std::vector, whose
// allocator default-initializes instead, which leaves trivial elements
// as they are.

#ifndef GREPAIR_UTIL_UNINITIALIZED_H_
#define GREPAIR_UTIL_UNINITIALIZED_H_

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace grepair {

/// \brief std::allocator whose value-initialization leaves trivial
/// elements uninitialized.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// \brief A std::vector whose resize() does not zero-fill: every slot
/// it adds must be written before it is read.
template <typename T>
using UninitializedVector = std::vector<T, UninitializedAllocator<T>>;

}  // namespace grepair

#endif  // GREPAIR_UTIL_UNINITIALIZED_H_
