// The largest single heap request a parse makes, for checks that hold
// untrusted-input parsers to an allocation bounded by their input.
//
// A binary that compiles fuzz/largest_allocation.cc replaces the global
// operator new with one that records the largest request since the
// last reset, and refuses any request above 1 GiB, so that a parser
// sized by an untrusted count fails its check rather than exhausting
// memory. That file installs the probe below; in any other binary (the
// libFuzzer builds, whose sanitizer owns operator new, and tests that
// replace it themselves) the probe stays empty and the checks that use
// it skip the bound.

#ifndef GREPAIR_FUZZ_LARGEST_ALLOCATION_H_
#define GREPAIR_FUZZ_LARGEST_ALLOCATION_H_

#include <cstddef>

namespace grepair {
namespace fuzz {

/// \brief Resets and reads the recorded largest request; both null
/// unless the binary compiles largest_allocation.cc.
struct LargestAllocationProbe {
  void (*reset)() = nullptr;
  size_t (*largest)() = nullptr;
  bool installed() const { return reset != nullptr; }
};

inline LargestAllocationProbe g_largest_allocation;

}  // namespace fuzz
}  // namespace grepair

#endif  // GREPAIR_FUZZ_LARGEST_ALLOCATION_H_
