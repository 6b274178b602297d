// libFuzzer target for the GRSHARD3 delta-container parser that every
// versioned open runs on each delta file: shard::DecodeDeltaContainer.
// Each input is decoded as given and again with its trailing checksum
// recomputed, so mutations reach the field parser. Failures must be
// kInvalidArgument (no magic) or kCorruption; a decoded container must
// re-encode to its input (see CheckDeltaContainerInput). Seed corpus:
// fuzz/corpus/delta_container, regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckDeltaContainerInput(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
