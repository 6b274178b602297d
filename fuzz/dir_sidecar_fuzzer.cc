// libFuzzer target for the `.grdir` sidecar parser that a remote open
// runs on the SSD tier's persisted directory and histogram:
// serve::ParseDirSidecar. Failures must be clean kCorruption; a parsed
// sidecar must re-encode to its input and carry a directory that parses
// cleanly (see CheckDirSidecarParse). Seed corpus: fuzz/corpus/dir_sidecar,
// regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckDirSidecarParse(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
