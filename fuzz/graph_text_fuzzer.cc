// libFuzzer target for the graph-text reader behind `grepair compress`:
// ParseGraphText. Failures must be kCorruption or kInvalidArgument with
// a message; a parsed graph must write back as text that parses to the
// same graph (see CheckGraphTextParse). Seed corpus:
// fuzz/corpus/graph_text, regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckGraphTextParse(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
