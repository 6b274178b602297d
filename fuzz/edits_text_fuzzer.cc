// libFuzzer target for the edit-text reader behind `grepair append
// --edits`: shard::ParseEditText. Failures must be kInvalidArgument
// naming their line; a parsed stream must print back as canonical text
// that parses to the same edits (see CheckEditTextParse). Seed corpus:
// fuzz/corpus/edits_text, regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckEditTextParse(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
