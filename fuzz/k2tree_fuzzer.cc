// libFuzzer target for the k^2-tree parser behind every grepair start
// graph and every k2 payload: K2Tree::Deserialize (ranked, for point
// queries) and K2Tree::DecodeCells (enumerate-only) must accept the
// same inputs, and a parsed tree's cell listing must be sorted, unique,
// in bounds, num_cells long and consistent with Contains, with
// DecodeCells listing the same cells in level order (see
// CheckK2TreeParse). Seed corpus: fuzz/corpus/k2tree, regenerated by
// fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckK2TreeParse(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
