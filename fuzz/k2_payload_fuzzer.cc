// libFuzzer target for the k2 shard payload parser behind every
// sharded:k2 shard fault: the k2 codec's Deserialize, i.e.
// K2GraphRepresentation::Deserialize. Failures must carry a message; a
// parsed payload must decompress to in-range ids and agree with its
// own OutNeighbors (see CheckK2PayloadParse). Seed corpus:
// fuzz/corpus/k2_payload, regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckK2PayloadParse(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
