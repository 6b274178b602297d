// libFuzzer target for the grepair shard payload parser behind every
// sharded:grepair shard fault: CompressedGraph::Deserialize, i.e.
// DecodeGrammar plus DecodeNodeMapping. Failures must carry a message
// and be Corruption or OutOfRange (InvalidArgument only for a GRG1
// grammar); a decoded payload must pass SlhrGrammar::Validate, hold a
// permutation as its node map and survive a re-serialize round trip
// (see CheckGrepairPayload). Seed corpus:
// fuzz/corpus/grepair_payload, regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckGrepairPayload(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
