// libFuzzer target for the tagged GRPCODEC frame that every file open
// parses first: api::UnwrapShardedPayload. Failures must be
// kInvalidArgument or kCorruption with a message; an unwrapped payload
// must lie inside the input and frame back to exactly the input bytes
// (see CheckCodecFrameParse). Seed corpus: fuzz/corpus/codec_frame,
// regenerated by fuzz/gen_corpus.cc.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fuzz/fuzz_checks.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* violated = grepair::fuzz::CheckCodecFrameParse(data, size);
  if (violated != nullptr) {
    std::fprintf(stderr, "invariant violated: %s\n", violated);
    std::abort();
  }
  return 0;
}
