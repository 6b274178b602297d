// Figure 12: network graphs — every paper codec, bpe.
//
// Paper shape: gRePair beats the plain k2-tree on all graphs except
// NotreDame, but generally loses to LM and HN on network graphs
// (Email-EuAll and CA-GrQc being its exceptions). The codec set is
// bench_util.h's PaperCodecNames, which includes the adjacency-list
// RePair baseline the paper mentions and omits.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"

using namespace grepair;
using namespace grepair::bench;

int main() {
  auto codecs = PaperCodecNames();
  std::printf("Figure 12: network graphs, bpe by paper codec\n");
  std::printf("%-14s", "graph");
  for (const auto& codec : codecs) std::printf(" %10s", codec.c_str());
  std::printf("   %s\n", "gRePair<=k2?");

  int grepair_beats_k2 = 0;
  int lm_or_hn_beats_grepair = 0;
  auto names = NetworkGraphNames();
  for (const auto& name : names) {
    PaperDataset d = MakePaperDataset(name);
    std::map<std::string, CodecRun> runs;
    for (const auto& codec : codecs) runs[codec] = RunCodec(codec, d.data);
    bool comparable = runs["grepair"].ok && runs["k2"].ok;
    bool beats_k2 =
        comparable && runs["grepair"].bpe <= runs["k2"].bpe + 1e-9;
    if (beats_k2) ++grepair_beats_k2;
    if (runs["grepair"].ok &&
        ((runs["lm"].ok && runs["lm"].bpe < runs["grepair"].bpe) ||
         (runs["hn"].ok && runs["hn"].bpe < runs["grepair"].bpe))) {
      ++lm_or_hn_beats_grepair;
    }
    std::printf("%-14s", name.c_str());
    for (const auto& codec : codecs) {
      if (runs[codec].ok) {
        std::printf(" %10.2f", runs[codec].bpe);
      } else {
        std::printf(" %10s", "n/a");
      }
    }
    std::printf("   %s\n",
                comparable ? (beats_k2 ? "yes" : "no") : "n/a");
  }
  std::printf("\nshape: gRePair <= k2 on %d/%zu graphs (paper: 7/8); "
              "LM or HN beat gRePair on %d/%zu (paper: 6/8)\n",
              grepair_beats_k2, names.size(), lm_or_hn_beats_grepair,
              names.size());
  return 0;
}
