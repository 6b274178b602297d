// Tables I-III: dataset statistics — |V|, |E|, |Sigma| and the number
// of ~FP equivalence classes — for the stand-ins next to the paper's
// published numbers, plus the compressed size every paper codec
// achieves on each dataset. |[~FP]| is exact (lexicographic color
// refinement, node_order.h); the stand-ins are scaled, so compare the
// *ratio* |[~FP]| / |V| against the paper's, which is what Figure 11
// builds on. Codecs that do not apply to a dataset (the unlabeled
// baselines on labeled graphs) print "n/a".

#include <cstdio>

#include "bench/bench_util.h"
#include "src/graph/node_order.h"

using namespace grepair;
using namespace grepair::bench;

namespace {

void PrintTable(const char* title, const std::vector<std::string>& names) {
  auto codecs = PaperCodecNames();
  std::printf("\n== %s ==\n", title);
  std::printf("%-24s %10s %10s %5s %12s %8s | %12s %8s |", "graph", "|V|",
              "|E|", "|S|", "classes", "cls/|V|", "paper cls",
              "cls/|V|");
  for (const auto& codec : codecs) std::printf(" %10s", codec.c_str());
  std::printf("\n");
  for (const auto& name : names) {
    PaperDataset d = MakePaperDataset(name);
    uint32_t classes = CountFpClasses(d.data.graph);
    double ratio = static_cast<double>(classes) / d.data.graph.num_nodes();
    double paper_ratio =
        static_cast<double>(d.paper.fp_classes) / d.paper.nodes;
    std::printf("%-24s %10u %10u %5zu %12u %8.3f | %12llu %8.3f |",
                name.c_str(), d.data.graph.num_nodes(),
                d.data.graph.num_edges(), d.data.alphabet.size(), classes,
                ratio, static_cast<unsigned long long>(d.paper.fp_classes),
                paper_ratio);
    for (const auto& codec : codecs) {
      CodecRun run = RunCodec(codec, d.data);
      if (run.ok) {
        std::printf(" %10zu", run.bytes);
      } else {
        std::printf(" %10s", "n/a");
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf(
      "Tables I-III: dataset statistics (stand-ins vs paper) and\n"
      "compressed bytes per paper codec\n");
  PrintTable("Table I: network graphs", NetworkGraphNames());
  PrintTable("Table II: RDF graphs", RdfGraphNames());
  PrintTable("Table III: version graphs", VersionGraphNames());
  return 0;
}
