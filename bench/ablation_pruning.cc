// Ablation: the pruning phase (Section III-A3). Reports rules and
// encoded size with pruning off, the paper's single bottom-up pass, and
// the fixpoint extension, demonstrating that pruning never hurts and
// usually trims a large fraction of the rules.
//
// Every run tracks the node mapping and must reproduce its input
// exactly (RunGrepair exits 1 otherwise), and a pruned grammar must
// never encode larger than the unpruned one; so the bench doubles as a
// correctness smoke for both pruning modes on the paper's stand-ins.

#include <cstdio>

#include "bench/bench_util.h"

using namespace grepair;
using namespace grepair::bench;

int main() {
  const std::vector<std::string> graphs = {
      "CA-GrQc", "Email-Enron", "Identica", "Jamendo", "Tic-Tac-Toe",
      "DBLP60-70"};
  std::printf("Ablation: pruning\n");
  std::printf("%-14s | %8s %9s | %8s %9s | %8s %9s\n", "graph",
              "rules", "bpe", "rules", "bpe", "rules", "bpe");
  std::printf("%-14s | %18s | %18s | %18s\n", "", "no pruning",
              "paper (1 pass)", "fixpoint");
  bool failed = false;
  for (const auto& name : graphs) {
    PaperDataset d = MakePaperDataset(name);
    CompressOptions off;
    off.prune = false;
    off.track_node_mapping = true;
    CompressOptions paper = off;  // defaults: single pass
    paper.prune = true;
    CompressOptions fix = paper;
    fix.prune_options.iterate_to_fixpoint = true;
    GrepairRun r_off = RunGrepair(d.data, off);
    GrepairRun r_paper = RunGrepair(d.data, paper);
    GrepairRun r_fix = RunGrepair(d.data, fix);
    std::printf("%-14s | %8u %9.3f | %8u %9.3f | %8u %9.3f\n",
                name.c_str(), r_off.grammar.num_rules, r_off.bpe,
                r_paper.grammar.num_rules, r_paper.bpe,
                r_fix.grammar.num_rules, r_fix.bpe);
    if (r_paper.bytes > r_off.bytes || r_fix.bytes > r_off.bytes) {
      std::fprintf(stderr, "%s: pruning grew the encoded grammar\n",
                   name.c_str());
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
