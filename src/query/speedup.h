// Speed-up queries: graph functions evaluated in one pass through the
// grammar, without decompression (Section V / Proposition 5).
//
// Two of the paper's examples of CMSO-evaluable functions:
//   * number of connected components,
//   * minimal and maximal degree.
// Each is computed bottom-up over the rules (per-rule summaries are
// combined where nonterminal edges occur), giving O(|G|) evaluation —
// a speed-up proportional to the compression ratio over running the
// same computation on val(G). No Proposition 5 normal form is needed:
// the summaries work on right-hand sides of any size.

#ifndef GREPAIR_QUERY_SPEEDUP_H_
#define GREPAIR_QUERY_SPEEDUP_H_

#include <cstdint>

#include "src/grammar/grammar.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Number of connected components of val(G) (undirected
/// hyperedge connectivity), one bottom-up pass.
uint64_t CountConnectedComponents(const SlhrGrammar& grammar);

/// \brief Minimal and maximal degree over val(G)'s nodes.
struct DegreeExtrema {
  uint64_t min_degree = 0;
  uint64_t max_degree = 0;
};

/// \brief Degree extrema of val(G). A grammar deriving no nodes at all
/// has no extrema and yields kInvalidArgument — previously that case
/// silently reported min = max = 0, indistinguishable from a graph of
/// isolated nodes (which legitimately has min_degree 0).
Result<DegreeExtrema> ComputeDegreeExtrema(const SlhrGrammar& grammar);

}  // namespace grepair

#endif  // GREPAIR_QUERY_SPEEDUP_H_
