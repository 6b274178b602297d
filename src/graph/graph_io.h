// Plain-text hypergraph I/O.
//
// Format (whitespace separated):
//   line 1: "grepair-graph <num_nodes> <num_edges> <num_labels>"
//   line 2: "<rank of label 0> <rank of label 1> ..."
//   then one line per edge: "<label> <v1> <v2> ... <v_rank>"
// Node ids are 0-based. External nodes are not stored (data graphs have
// none). This is the interchange format used by the CLI and the
// examples.

#ifndef GREPAIR_GRAPH_GRAPH_IO_H_
#define GREPAIR_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "src/graph/hypergraph.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Writes graph + alphabet in the native text format to `out`.
/// ParseGraphText reads it back to the same graph and label ranks.
void WriteGraphText(const Hypergraph& g, const Alphabet& alphabet,
                    std::ostream& out);

/// \brief Writes graph + alphabet in the native text format.
Status SaveGraphText(const Hypergraph& g, const Alphabet& alphabet,
                     const std::string& path);

/// \brief Loaded graph together with its alphabet.
struct LoadedGraph {
  Hypergraph graph;
  Alphabet alphabet;
};

/// \brief Reads the native text format.
Result<LoadedGraph> LoadGraphText(const std::string& path);

/// \brief Parses the native format from a stream. Malformed text fails
/// with Corruption (header, rank, label or attachment tokens) or
/// InvalidArgument (Hypergraph::Validate, e.g. a node attached twice).
Result<LoadedGraph> ParseGraphText(std::istream& in);

}  // namespace grepair

#endif  // GREPAIR_GRAPH_GRAPH_IO_H_
