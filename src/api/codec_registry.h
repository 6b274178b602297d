// CodecRegistry: name -> GraphCodec, over a closed table.
//
// The table holds the two file backends, "grepair" and "k2"; a
// "sharded:<inner>" name wraps one of them in shard::ShardedCodec.
// Nothing registers at run time, so a lookup takes no lock. The
// registry is what lets the CLI's --backend flag, the file openers and
// the parameterized round-trip tests enumerate every backend without
// naming any of them. The paper's size-only baselines (HN, LM,
// adjacency-list RePair) are not in the table; bench/ runs their
// encoders directly. The table lives in builtin_codecs.cc, next to the
// codecs it lists.

#ifndef GREPAIR_API_CODEC_REGISTRY_H_
#define GREPAIR_API_CODEC_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/api/graph_codec.h"
#include "src/util/status.h"

namespace grepair {
namespace api {

class CodecRegistry {
 public:
  /// \brief Instantiates the codec named `name`: a table entry, or
  /// "sharded:" plus one. kNotFound (listing the known names) when
  /// there is none; kInvalidArgument for a sharded inner that is
  /// itself sharded.
  static Result<std::unique_ptr<GraphCodec>> Create(const std::string& name);

  /// \brief Every name Create accepts, sorted: the table's entries,
  /// then their "sharded:" forms.
  static std::vector<std::string> Names();
};

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_CODEC_REGISTRY_H_
