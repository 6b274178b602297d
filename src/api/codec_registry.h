// CodecRegistry: name -> GraphCodec.
//
// Two names resolve: "grepair" (one grammar, bare payload bytes) and
// "sharded:grepair" (the GRSHARD2 container every file holds,
// shard::ShardedCodec). Any other name, such as a deleted codec's
// ("k2", "hn", or either under "sharded:"), is kNotFound. The paper's size-only
// baselines (k^2-trees, HN, LM, adjacency-list RePair) are not codecs;
// bench/ runs their encoders directly. The codecs live in
// builtin_codecs.cc.

#ifndef GREPAIR_API_CODEC_REGISTRY_H_
#define GREPAIR_API_CODEC_REGISTRY_H_

#include <memory>
#include <string>

#include "src/api/graph_codec.h"
#include "src/util/status.h"

namespace grepair {
namespace api {

class CodecRegistry {
 public:
  /// \brief Instantiates the codec named `name`: "grepair" or
  /// "sharded:grepair"; kNotFound "no codec named '<name>'" otherwise.
  static Result<std::unique_ptr<GraphCodec>> Create(const std::string& name);
};

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_CODEC_REGISTRY_H_
