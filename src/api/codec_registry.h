// CodecRegistry: name -> GraphCodec factory.
//
// The built-in codecs are the two file backends, "grepair" and "k2",
// plus their "sharded:<inner>" variants, all registered on first use.
// The registry is what lets the CLI's --backend flag, the file
// openers and the parameterized round-trip tests enumerate every
// backend without naming any of them. The paper's size-only baselines
// (HN, LM, adjacency-list RePair) are not registered; bench/ runs
// their encoders directly.

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
  using Factory = std::unique_ptr<GraphCodec> (*)();

  /// \brief Registers `factory` under `name`; later registrations of
  /// the same name win (lets tests shadow a builtin).
  static void Register(const std::string& name, Factory factory);

  /// \brief Instantiates the codec registered under `name`;
  /// kNotFound (listing the known names) when there is none.
  static Result<std::unique_ptr<GraphCodec>> Create(const std::string& name);

  /// \brief All registered names, sorted.
  static std::vector<std::string> Names();

  /// \brief Names() without the "sharded:<inner>" meta-variants — the
  /// base compressors themselves.
  static std::vector<std::string> BaseNames();
};

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_CODEC_REGISTRY_H_
