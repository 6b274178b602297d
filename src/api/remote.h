// api::OpenRemote — open a compressed graph served by `grepair serve`
// on another machine, behind the same CompressedRep interface as a
// local file:
//
//   auto rep = grepair::api::OpenRemote("10.0.0.7:9000/wikidata");
//   rep.value()->OutNeighbors(42);   // faults one shard over TCP
//
// The target is "host:port[/corpus]" — the corpus name may be omitted
// when the server hosts a single corpus. The returned rep is the lazy
// sharded rep: the directory is fetched at open, each cold shard
// faults over a connection pool on first touch, one request per
// connection at a time, each round trip bounded by io_timeout_ms
// (checksum-verified like a local fault), and Prefetch, the query
// caches and QueryStats counters work unchanged —
// remote_fetches/remote_bytes say what crossed the wire, the pool_*
// counters say how, and with an SSD cache dir configured the tier_*
// counters say what local disk absorbed.

#ifndef GREPAIR_API_REMOTE_H_
#define GREPAIR_API_REMOTE_H_

#include <memory>
#include <string>

#include "src/serve/pool.h"
#include "src/util/status.h"

namespace grepair {
namespace api {

/// \brief Knobs for OpenRemote (timeouts, pool size, SSD tier,
/// open-time warming); see serve::OpenOptions. Defaults match a LAN
/// frontend.
using RemoteOptions = serve::OpenOptions;

/// \brief Opens the GRSHARD2 corpus served at "host:port[/corpus]".
inline Result<std::unique_ptr<shard::ShardedRep>> OpenRemote(
    const std::string& target, const RemoteOptions& options = {}) {
  return serve::OpenRemoteContainer(target, options);
}

}  // namespace api
}  // namespace grepair

#endif  // GREPAIR_API_REMOTE_H_
