// The GRNF v2 STATS verb's body codec, plus the synchronous client
// calls every client connection is built from: the connection pool's
// (re)dials and shard fetches (src/serve/pool.h) and the short-lived
// admin connections behind `grepair info --remote`. Every client
// round trip is one CallServer: one request out, one reply back, the
// pair bounded by one io_timeout_ms deadline.
//
// A kStats body is a point-in-time snapshot of one server process:
// process-wide counters followed by one record per served corpus,
// including the per-shard hit histogram — the hot-shard signal that
// the client's SSD tier and open-time warming feed on. The encoding is
// the usual little-endian length-prefixed layout and the decoder
// applies the same untrusted-input discipline as every other wire
// parser in this tree (a stats frame crosses the same network as shard
// frames).
//
// Layout (after the u64 request id):
//
//   u64  connections     u64 requests    u64 bytes_sent   u64 errors
//   u32  corpus_count
//   per corpus:
//     u8  name_len   + name bytes
//     u8  inner_len  + inner codec name bytes
//     u64 num_nodes
//     u64 requests
//     u64 histogram_epoch (the corpus request counter the histogram
//                          was snapshot at — a client persisting it
//                          can tell fresher from staler)
//     u32 num_shards + per shard: u64 hit-count

#ifndef GREPAIR_SERVE_STATS_H_
#define GREPAIR_SERVE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/shard/sharded_codec.h"
#include "src/util/byte_io.h"
#include "src/util/socket.h"
#include "src/util/status.h"

namespace grepair {
namespace serve {

/// \brief One corpus' slice of a server stats snapshot.
struct CorpusServeStats {
  std::string name;
  std::string inner_name;
  uint64_t num_nodes = 0;
  uint64_t requests = 0;                ///< shard requests answered
  /// The corpus request counter this histogram snapshot corresponds
  /// to — lets a client persisting histograms prefer the fresher one.
  uint64_t histogram_epoch = 0;
  std::vector<uint64_t> shard_hits;     ///< per-shard hit histogram
};

/// \brief A whole-process serving snapshot (the kStats payload).
struct ServerStatsSnapshot {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t bytes_sent = 0;
  uint64_t errors = 0;
  std::vector<CorpusServeStats> corpora;
};

/// \brief Encodes a kStats body (u64 req_id + the snapshot).
std::vector<uint8_t> EncodeStatsBody(uint64_t req_id,
                                     const ServerStatsSnapshot& snapshot);

/// \brief Decodes a kStats body; *req_id receives the echoed request
/// id. Clean kCorruption on malformed bytes.
Result<ServerStatsSnapshot> DecodeStatsBody(ByteSpan body, uint64_t* req_id);

/// \brief Dials "host:port" and performs the kHello/kHelloOk handshake:
/// the one way a client connection opens. kUnavailable names the peer
/// when it is unreachable or stalls; a served kError2 is its Status.
Result<Socket> DialServer(const std::string& host_port, int io_timeout_ms);

/// \brief One synchronous tagged request on a handshaked connection:
/// sends `type` with body u64 `req_id` + `operands` and reads one
/// reply. A kError2 reply is its Status; a reply of another type than
/// `expect`, or one echoing another request id, is kCorruption.
/// kUnavailable (naming `peer`) on transport failure, and once the
/// socket's timeout has elapsed since the request was sent.
Result<net::Frame> CallServer(Socket* socket, const std::string& peer,
                              uint8_t type, uint64_t req_id,
                              ByteSpan operands, uint8_t expect);

/// \brief A kCorpusDir reply: the corpus id the server resolved, and
/// its GRSHARD2 directory bytes with their in-container offset.
struct CorpusDirReply {
  uint32_t corpus_id = 0;
  uint64_t dir_off = 0;
  std::vector<uint8_t> raw_directory;
};

/// \brief The kOpenCorpus -> kCorpusDir round trip (via CallServer)
/// for `corpus` (empty = the sole served corpus). kInvalidArgument
/// for a name longer than kMaxCorpusNameBytes.
Result<CorpusDirReply> OpenCorpus(Socket* socket, const std::string& peer,
                                  uint64_t req_id, const std::string& corpus);

/// \brief Dials "host:port", performs the v2 handshake, and fetches a
/// stats snapshot over one short-lived connection. kUnavailable names
/// the peer when it is unreachable or stalls.
Result<ServerStatsSnapshot> FetchServerStats(const std::string& host_port,
                                             int io_timeout_ms = 30000);

/// \brief Dials "host:port", resolves `corpus` (empty = the sole
/// served corpus) and fetches + reparses its directory over one
/// short-lived connection — `info --remote`'s way to inspect a corpus
/// without a local copy. *resolved_name (when non-null) receives the
/// corpus name the server reports for the id it resolved.
Result<shard::ParsedDirectory> FetchCorpusDirectory(
    const std::string& host_port, const std::string& corpus,
    int io_timeout_ms = 30000, std::string* resolved_name = nullptr);

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_STATS_H_
