// serve::RemoteShardSource — the GRNF v2 network implementation of the
// ShardSource seam, built for fleets: a bounded pool of connections,
// each carrying one request at a time.
//
// Connect() dials one pool slot, performs the kHello handshake, opens
// the named corpus (fetching and reparsing its footer directory with
// the same hardened parser the file path uses) and remembers the
// corpus id. Each FetchShard picks a pool slot round-robin and holds
// its mutex for one CallServer round trip (src/serve/stats.h), the
// exchange every client call uses. The server answers each connection
// in order, so a second request on a busy connection would only queue
// behind the first: concurrent faults (a Prefetch or batch fanned out
// on the rep's threads, concurrent frontends) overlap across slots, at
// most pool_size at once.
//
// Failure model: every request is a pure read, so a transport failure
// closes the slot's connection and is retried exactly once on a
// freshly dialed one; corruption closes it and is never retried — a
// lying peer does not get a second chance to lie. A served kError2
// fails only its request. The round trip's deadline is the socket's:
// it fails kUnavailable about io_timeout_ms after the request left,
// however the peer stalls or trickles. Redials re-handshake and
// re-resolve the corpus (a restarted server may have renumbered its
// registry) and verify the re-fetched directory still matches
// shard-for-shard; directory bytes equal to the ones connect parsed
// are not parsed again.
//
// Dead-server hygiene: dial attempts go through a shared
// exponential-backoff gate with deterministic jitter. While the gate
// is closed every fetch fails immediately with kUnavailable naming the
// peer — a dead server is probed a few times a second at worst, not
// hammered once per request.

#ifndef GREPAIR_SERVE_POOL_H_
#define GREPAIR_SERVE_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/shard/sharded_codec.h"
#include "src/util/rng.h"
#include "src/util/socket.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace grepair {
namespace serve {

class RemoteShardSource : public shard::ShardSource {
 public:
  struct Options {
    int io_timeout_ms = 30000;  ///< connect + per-round-trip deadline
    int pool_size = 4;          ///< connections (clamped to [1, 64])
  };

  /// \brief Dials "host:port", opens `corpus` (empty = the sole
  /// served corpus) and fetches its directory. kUnavailable when the
  /// peer is unreachable or stalls; kCorruption when it serves
  /// malformed frames or a bad directory; kNotFound for an unknown
  /// corpus name.
  static Result<std::shared_ptr<RemoteShardSource>> Connect(
      const std::string& host_port, const std::string& corpus,
      const Options& options);

  const char* kind() const override { return "remote"; }

  /// \brief Moves out the directory fetched at connect time (what
  /// ShardedRep::OpenFromSource consumes). The source retains only
  /// the per-shard lengths it needs for verification — the node maps
  /// live once, in the rep, not twice. Call at most once.
  shard::ParsedDirectory TakeDirectory();

  /// \brief The raw footer-directory bytes (and their in-container
  /// offset) exactly as the server shipped them at connect time.
  /// OpenRemoteContainer persists these next to the SSD shard tier so
  /// a warm cache can be opened again after the server is gone.
  const std::vector<uint8_t>& raw_directory() const {
    return raw_directory_;
  }
  uint64_t raw_dir_off() const { return raw_dir_off_; }

  Result<ByteSpan> FetchShard(size_t shard,
                              std::vector<uint8_t>* owned) override;

  void AddStats(api::QueryStats* stats) const override;

 private:
  // One pool slot. Its mutex is held for a whole round trip, redial
  // included, so the connection carries one request at a time.
  struct Conn {
    Mutex mu;
    Socket socket GREPAIR_GUARDED_BY(mu);  // invalid until (re)dialed
    bool ever_connected GREPAIR_GUARDED_BY(mu) = false;
    uint32_t corpus_id GREPAIR_GUARDED_BY(mu) = 0;
  };

  RemoteShardSource(std::string peer, std::string corpus,
                    const Options& options);

  /// (Re)dials `conn` through the backoff gate: handshake and corpus
  /// open (the shared client calls in src/serve/stats.h). The first
  /// dial parses the directory into directory_; a redial parses only
  /// directory bytes that differ from raw_directory_, and fails if
  /// they changed the shard shape.
  Status Dial(Conn* conn) GREPAIR_REQUIRES(conn->mu)
      GREPAIR_LOCKS_EXCLUDED(gate_mu_);
  /// FetchShard's round trip on the slot it picked.
  Result<ByteSpan> FetchOnSlot(Conn* conn, size_t shard,
                               std::vector<uint8_t>* owned)
      GREPAIR_REQUIRES(conn->mu);

  // Backoff gate (shared across pool slots).
  Status GateCheck() GREPAIR_LOCKS_EXCLUDED(gate_mu_);
  void GateRecordFailure(const std::string& message)
      GREPAIR_LOCKS_EXCLUDED(gate_mu_);
  void GateRecordSuccess() GREPAIR_LOCKS_EXCLUDED(gate_mu_);

  std::string peer_;    // "host:port": dialed, and named in errors
  std::string corpus_;  // name opened on every (re)dial
  int io_timeout_ms_ = 30000;

  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_req_id_{1};
  std::atomic<uint64_t> round_robin_{0};

  shard::ParsedDirectory directory_;     // until TakeDirectory
  std::vector<uint8_t> raw_directory_;   // verbatim wire bytes
  uint64_t raw_dir_off_ = 0;
  std::vector<uint64_t> shard_lengths_;  // rows[i].length, kept always

  Mutex gate_mu_;
  int gate_fail_streak_ GREPAIR_GUARDED_BY(gate_mu_) = 0;
  std::chrono::steady_clock::time_point gate_next_dial_
      GREPAIR_GUARDED_BY(gate_mu_){};
  std::string gate_last_error_ GREPAIR_GUARDED_BY(gate_mu_);
  // Deterministic, seeded from the peer address; drawn only under
  // gate_mu_.
  Rng gate_jitter_ GREPAIR_GUARDED_BY(gate_mu_);

  mutable std::atomic<uint64_t> stat_fetches_{0};
  mutable std::atomic<uint64_t> stat_bytes_{0};
  mutable std::atomic<uint64_t> stat_dials_{0};
  mutable std::atomic<uint64_t> stat_redials_{0};
  mutable std::atomic<uint64_t> stat_in_flight_{0};
  mutable std::atomic<uint64_t> stat_peak_in_flight_{0};
};

/// \brief Splits a remote target "host:port[/corpus]" (e.g.
/// "10.0.0.7:9000/wikidata"); the corpus part is optional and may be
/// empty only when the server hosts a single corpus.
Status SplitTarget(const std::string& target, std::string* host_port,
                   std::string* corpus);

/// \brief Everything api::OpenRemote needs to wire the tier together
/// (api::RemoteOptions is this struct).
struct OpenOptions {
  /// Bounds the connect and every round trip (handshake, corpus open,
  /// STATS, shard fetch) from the moment its request is sent — a
  /// stalled, dead or trickling server is a kUnavailable Status, never
  /// a hang.
  int io_timeout_ms = 30000;
  /// Connections in the pool (clamped to [1, 64]), each carrying one
  /// request at a time: at most this many shard fetches are in flight.
  int pool_size = 4;
  /// When non-empty, a TieredShardSource is stacked over the pool
  /// (see src/serve/tiered.h). It owns the subdirectory named after
  /// the corpus ("_default" for the empty name): the shards its heat
  /// plan picks are cached checksummed there and served from it on
  /// later faults, including after the server goes away.
  std::string ssd_cache_dir;
  /// Byte budget of the SSD cache, per corpus: the tier caches the
  /// shards PlanByHeat fits into it, hottest first.
  uint64_t ssd_cache_bytes = 256ull << 20;
  /// Open-time warming: rank shards by the best histogram available
  /// (the persisted `.grdir` sidecar's, or a fresh STATS snapshot
  /// when the server is reachable) and prefetch the hot ones before
  /// the first query. Costs one STATS round-trip when online.
  bool warm_from_histogram = true;
};

/// \brief Opens the remote corpus at "host:port[/name]" as a lazy
/// ShardedRep: shard metadata from the server's directory, payloads
/// faulted over the pool (optionally through the SSD tier) on first
/// touch. The convenience entry point is api::OpenRemote
/// (src/api/remote.h).
Result<std::unique_ptr<shard::ShardedRep>> OpenRemoteContainer(
    const std::string& target, const OpenOptions& options);
inline Result<std::unique_ptr<shard::ShardedRep>> OpenRemoteContainer(
    const std::string& target) {
  return OpenRemoteContainer(target, OpenOptions());
}

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_POOL_H_
