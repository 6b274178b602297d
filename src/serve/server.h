// serve::ShardServer — one process serving many GRSHARD2 corpora over
// GRNF v2 (see src/net/README.md for the wire spec).
//
// The server owns a frozen CorpusRegistry: every container was mmapped
// and validated at registration, so serving is O(directory) at startup
// and O(payload bytes) per request — no shard is ever decoded
// server-side, which is exactly the paper's point: the compressed form
// is the wire form.
//
// A connection opens with a kHello/kHelloOk handshake; after that the
// server answers tagged requests (kOpenCorpus, kGetShard2, kGetStats)
// in order, echoing each request id for the client to check. Every
// error the server sends is a kError2 frame, with request id 0 when
// the request carried none: a kHello below v2 or a stray frame type
// keeps the connection open; a malformed stream (bad magic, version,
// type, length or checksum) closes it after the error frame.
//
// Concurrency: one accept thread plus one thread per connection, each
// handling that connection's requests sequentially (clients get
// concurrency from a pool of connections, one request on each at a
// time, not from per-request server threads). Stop() (and the
// destructor) shuts down the listener and every live connection and
// joins all threads; it is safe to call while requests are in flight.

#ifndef GREPAIR_SERVE_SERVER_H_
#define GREPAIR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/serve/registry.h"
#include "src/serve/stats.h"
#include "src/util/socket.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace grepair {
namespace serve {

class ShardServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";  ///< bind address (loopback default)
    uint16_t port = 0;               ///< 0 = pick an ephemeral port
    int io_timeout_ms = 30000;       ///< per-connection send/recv bound
    /// Artificial per-shard-request service delay. Benchmarks use this
    /// to emulate storage/WAN latency on loopback (netem-style), so
    /// connection-pool speedups are measurable on any machine. Leave 0
    /// in production.
    int debug_shard_delay_ms = 0;
  };

  /// \brief Takes ownership of a populated registry (≥1 corpus) and
  /// starts serving it. The registry is frozen from here on.
  static Result<std::unique_ptr<ShardServer>> Start(CorpusRegistry registry,
                                                    const Options& options);
  static Result<std::unique_ptr<ShardServer>> Start(
      CorpusRegistry registry) {
    return Start(std::move(registry), Options());
  }

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  std::string host_port() const {
    return host_ + ":" + std::to_string(port_);
  }
  const CorpusRegistry& registry() const { return registry_; }

  /// \brief Shuts the listener and every live connection down and
  /// joins all worker threads. Idempotent.
  void Stop() GREPAIR_LOCKS_EXCLUDED(stop_mutex_, conn_mutex_);

  /// \brief Snapshot of the serving counters, including the
  /// per-corpus hit histograms (what the STATS verb serves).
  ServerStatsSnapshot stats() const;

 private:
  ShardServer() = default;

  Status Init(const Options& options);
  void AcceptLoop() GREPAIR_LOCKS_EXCLUDED(conn_mutex_);
  void ServeConnection(size_t slot) GREPAIR_LOCKS_EXCLUDED(conn_mutex_);
  // One request -> one response frame (or error frame). Returns false
  // when the connection must close (unsyncable input stream).
  bool HandleFrame(Socket* socket, const net::Frame& frame);
  bool HandleOpenCorpus(Socket* socket, uint64_t req_id, ByteSource* body);
  bool HandleGetShard(Socket* socket, uint64_t req_id, ByteSource* body);
  Status SendFrame(Socket* socket, uint8_t type, ByteSpan body);
  // Tagged error frame (req_id 0 when the request carried none).
  Status SendError(Socket* socket, uint64_t req_id, const Status& status);

  CorpusRegistry registry_;

  std::string host_;
  uint16_t port_ = 0;
  int io_timeout_ms_ = 30000;
  int debug_shard_delay_ms_ = 0;
  Socket listener_;
  std::thread accept_thread_;
  Mutex stop_mutex_;  // serializes Stop callers (guards no fields)
  std::atomic<bool> stopping_{false};

  // Live connections: sockets stay owned here so Stop can shut them
  // down mid-recv; slots are append-only. Finished connections close
  // their fd and park their slot in finished_slots_ for the accept
  // loop to reap (join) — Stop joins whatever remains. The Socket
  // objects the unique_ptrs point at are NOT guarded: a connection
  // thread reads its own socket lock-free while Stop shuts the fd
  // down, which is the documented shutdown-vs-recv protocol.
  Mutex conn_mutex_;
  std::vector<std::unique_ptr<Socket>> conn_sockets_
      GREPAIR_GUARDED_BY(conn_mutex_);
  std::vector<std::thread> conn_threads_ GREPAIR_GUARDED_BY(conn_mutex_);
  std::vector<size_t> finished_slots_ GREPAIR_GUARDED_BY(conn_mutex_);

  mutable std::atomic<uint64_t> stat_connections_{0};
  mutable std::atomic<uint64_t> stat_requests_{0};
  mutable std::atomic<uint64_t> stat_bytes_sent_{0};
  mutable std::atomic<uint64_t> stat_errors_{0};
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_SERVER_H_
