#include "src/serve/server.h"

#include <chrono>
#include <utility>

#include "src/util/hashing.h"

namespace grepair {
namespace serve {

using net::Frame;

Result<std::unique_ptr<ShardServer>> ShardServer::Start(
    CorpusRegistry registry, const Options& options) {
  if (registry.empty()) {
    return Status::InvalidArgument(
        "refusing to start a shard server with no corpora (register at "
        "least one --corpus or a discoverable directory)");
  }
  auto server = std::unique_ptr<ShardServer>(new ShardServer());
  server->registry_ = std::move(registry);
  GREPAIR_RETURN_IF_ERROR(server->Init(options));
  return server;
}

Status ShardServer::Init(const Options& options) {
  host_ = options.host;
  io_timeout_ms_ = options.io_timeout_ms;
  debug_shard_delay_ms_ = options.debug_shard_delay_ms;
  auto listener = Socket::ListenTcp(options.host, options.port, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).ValueOrDie();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Stop() {
  // One teardown at a time; later callers wait for it and return to a
  // fully stopped server (the destructor relies on that).
  MutexLock stop_lock(stop_mutex_);
  if (stopping_.exchange(true)) return;
  // Unblock the accept loop and every parked recv. Shutdown only —
  // Close() writes the fd and would race the accept thread's read of
  // it; the descriptors are closed after the joins below. Some BSDs
  // refuse shutdown() on a listening socket (ENOTCONN) and leave
  // accept parked, so a best-effort self-connect wakes it portably.
  listener_.ShutdownBoth();
  {
    auto wake = Socket::ConnectTcp(host_, port_, /*timeout_ms=*/1000);
    (void)wake;  // accepted (and dropped) or refused — either unparks
  }
  {
    MutexLock lock(conn_mutex_);
    for (auto& socket : conn_sockets_) {
      if (socket != nullptr) socket->ShutdownBoth();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Joining with conn_mutex_ held would deadlock against a freshly
  // spawned ServeConnection blocked on that mutex at entry — move the
  // handles out first (stopping_ is set, so no new threads appear).
  std::vector<std::thread> threads;
  {
    MutexLock lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

void ShardServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto conn = listener_.Accept();
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (!conn.ok()) {
      // Transient accept failure (e.g. EMFILE): back off briefly so a
      // persistent error cannot busy-spin the loop, then keep serving.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    Status t = conn.value().SetTimeouts(io_timeout_ms_);
    if (!t.ok()) continue;
    stat_connections_.fetch_add(1, std::memory_order_relaxed);
    // Reap connections that already finished (their fds are closed at
    // exit; this bounds the thread handles a long-lived server holds).
    std::vector<std::thread> finished;
    {
      MutexLock lock(conn_mutex_);
      if (stopping_.load(std::memory_order_relaxed)) break;
      for (size_t slot : finished_slots_) {
        finished.push_back(std::move(conn_threads_[slot]));
      }
      finished_slots_.clear();
      size_t slot = conn_sockets_.size();
      conn_sockets_.push_back(
          std::make_unique<Socket>(std::move(conn).ValueOrDie()));
      conn_threads_.emplace_back([this, slot] { ServeConnection(slot); });
    }
    for (auto& reaped : finished) {
      if (reaped.joinable()) reaped.join();
    }
  }
}

void ShardServer::ServeConnection(size_t slot) {
  Socket* socket;
  {
    MutexLock lock(conn_mutex_);
    socket = conn_sockets_[slot].get();
  }
  while (!stopping_.load(std::memory_order_relaxed)) {
    bool clean_eof = false;
    auto frame = net::ReadFrame(socket, &clean_eof);
    if (!frame.ok()) {
      if (!clean_eof) {
        stat_errors_.fetch_add(1, std::memory_order_relaxed);
        // Malformed bytes: the stream cannot be resynced — tell the
        // peer why (best effort) and drop the connection.
        if (frame.status().code() == StatusCode::kCorruption) {
          (void)SendError(socket, 0, frame.status());
        }
      }
      break;
    }
    if (!HandleFrame(socket, frame.value())) break;
  }
  socket->ShutdownBoth();
  // Release the descriptor now (a long-running server must not hold
  // one fd per past connection until Stop) and offer this thread's
  // handle to the accept loop for reaping.
  MutexLock lock(conn_mutex_);
  socket->Close();
  finished_slots_.push_back(slot);
}

bool ShardServer::HandleFrame(Socket* socket, const Frame& frame) {
  switch (frame.type) {
    case net::kHello: {
      // u32 highest version the client speaks. Re-greeting mid-stream
      // is harmless (idempotent), so no state machine here.
      ByteSource body_src(SpanOf(frame.body), "Hello body");
      uint32_t client_max = 0;
      if (frame.body.size() != 4 || !body_src.ReadU32LE(&client_max).ok()) {
        return SendError(socket, 0,
                         Status::InvalidArgument(
                             "Hello body must be a u32 protocol version"))
            .ok();
      }
      if (client_max < net::kProtoV2) {
        return SendError(
                   socket, 0,
                   Status::InvalidArgument(
                       "client speaks GRNF v" + std::to_string(client_max) +
                       "; this server serves GRNF v2 only"))
            .ok();
      }
      std::vector<uint8_t> body;
      PutU32LE(net::kProtoV2, &body);
      PutU32LE(static_cast<uint32_t>(registry_.size()), &body);
      stat_requests_.fetch_add(1, std::memory_order_relaxed);
      return SendFrame(socket, net::kHelloOk, SpanOf(body)).ok();
    }
    case net::kOpenCorpus:
    case net::kGetShard2:
    case net::kGetStats: {
      auto req_id = net::FrameRequestId(frame);
      if (!req_id.ok()) {
        return SendError(socket, 0,
                         Status::InvalidArgument(
                             "request body too short for a request id"))
            .ok();
      }
      ByteSource body_src(SpanOf(frame.body), "request body");
      (void)body_src.Skip(8);  // the request id just parsed
      if (frame.type == net::kOpenCorpus) {
        return HandleOpenCorpus(socket, req_id.value(), &body_src);
      }
      if (frame.type == net::kGetShard2) {
        return HandleGetShard(socket, req_id.value(), &body_src);
      }
      // kGetStats: no operands.
      if (body_src.PeekRemaining().size != 0) {
        return SendError(socket, req_id.value(),
                         Status::InvalidArgument(
                             "GetStats carries no operands"))
            .ok();
      }
      auto body = EncodeStatsBody(req_id.value(), stats());
      stat_requests_.fetch_add(1, std::memory_order_relaxed);
      return SendFrame(socket, net::kStats, SpanOf(body)).ok();
    }
    default:
      // Well-framed but senseless (a server->client type, say):
      // answer with an error and keep the connection — the stream is
      // still in sync.
      return SendError(socket, 0,
                       Status::InvalidArgument(
                           "unexpected frame type " +
                           std::to_string(frame.type)))
          .ok();
  }
}

bool ShardServer::HandleOpenCorpus(Socket* socket, uint64_t req_id,
                                   ByteSource* body_src) {
  uint8_t name_len = 0;
  if (!body_src->ReadU8(&name_len).ok() ||
      body_src->PeekRemaining().size != name_len) {
    return SendError(socket, req_id,
                     Status::InvalidArgument(
                         "OpenCorpus body must be a length-prefixed "
                         "corpus name"))
        .ok();
  }
  ByteSpan name_bytes = body_src->PeekRemaining();
  std::string name(name_bytes.begin(), name_bytes.end());
  uint32_t corpus_id = 0;
  auto corpus = registry_.Resolve(name, &corpus_id);
  if (!corpus.ok()) {
    return SendError(socket, req_id, corpus.status()).ok();
  }
  const Corpus& c = *corpus.value();
  std::vector<uint8_t> body;
  body.reserve(20 + c.dir_region.size);
  PutU64LE(req_id, &body);
  PutU32LE(corpus_id, &body);
  PutU64LE(c.dir_off, &body);
  body.insert(body.end(), c.dir_region.begin(), c.dir_region.end());
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  return SendFrame(socket, net::kCorpusDir, SpanOf(body)).ok();
}

bool ShardServer::HandleGetShard(Socket* socket, uint64_t req_id,
                                 ByteSource* body_src) {
  uint32_t corpus_id = 0;
  uint32_t index = 0;
  if (!body_src->ReadU32LE(&corpus_id).ok() ||
      !body_src->ReadU32LE(&index).ok() ||
      body_src->PeekRemaining().size != 0) {
    return SendError(socket, req_id,
                     Status::InvalidArgument(
                         "GetShard body must be u32 corpus id + u32 "
                         "shard index"))
        .ok();
  }
  if (corpus_id >= registry_.size()) {
    return SendError(socket, req_id,
                     Status::InvalidArgument(
                         "corpus id " + std::to_string(corpus_id) +
                         " out of range [0, " +
                         std::to_string(registry_.size()) + ")"))
        .ok();
  }
  const Corpus& corpus = registry_.at(corpus_id);
  if (index >= corpus.rows.size()) {
    return SendError(socket, req_id,
                     Status::InvalidArgument(
                         "shard index " + std::to_string(index) +
                         " out of range [0, " +
                         std::to_string(corpus.rows.size()) + ") in corpus " +
                         corpus.name))
        .ok();
  }
  const shard::ShardDirEntry& row = corpus.rows[index];
  if (row.length == 0) {
    return SendError(socket, req_id,
                     Status::InvalidArgument(
                         "shard " + std::to_string(index) + " of corpus " +
                         corpus.name + " is edgeless (no payload)"))
        .ok();
  }
  if (debug_shard_delay_ms_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(debug_shard_delay_ms_));
  }
  std::vector<uint8_t> body;
  body.reserve(16 + row.length);
  PutU64LE(req_id, &body);
  PutU32LE(corpus_id, &body);
  PutU32LE(index, &body);
  ByteSpan blob = corpus.payload.subspan(row.offset, row.length);
  body.insert(body.end(), blob.begin(), blob.end());
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  corpus.requests.fetch_add(1, std::memory_order_relaxed);
  corpus.shard_hits[index].fetch_add(1, std::memory_order_relaxed);
  return SendFrame(socket, net::kShard2, SpanOf(body)).ok();
}

Status ShardServer::SendFrame(Socket* socket, uint8_t type, ByteSpan body) {
  Status status = net::WriteFrame(socket, type, body);
  if (status.ok()) {
    stat_bytes_sent_.fetch_add(
        net::kFrameHeaderBytes + body.size + net::kFrameChecksumBytes,
        std::memory_order_relaxed);
  }
  return status;
}

Status ShardServer::SendError(Socket* socket, uint64_t req_id,
                              const Status& status) {
  stat_errors_.fetch_add(1, std::memory_order_relaxed);
  auto body = net::EncodeErrorBody2(req_id, status);
  return SendFrame(socket, net::kError2, SpanOf(body));
}

ServerStatsSnapshot ShardServer::stats() const {
  ServerStatsSnapshot snapshot;
  snapshot.connections = stat_connections_.load(std::memory_order_relaxed);
  snapshot.requests = stat_requests_.load(std::memory_order_relaxed);
  snapshot.bytes_sent = stat_bytes_sent_.load(std::memory_order_relaxed);
  snapshot.errors = stat_errors_.load(std::memory_order_relaxed);
  snapshot.corpora.resize(registry_.size());
  for (size_t i = 0; i < registry_.size(); ++i) {
    const Corpus& corpus = registry_.at(i);
    CorpusServeStats& out = snapshot.corpora[i];
    out.name = corpus.name;
    out.inner_name = corpus.inner_name;
    out.num_nodes = corpus.num_nodes;
    out.requests = corpus.requests.load(std::memory_order_relaxed);
    // The histogram is a point-in-time read of live counters. The low
    // word of the epoch says *when* it was taken (the request total);
    // the high word says *of which corpus version* (the directory
    // hash), so a client comparing a persisted sidecar's epoch against
    // a live one never prefers warm data from a replaced corpus —
    // version bumps always change the epoch.
    out.histogram_epoch =
        (HashBytes(corpus.dir_region.data, corpus.dir_region.size)
         << 32) |
        (out.requests & 0xFFFFFFFFull);
    out.shard_hits.resize(corpus.rows.size());
    for (size_t k = 0; k < corpus.rows.size(); ++k) {
      out.shard_hits[k] = corpus.shard_hits[k].load(
          std::memory_order_relaxed);
    }
  }
  return snapshot;
}

}  // namespace serve
}  // namespace grepair
