#include "src/serve/stats.h"

#include <utility>

#include "src/serve/registry.h"

namespace grepair {
namespace serve {

std::vector<uint8_t> EncodeStatsBody(uint64_t req_id,
                                     const ServerStatsSnapshot& snapshot) {
  std::vector<uint8_t> body;
  PutU64LE(req_id, &body);
  PutU64LE(snapshot.connections, &body);
  PutU64LE(snapshot.requests, &body);
  PutU64LE(snapshot.bytes_sent, &body);
  PutU64LE(snapshot.errors, &body);
  PutU32LE(static_cast<uint32_t>(snapshot.corpora.size()), &body);
  for (const CorpusServeStats& corpus : snapshot.corpora) {
    body.push_back(static_cast<uint8_t>(corpus.name.size()));
    body.insert(body.end(), corpus.name.begin(), corpus.name.end());
    body.push_back(static_cast<uint8_t>(corpus.inner_name.size()));
    body.insert(body.end(), corpus.inner_name.begin(),
                corpus.inner_name.end());
    PutU64LE(corpus.num_nodes, &body);
    PutU64LE(corpus.requests, &body);
    PutU64LE(corpus.histogram_epoch, &body);
    PutU32LE(static_cast<uint32_t>(corpus.shard_hits.size()), &body);
    for (uint64_t hits : corpus.shard_hits) PutU64LE(hits, &body);
  }
  return body;
}

namespace {

Status ReadWireString(ByteSource* src, const char* what, std::string* out) {
  uint8_t len = 0;
  GREPAIR_RETURN_IF_ERROR(src->ReadU8(&len));
  ByteSpan rest = src->PeekRemaining();
  if (rest.size < len) {
    return Status::Corruption(std::string(what) + " length " +
                              std::to_string(len) + " overruns the body (" +
                              std::to_string(rest.size) + " byte(s) left)");
  }
  out->assign(rest.begin(), rest.begin() + len);
  GREPAIR_RETURN_IF_ERROR(src->Skip(len));
  return Status::OK();
}

}  // namespace

Result<ServerStatsSnapshot> DecodeStatsBody(ByteSpan body, uint64_t* req_id) {
  if (req_id != nullptr) *req_id = 0;
  ByteSource src(body, "stats frame body");
  uint64_t id = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&id));
  if (req_id != nullptr) *req_id = id;
  ServerStatsSnapshot snapshot;
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&snapshot.connections));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&snapshot.requests));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&snapshot.bytes_sent));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&snapshot.errors));
  uint32_t corpus_count = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&corpus_count));
  // Each corpus record is at least 30 bytes; a lying count cannot
  // drive a giant reserve.
  if (static_cast<uint64_t>(corpus_count) * 30 > src.PeekRemaining().size) {
    return Status::Corruption("stats body claims " +
                              std::to_string(corpus_count) +
                              " corpora but only " +
                              std::to_string(src.PeekRemaining().size) +
                              " byte(s) remain");
  }
  snapshot.corpora.resize(corpus_count);
  for (CorpusServeStats& corpus : snapshot.corpora) {
    GREPAIR_RETURN_IF_ERROR(
        ReadWireString(&src, "corpus name", &corpus.name));
    GREPAIR_RETURN_IF_ERROR(
        ReadWireString(&src, "inner codec name", &corpus.inner_name));
    GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&corpus.num_nodes));
    GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&corpus.requests));
    GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&corpus.histogram_epoch));
    uint32_t num_shards = 0;
    GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&num_shards));
    if (static_cast<uint64_t>(num_shards) * 8 > src.PeekRemaining().size) {
      return Status::Corruption(
          "stats body claims " + std::to_string(num_shards) +
          " shard counters but only " +
          std::to_string(src.PeekRemaining().size) + " byte(s) remain");
    }
    corpus.shard_hits.resize(num_shards);
    for (uint64_t& hits : corpus.shard_hits) {
      GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&hits));
    }
  }
  if (src.PeekRemaining().size != 0) {
    return Status::Corruption("stats body has " +
                              std::to_string(src.PeekRemaining().size) +
                              " trailing byte(s)");
  }
  return snapshot;
}

namespace {

// Sends one frame and reads one reply, both under one deadline armed
// from the socket's timeout. kUnavailable names the peer; a kError2
// reply becomes the Status it carries; any reply type other than
// `expect` is kCorruption.
Result<net::Frame> Exchange(Socket* socket, const std::string& peer,
                            uint8_t type, ByteSpan body, uint8_t expect) {
  socket->ArmDeadline();
  Status sent = net::WriteFrame(socket, type, body);
  if (!sent.ok()) {
    return Status::Unavailable("request to " + peer +
                               " failed: " + sent.message());
  }
  auto reply = net::ReadFrame(socket);
  if (!reply.ok()) {
    if (reply.status().code() == StatusCode::kUnavailable) {
      return Status::Unavailable("response from " + peer +
                                 " failed: " + reply.status().message());
    }
    return reply.status();
  }
  if (reply.value().type == net::kError2) {
    return net::DecodeErrorBody2(SpanOf(reply.value().body));
  }
  if (reply.value().type != expect) {
    return Status::Corruption(
        "shard server sent frame type " +
        std::to_string(reply.value().type) + " where " +
        std::to_string(expect) + " was expected");
  }
  return reply;
}

}  // namespace

Result<Socket> DialServer(const std::string& host_port, int io_timeout_ms) {
  std::string host;
  uint16_t port = 0;
  GREPAIR_RETURN_IF_ERROR(ParseHostPort(host_port, &host, &port));
  auto dialed = Socket::ConnectTcp(host, port, io_timeout_ms);
  if (!dialed.ok()) {
    return Status::Unavailable("cannot reach " + host_port + ": " +
                               dialed.status().message());
  }
  Socket socket = std::move(dialed).ValueOrDie();
  std::vector<uint8_t> hello;
  PutU32LE(net::kProtoV2, &hello);
  auto reply = Exchange(&socket, host_port, net::kHello, SpanOf(hello),
                        net::kHelloOk);
  if (!reply.ok()) return reply.status();
  ByteSource body(SpanOf(reply.value().body), "HelloOk body");
  uint32_t negotiated = 0;
  uint32_t corpus_count = 0;
  GREPAIR_RETURN_IF_ERROR(body.ReadU32LE(&negotiated));
  GREPAIR_RETURN_IF_ERROR(body.ReadU32LE(&corpus_count));
  if (negotiated != net::kProtoV2) {
    return Status::Corruption("shard server negotiated unsupported "
                              "protocol version " +
                              std::to_string(negotiated));
  }
  return socket;
}

Result<net::Frame> CallServer(Socket* socket, const std::string& peer,
                              uint8_t type, uint64_t req_id,
                              ByteSpan operands, uint8_t expect) {
  std::vector<uint8_t> body;
  body.reserve(8 + operands.size);
  PutU64LE(req_id, &body);
  body.insert(body.end(), operands.begin(), operands.end());
  auto reply = Exchange(socket, peer, type, SpanOf(body), expect);
  if (!reply.ok()) return reply.status();
  auto echoed = net::FrameRequestId(reply.value());
  if (!echoed.ok()) return echoed.status();
  if (echoed.value() != req_id) {
    return Status::Corruption(
        "shard server's frame type " + std::to_string(expect) +
        " echoes request id " + std::to_string(echoed.value()) +
        " (expected " + std::to_string(req_id) + ")");
  }
  return reply;
}

Result<CorpusDirReply> OpenCorpus(Socket* socket, const std::string& peer,
                                  uint64_t req_id, const std::string& corpus) {
  if (corpus.size() > kMaxCorpusNameBytes) {
    return Status::InvalidArgument("corpus name is " +
                                   std::to_string(corpus.size()) +
                                   " bytes (max " +
                                   std::to_string(kMaxCorpusNameBytes) + ")");
  }
  std::vector<uint8_t> operands;
  operands.push_back(static_cast<uint8_t>(corpus.size()));
  operands.insert(operands.end(), corpus.begin(), corpus.end());
  auto reply = CallServer(socket, peer, net::kOpenCorpus, req_id,
                          SpanOf(operands), net::kCorpusDir);
  if (!reply.ok()) return reply.status();
  std::vector<uint8_t>& body = reply.value().body;
  ByteSource src(SpanOf(body), "CorpusDir body");
  CorpusDirReply out;
  GREPAIR_RETURN_IF_ERROR(src.Skip(8));  // the request id just checked
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&out.corpus_id));
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&out.dir_off));
  body.erase(body.begin(), body.begin() + 20);
  out.raw_directory = std::move(body);
  return out;
}

Result<ServerStatsSnapshot> FetchServerStats(const std::string& host_port,
                                             int io_timeout_ms) {
  auto socket = DialServer(host_port, io_timeout_ms);
  if (!socket.ok()) return socket.status();
  auto reply = CallServer(&socket.value(), host_port, net::kGetStats, 1,
                          ByteSpan{}, net::kStats);
  if (!reply.ok()) return reply.status();
  return DecodeStatsBody(SpanOf(reply.value().body), nullptr);
}

Result<shard::ParsedDirectory> FetchCorpusDirectory(
    const std::string& host_port, const std::string& corpus,
    int io_timeout_ms, std::string* resolved_name) {
  auto socket = DialServer(host_port, io_timeout_ms);
  if (!socket.ok()) return socket.status();
  auto opened = OpenCorpus(&socket.value(), host_port, 1, corpus);
  if (!opened.ok()) return opened.status();
  auto dir = shard::ParseV2Directory(SpanOf(opened.value().raw_directory),
                                     opened.value().dir_off);
  if (!dir.ok()) return dir.status();
  if (resolved_name != nullptr) {
    // The directory carries no name; the stats snapshot does, indexed
    // by the dense corpus id the server just resolved.
    resolved_name->clear();
    auto stats_reply = CallServer(&socket.value(), host_port, net::kGetStats,
                                  2, ByteSpan{}, net::kStats);
    if (stats_reply.ok()) {
      auto snapshot = DecodeStatsBody(SpanOf(stats_reply.value().body),
                                      nullptr);
      uint32_t id = opened.value().corpus_id;
      if (snapshot.ok() && id < snapshot.value().corpora.size()) {
        *resolved_name = snapshot.value().corpora[id].name;
      }
    }
  }
  return dir;
}

}  // namespace serve
}  // namespace grepair
