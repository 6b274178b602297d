// Fault injection for the shard-serving path: a misbehaving-server
// shim speaking GRNF v2 feeds the client every class of wire-level
// lie — truncated frames, bit-flipped payloads, wrong shard ids,
// premature closes, stalled and trickled writes, garbage frames,
// corrupted frame checksums — and every one must surface as a clean
// Status (kCorruption or kUnavailable), never a crash, hang, or
// silently wrong answer. The real server is also attacked from the
// client side (garbage bytes, out-of-range requests, silent
// connections, a retired GRNF v1 frame, a down-version handshake) and
// must keep serving well-behaved peers. Runs under the ASan/UBSan and
// TSan CI legs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fuzz/golden_seeds.h"
#include "src/api/grepair_api.h"
#include "src/net/frame.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/stats.h"

namespace grepair {
namespace {

// A small real container to lie about: 2 data shards + cut shard.
std::vector<uint8_t> MakeContainer() {
  GeneratedGraph gg = BarabasiAlbert(60, 3, 53);
  auto codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  api::CodecOptions options;
  options.Set("shards", "2");
  auto rep = codec->Compress(gg.graph, gg.alphabet, options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return dynamic_cast<shard::ShardedRep*>(rep.value().get())->SerializeV2();
}

enum class Fault {
  kNone,               // behave (baseline for the shim itself)
  kTruncatedFrame,     // half a shard frame, then close
  kBitFlippedPayload,  // well-framed payload with one flipped bit
  kWrongShardId,       // echoes index+1
  kPrematureClose,     // close instead of answering GetShard2
  kStalledWrite,       // sleep past the client's timeout
  kGarbageFrame,       // non-frame bytes
  kBadFrameChecksum,   // valid frame, last checksum byte flipped
  kCorruptDirectory,   // truncated directory at connect time
  kWrongOpenId,        // kCorpusDir echoes another request id
  kTrickledDirectory,  // kCorpusDir sent one byte per 100 ms
  kTrickledWrite,      // kShard2 sent one byte per 100 ms
};

// Speaks just enough GRNF v2 to get a real client through the
// kHello/kOpenCorpus handshake, then applies `fault` to kGetShard2
// (or, for kCorruptDirectory, kWrongOpenId and kTrickledDirectory, to
// the kCorpusDir reply).
// Single-connection, joins on destruction.
class MisbehavingServer {
 public:
  MisbehavingServer(std::vector<uint8_t> container, Fault fault)
      : container_(std::move(container)), fault_(fault) {
    auto parsed = shard::ParseContainer(SpanOf(container_));
    EXPECT_TRUE(parsed.ok());
    dir_off_ = parsed.value().dir_off;
    dir_region_ = parsed.value().region;
    rows_ = std::move(parsed).ValueOrDie().dir.rows;
    auto listener = Socket::ListenTcp("127.0.0.1", 0, &port_);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener).ValueOrDie();
    thread_ = std::thread([this] { Run(); });
  }

  ~MisbehavingServer() {
    stopping_.store(true);
    // Shutdown only: Close() writes the fd and would race the server
    // thread's Accept; descriptors close with the Socket members
    // after the join.
    listener_.ShutdownBoth();
    {
      // conn_ is moved into by the server thread between connections;
      // the shutdown that unblocks its recv must not race that.
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_.ShutdownBoth();
    }
    if (thread_.joinable()) thread_.join();
  }

  std::string host_port() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  void Run() {
    while (!stopping_.load()) {
      auto conn = listener_.Accept();
      if (!conn.ok()) return;
      {
        std::lock_guard<std::mutex> lock(conn_mu_);
        conn_ = std::move(conn).ValueOrDie();
      }
      (void)conn_.SetTimeouts(2000);
      ServeOne();
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_.ShutdownBoth();  // a refused answer is a closed connection
      conn_.Close();
    }
  }

  void ServeOne() {
    while (!stopping_.load()) {
      bool clean_eof = false;
      auto frame = net::ReadFrame(&conn_, &clean_eof);
      if (!frame.ok()) return;
      if (frame.value().type == net::kHello) {
        std::vector<uint8_t> body;
        PutU32LE(net::kProtoV2, &body);
        PutU32LE(1, &body);  // one corpus
        (void)net::WriteFrame(&conn_, net::kHelloOk, SpanOf(body));
        continue;
      }
      ByteSource src(SpanOf(frame.value().body), "shim request body");
      uint64_t req_id = 0;
      if (!src.ReadU64LE(&req_id).ok()) return;
      if (frame.value().type == net::kOpenCorpus) {
        std::vector<uint8_t> body;
        PutU64LE(fault_ == Fault::kWrongOpenId ? req_id + 1 : req_id, &body);
        PutU32LE(0, &body);  // corpus id
        PutU64LE(dir_off_, &body);
        body.insert(body.end(), dir_region_.begin(), dir_region_.end());
        if (fault_ == Fault::kCorruptDirectory) {
          body.resize(body.size() / 2);  // truncated directory
        }
        if (fault_ == Fault::kTrickledDirectory) {
          if (!Trickle(net::EncodeFrame(net::kCorpusDir, SpanOf(body)))) {
            return;
          }
          continue;
        }
        (void)net::WriteFrame(&conn_, net::kCorpusDir, SpanOf(body));
        continue;
      }
      if (frame.value().type != net::kGetShard2) return;
      uint32_t corpus_id = 0;
      uint32_t index = 0;
      if (!src.ReadU32LE(&corpus_id).ok() || !src.ReadU32LE(&index).ok()) {
        return;
      }
      if (!Misbehave(req_id, corpus_id, index)) return;
    }
  }

  // Sends `bytes` one per 100 ms: every recv makes progress, so only a
  // deadline over the whole round trip stops the client waiting. False
  // once the client hangs up or the shim stops.
  bool Trickle(const std::vector<uint8_t>& bytes) {
    for (uint8_t byte : bytes) {
      if (stopping_.load() || !conn_.SendAll(ByteSpan{&byte, 1}).ok()) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return true;
  }

  // One faulty kGetShard2 answer; false = close the connection.
  bool Misbehave(uint64_t req_id, uint32_t corpus_id, uint32_t index) {
    std::vector<uint8_t> body;
    PutU64LE(req_id, &body);
    PutU32LE(corpus_id, &body);
    PutU32LE(index, &body);
    const size_t payload_at = body.size();
    if (index < rows_.size() && rows_[index].length > 0) {
      ByteSpan blob = SpanOf(container_)
                          .subspan(rows_[index].offset, rows_[index].length);
      body.insert(body.end(), blob.begin(), blob.end());
    }
    switch (fault_) {
      case Fault::kNone:
      case Fault::kCorruptDirectory:
      case Fault::kWrongOpenId:
      case Fault::kTrickledDirectory:
        return net::WriteFrame(&conn_, net::kShard2, SpanOf(body)).ok();
      case Fault::kTruncatedFrame: {
        auto bytes = net::EncodeFrame(net::kShard2, SpanOf(body));
        bytes.resize(bytes.size() / 2);
        (void)conn_.SendAll(SpanOf(bytes));
        return false;
      }
      case Fault::kBitFlippedPayload:
        // Flip one payload bit, then frame normally: the frame
        // checksum is consistent with the flipped bytes, so only the
        // directory's payload checksum can catch it.
        body[payload_at + (body.size() - payload_at) / 2] ^= 0x10;
        return net::WriteFrame(&conn_, net::kShard2, SpanOf(body)).ok();
      case Fault::kWrongShardId: {
        std::vector<uint8_t> wrong;
        PutU64LE(req_id, &wrong);
        PutU32LE(corpus_id, &wrong);
        PutU32LE(index + 1, &wrong);
        wrong.insert(wrong.end(), body.begin() + payload_at, body.end());
        return net::WriteFrame(&conn_, net::kShard2, SpanOf(wrong)).ok();
      }
      case Fault::kPrematureClose:
        return false;
      case Fault::kStalledWrite:
        // Far past the client's 300 ms timeout; bounded so teardown
        // stays fast.
        for (int i = 0; i < 20 && !stopping_.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        return net::WriteFrame(&conn_, net::kShard2, SpanOf(body)).ok();
      case Fault::kTrickledWrite:
        return Trickle(net::EncodeFrame(net::kShard2, SpanOf(body)));
      case Fault::kGarbageFrame: {
        std::vector<uint8_t> garbage(32, 0x5A);
        (void)conn_.SendAll(SpanOf(garbage));
        return false;
      }
      case Fault::kBadFrameChecksum: {
        auto bytes = net::EncodeFrame(net::kShard2, SpanOf(body));
        bytes.back() ^= 0xFF;
        (void)conn_.SendAll(SpanOf(bytes));
        return false;
      }
    }
    return false;
  }

  std::vector<uint8_t> container_;
  Fault fault_;
  uint64_t dir_off_ = 0;
  ByteSpan dir_region_;
  std::vector<shard::ShardDirEntry> rows_;
  uint16_t port_ = 0;
  Socket listener_;
  std::mutex conn_mu_;  // guards moves/closes of conn_, not its IO
  Socket conn_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

class NetFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    container_ = new std::vector<uint8_t>(MakeContainer());
  }
  static void TearDownTestSuite() {
    delete container_;
    container_ = nullptr;
  }
  static std::vector<uint8_t>* container_;
};

std::vector<uint8_t>* NetFaultTest::container_ = nullptr;

// The shim serves one connection at a time, so the pool must not dial
// extra slots mid-test.
serve::OpenOptions OnePoolSlot(int io_timeout_ms) {
  serve::OpenOptions options;
  options.pool_size = 1;
  options.io_timeout_ms = io_timeout_ms;
  return options;
}

// Expects OpenRemote to succeed and the first query to fail with a
// clean, descriptive Status of an expected code.
void ExpectQueryFailsClosed(const std::string& host_port,
                            std::initializer_list<StatusCode> codes) {
  auto rep = serve::OpenRemoteContainer(host_port, OnePoolSlot(300));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto out = rep.value()->OutNeighbors(0);
  ASSERT_FALSE(out.ok()) << "query must fail closed";
  bool expected = false;
  for (StatusCode code : codes) {
    if (out.status().code() == code) expected = true;
  }
  EXPECT_TRUE(expected) << out.status().ToString();
  EXPECT_FALSE(out.status().message().empty());
  // The failure must not poison the error contract: a second query is
  // still a clean Status (fail-fast on the broken connection or a
  // fresh failure), never a crash.
  auto again = rep.value()->OutNeighbors(0);
  EXPECT_FALSE(again.ok());
}

TEST_F(NetFaultTest, ShimBaselineBehaves) {
  MisbehavingServer server(*container_, Fault::kNone);
  auto rep = serve::OpenRemoteContainer(server.host_port(),
                                        OnePoolSlot(2000));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto out = rep.value()->OutNeighbors(0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

TEST_F(NetFaultTest, TruncatedFrameFailsClosed) {
  MisbehavingServer server(*container_, Fault::kTruncatedFrame);
  ExpectQueryFailsClosed(server.host_port(), {StatusCode::kUnavailable});
}

TEST_F(NetFaultTest, BitFlippedPayloadFailsChecksum) {
  MisbehavingServer server(*container_, Fault::kBitFlippedPayload);
  auto rep = serve::OpenRemoteContainer(server.host_port(),
                                        OnePoolSlot(2000));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto out = rep.value()->OutNeighbors(0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
  EXPECT_NE(out.status().message().find("checksum"), std::string::npos)
      << out.status().ToString();
}

TEST_F(NetFaultTest, WrongShardIdIsCorruption) {
  MisbehavingServer server(*container_, Fault::kWrongShardId);
  ExpectQueryFailsClosed(server.host_port(), {StatusCode::kCorruption});
}

TEST_F(NetFaultTest, PrematureCloseIsUnavailable) {
  MisbehavingServer server(*container_, Fault::kPrematureClose);
  ExpectQueryFailsClosed(server.host_port(), {StatusCode::kUnavailable});
}

TEST_F(NetFaultTest, StalledWriteTimesOutInsteadOfHanging) {
  MisbehavingServer server(*container_, Fault::kStalledWrite);
  auto start = std::chrono::steady_clock::now();
  ExpectQueryFailsClosed(server.host_port(), {StatusCode::kUnavailable});
  auto elapsed = std::chrono::steady_clock::now() - start;
  // 300 ms timeout, generous margin for loaded runners — the point is
  // "bounded", not "fast".
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
}

TEST_F(NetFaultTest, TrickledResponseMissesTheRequestDeadline) {
  // Every byte arrives well inside the 300 ms socket timeout; the
  // fetch must still fail once the round trip as a whole overruns it.
  MisbehavingServer server(*container_, Fault::kTrickledWrite);
  auto start = std::chrono::steady_clock::now();
  ExpectQueryFailsClosed(server.host_port(), {StatusCode::kUnavailable});
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
}

TEST_F(NetFaultTest, TrickledDirectoryMissesTheOpenDeadline) {
  // The open's round trips are bounded like a fetch: a kCorpusDir
  // reply trickled past io_timeout_ms fails the open, however long
  // the directory is.
  MisbehavingServer server(*container_, Fault::kTrickledDirectory);
  auto start = std::chrono::steady_clock::now();
  auto rep = serve::OpenRemoteContainer(server.host_port(), OnePoolSlot(300));
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rep.ok()) << "a trickled directory must miss the deadline";
  EXPECT_EQ(rep.status().code(), StatusCode::kUnavailable)
      << rep.status().ToString();
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
}

TEST_F(NetFaultTest, GarbageFrameIsCorruption) {
  MisbehavingServer server(*container_, Fault::kGarbageFrame);
  ExpectQueryFailsClosed(
      server.host_port(),
      {StatusCode::kCorruption, StatusCode::kUnavailable});
}

TEST_F(NetFaultTest, CorruptedFrameChecksumIsCorruption) {
  MisbehavingServer server(*container_, Fault::kBadFrameChecksum);
  ExpectQueryFailsClosed(server.host_port(), {StatusCode::kCorruption});
}

TEST_F(NetFaultTest, CorruptDirectoryFailsAtConnect) {
  MisbehavingServer server(*container_, Fault::kCorruptDirectory);
  auto rep = serve::OpenRemoteContainer(server.host_port(),
                                        OnePoolSlot(2000));
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption);
}

TEST_F(NetFaultTest, WrongEchoedOpenIdIsCorruption) {
  // Both client paths share one tagged round trip, so both check the
  // request id a kCorpusDir reply echoes.
  MisbehavingServer server(*container_, Fault::kWrongOpenId);
  auto dir = serve::FetchCorpusDirectory(server.host_port(), "", 2000);
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.status().code(), StatusCode::kCorruption)
      << dir.status().ToString();
  auto rep = serve::OpenRemoteContainer(server.host_port(),
                                        OnePoolSlot(2000));
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kCorruption)
      << rep.status().ToString();
}

// --- attacks against the real server -------------------------------------

std::unique_ptr<serve::ShardServer> StartRealServer(
    const std::vector<uint8_t>& container) {
  serve::CorpusRegistry registry;
  Status added = registry.AddBytes("g", SpanOf(container));
  EXPECT_TRUE(added.ok()) << added.ToString();
  auto server = serve::ShardServer::Start(std::move(registry));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

// Dials the real server and completes the v2 handshake.
Socket HandshakedConn(const serve::ShardServer& server) {
  auto conn = Socket::ConnectTcp("127.0.0.1", server.port(), 2000);
  EXPECT_TRUE(conn.ok());
  EXPECT_TRUE(conn.value().SetTimeouts(2000).ok());
  std::vector<uint8_t> hello;
  PutU32LE(net::kProtoV2, &hello);
  EXPECT_TRUE(
      net::WriteFrame(&conn.value(), net::kHello, SpanOf(hello)).ok());
  auto reply = net::ReadFrame(&conn.value());
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, net::kHelloOk);
  return std::move(conn).ValueOrDie();
}

TEST_F(NetFaultTest, RealServerSurvivesGarbageAndKeepsServing) {
  auto server = StartRealServer(*container_);

  // Garbage connection: raw non-frame bytes.
  {
    auto conn = Socket::ConnectTcp("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> garbage(64, 0xFF);
    ASSERT_TRUE(conn.value().SendAll(SpanOf(garbage)).ok());
  }
  // Out-of-range shard requests: tagged error frames, and the
  // connection stays usable afterwards.
  {
    Socket conn = HandshakedConn(*server);
    std::vector<uint8_t> body;
    PutU64LE(7, &body);  // req_id
    PutU32LE(0, &body);  // corpus id
    PutU32LE(999, &body);
    ASSERT_TRUE(
        net::WriteFrame(&conn, net::kGetShard2, SpanOf(body)).ok());
    auto reply = net::ReadFrame(&conn);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.value().type, net::kError2);
    uint64_t req_id = 0;
    Status decoded =
        net::DecodeErrorBody2(SpanOf(reply.value().body), &req_id);
    EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(req_id, 7u);
    // Same connection, now a valid request.
    std::vector<uint8_t> open;
    PutU64LE(8, &open);
    open.push_back(0);  // empty name: the sole corpus
    ASSERT_TRUE(
        net::WriteFrame(&conn, net::kOpenCorpus, SpanOf(open)).ok());
    auto dir = net::ReadFrame(&conn);
    ASSERT_TRUE(dir.ok());
    EXPECT_EQ(dir.value().type, net::kCorpusDir);
  }
  // A well-behaved client still gets correct answers.
  auto rep = serve::OpenRemoteContainer(server->host_port());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value()->OutNeighbors(0).ok());
  EXPECT_GT(server->stats().errors, 0u);
}

// Reads the kError2 a refused request gets; returns its Status and
// stores the echoed request id.
Status ReadServedError(Socket* conn, uint64_t* req_id) {
  auto reply = net::ReadFrame(conn);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return reply.status();
  EXPECT_EQ(reply.value().type, net::kError2);
  return net::DecodeErrorBody2(SpanOf(reply.value().body), req_id);
}

TEST_F(NetFaultTest, RetiredV1FrameGetsErrorThenClose) {
  auto server = StartRealServer(*container_);
  // A GRNF v1 client leads with kGetDir (version 1, type 1). That is a
  // malformed stream now: one kError2 with request id 0, then close.
  auto conn = Socket::ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().SetTimeouts(2000).ok());
  auto v1 = fuzz::WithFrameHeader(net::EncodeFrame(net::kHello, ByteSpan{}),
                                  /*version=*/1, /*type=*/1);
  ASSERT_TRUE(conn.value().SendAll(SpanOf(v1)).ok());
  uint64_t req_id = 99;
  Status served = ReadServedError(&conn.value(), &req_id);
  EXPECT_EQ(served.code(), StatusCode::kCorruption) << served.ToString();
  EXPECT_NE(served.message().find("protocol version 1"), std::string::npos)
      << served.ToString();
  EXPECT_EQ(req_id, 0u);
  auto after = net::ReadFrame(&conn.value());
  ASSERT_FALSE(after.ok()) << "the server must close the connection";
  EXPECT_EQ(after.status().message().find("timed out"), std::string::npos)
      << after.status().ToString();
}

TEST_F(NetFaultTest, DownVersionHelloIsRefusedAndTheConnectionStays) {
  auto server = StartRealServer(*container_);
  auto conn = Socket::ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().SetTimeouts(2000).ok());
  for (uint32_t claimed : {0u, 1u}) {
    std::vector<uint8_t> hello;
    PutU32LE(claimed, &hello);  // "I speak at most v<claimed>"
    ASSERT_TRUE(
        net::WriteFrame(&conn.value(), net::kHello, SpanOf(hello)).ok());
    uint64_t req_id = 99;
    Status served = ReadServedError(&conn.value(), &req_id);
    EXPECT_EQ(served.code(), StatusCode::kInvalidArgument)
        << served.ToString();
    EXPECT_NE(served.message().find("GRNF v2"), std::string::npos)
        << served.ToString();
    EXPECT_EQ(req_id, 0u);
  }
  // The stream is in sync: a proper kHello on the same connection
  // still succeeds.
  std::vector<uint8_t> hello;
  PutU32LE(net::kProtoV2, &hello);
  ASSERT_TRUE(
      net::WriteFrame(&conn.value(), net::kHello, SpanOf(hello)).ok());
  auto reply = net::ReadFrame(&conn.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, net::kHelloOk);

  // Real clients are unaffected throughout.
  auto rep = serve::OpenRemoteContainer(server->host_port());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value()->OutNeighbors(0).ok());
}

// Address parsing regressions: bracketed IPv6 literals must survive
// both layers — ParseHostPort (the dial path) and SplitTarget (the
// target/corpus split used by OpenRemote).
TEST(AddressParsing, BracketedIpv6HostPort) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("[::1]:9000", &host, &port).ok());
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 9000);

  ASSERT_TRUE(ParseHostPort("[2001:db8::42]:443", &host, &port).ok());
  EXPECT_EQ(host, "2001:db8::42");
  EXPECT_EQ(port, 443);

  // Unbracketed IPv6 keeps the historical reading: everything before
  // the last colon is the host.
  ASSERT_TRUE(ParseHostPort("::1:9000", &host, &port).ok());
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 9000);
}

TEST(AddressParsing, MalformedBracketSpecsAreRejected) {
  std::string host;
  uint16_t port = 0;
  const char* bad[] = {
      "[]:9000",       // empty bracket pair: no host to dial
      "[::1]",         // no port
      "[::1]:",        // empty port
      "[::1]9000",     // missing separator colon
      "[::1:9000",     // unterminated bracket
      "[::1]:0",       // port 0
      "[::1]:99999",   // port out of range
      "[::1]:-1",      // negative port
  };
  for (const char* spec : bad) {
    EXPECT_EQ(ParseHostPort(spec, &host, &port).code(),
              StatusCode::kInvalidArgument)
        << "accepted '" << spec << "'";
  }
}

TEST(AddressParsing, SplitTargetKeepsIpv6Brackets) {
  std::string host_port, corpus;
  ASSERT_TRUE(
      serve::SplitTarget("[::1]:9000/wikidata", &host_port, &corpus).ok());
  EXPECT_EQ(host_port, "[::1]:9000");
  EXPECT_EQ(corpus, "wikidata");

  ASSERT_TRUE(serve::SplitTarget("[::1]:9000", &host_port, &corpus).ok());
  EXPECT_EQ(host_port, "[::1]:9000");
  EXPECT_EQ(corpus, "");

  // The host:port half that SplitTarget hands back must itself parse.
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort(host_port, &host, &port).ok());
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 9000);

  // "." and ".." would name a directory outside the SSD tier's own.
  for (const char* target : {"[::1]:9000/.", "[::1]:9000/.."}) {
    EXPECT_EQ(serve::SplitTarget(target, &host_port, &corpus).code(),
              StatusCode::kInvalidArgument)
        << target;
  }
}

TEST_F(NetFaultTest, StopUnblocksSilentConnections) {
  auto server = StartRealServer(*container_);
  // A client that connects and says nothing must not wedge Stop.
  auto conn = Socket::ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto start = std::chrono::steady_clock::now();
  server->Stop();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
}

}  // namespace
}  // namespace grepair
