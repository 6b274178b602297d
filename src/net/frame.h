// GRNF v2 wire frames: the length-prefixed, checksummed protocol the
// shard server and remote client speak over TCP.
//
// Every message is one frame (little-endian):
//
//   u32  magic    "GRNF"  (0x464E5247)
//   u8   version  2 (kProtoV2)
//   u8   type     FrameType below
//   u32  len      body byte length (<= kMaxFrameBody)
//   ...  body     `len` bytes
//   u64  checksum HashBytes over header + body (bytes [0, 10+len))
//
// Any other version byte or type fails closed as kCorruption. Types
// start at 6: 1-5 belonged to the retired GRNF v1 and stay unassigned.
//
// The protocol is multi-tenant (see src/net/README.md for the full
// spec). A connection opens with a synchronous handshake, then carries
// tagged requests, answered in order; every post-handshake body starts
// with a u64 request id the server echoes verbatim, which the client
// checks against the request it sent:
//
//   kHello      c->s  u32 highest protocol version the client speaks
//   kHelloOk    s->c  u32 negotiated version + u32 corpus count
//   kOpenCorpus c->s  u64 req_id + u8 name_len + name bytes (an empty
//                     name resolves iff the server hosts one corpus)
//   kCorpusDir  s->c  u64 req_id + u32 corpus_id + u64 dir_off + the
//                     corpus' raw GRSHARD2 directory bytes
//   kGetShard2  c->s  u64 req_id + u32 corpus_id + u32 shard index
//   kShard2     s->c  u64 req_id + u32 corpus_id + u32 echoed shard
//                     index + the shard's payload bytes
//   kGetStats   c->s  u64 req_id
//   kStats      s->c  u64 req_id + serving stats (src/serve/stats.h)
//   kError2     s->c  u64 req_id + u8 StatusCode + UTF-8 message
//
// The frame checksum fails closed on transport corruption; shard
// payload integrity is additionally pinned end-to-end by the GRSHARD2
// directory checksum the client verifies at fault time, so a server
// that sends a well-framed wrong payload is still caught.
//
// DecodeFrame is a pure function over a byte buffer (the fuzz harness
// drives it directly); ReadFrame/WriteFrame are the socket bindings.

#ifndef GREPAIR_NET_FRAME_H_
#define GREPAIR_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/byte_io.h"
#include "src/util/socket.h"
#include "src/util/status.h"

namespace grepair {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x464E5247u;  // "GRNF"
inline constexpr uint8_t kProtoV2 = 2;
inline constexpr size_t kFrameHeaderBytes = 10;
inline constexpr size_t kFrameChecksumBytes = 8;

/// \brief Body-length bound: a lying length field must not drive a
/// giant allocation. Shard payloads are compressed, so 64 MiB is far
/// above any real shard; larger shards are a server-side error frame.
inline constexpr size_t kMaxFrameBody = 64u << 20;

enum FrameType : uint8_t {
  kHello = 6,
  kHelloOk = 7,
  kOpenCorpus = 8,
  kCorpusDir = 9,
  kGetShard2 = 10,
  kShard2 = 11,
  kGetStats = 12,
  kStats = 13,
  kError2 = 14,
};

/// \brief One decoded frame.
struct Frame {
  uint8_t type = 0;
  std::vector<uint8_t> body;
};

/// \brief Encodes a complete frame (header + body + checksum).
std::vector<uint8_t> EncodeFrame(uint8_t type, ByteSpan body);

/// \brief Validates a frame header (magic, version 2, a type in
/// kHello..kError2, body bound). On success *type/*body_len receive
/// the parsed fields.
Status ValidateFrameHeader(const uint8_t* header, uint8_t* type,
                           uint32_t* body_len);

/// \brief Decodes one frame from the front of `bytes` (checksum
/// verified). *consumed (when non-null) receives the frame's total
/// size on success. Clean kCorruption on anything malformed.
Result<Frame> DecodeFrame(ByteSpan bytes, size_t* consumed = nullptr);

/// \brief Sends one frame; kUnavailable on IO failure/timeout.
Status WriteFrame(Socket* socket, uint8_t type, ByteSpan body);

/// \brief Receives exactly one frame. A clean EOF at a frame boundary
/// sets *clean_eof (the server's normal end-of-connection signal);
/// mid-frame EOF, timeouts and malformed bytes are non-OK without it.
Result<Frame> ReadFrame(Socket* socket, bool* clean_eof = nullptr);

/// \brief kError2 body encoding: u64 req_id + u8 StatusCode + message.
std::vector<uint8_t> EncodeErrorBody2(uint64_t req_id, const Status& status);

/// \brief Reconstructs the Status carried by a kError2 body (prefixed
/// with "shard server: " so callers can tell remote from local
/// failures); *req_id (when non-null) receives the echoed request id
/// (0 if the body is too short to carry one). Malformed bodies decode
/// to kCorruption.
Status DecodeErrorBody2(ByteSpan body, uint64_t* req_id = nullptr);

/// \brief The request id leading a v2 tagged body (kOpenCorpus,
/// kCorpusDir, kGetShard2, kShard2, kGetStats, kError2). kCorruption
/// for untagged types or bodies shorter than 8 bytes.
Result<uint64_t> FrameRequestId(const Frame& frame);

}  // namespace net
}  // namespace grepair

#endif  // GREPAIR_NET_FRAME_H_
