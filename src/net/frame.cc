#include "src/net/frame.h"

#include <cstring>

#include "src/util/hashing.h"

namespace grepair {
namespace net {

namespace {

// Shared checksum-and-finish step for a header+body buffer.
Status CheckTrailer(const uint8_t* checked, size_t checked_len,
                    const uint8_t* trailer) {
  ByteSource trailer_src(ByteSpan(trailer, kFrameChecksumBytes),
                         "frame checksum");
  uint64_t expected = 0;
  GREPAIR_RETURN_IF_ERROR(trailer_src.ReadU64LE(&expected));
  uint64_t actual = HashBytes(checked, checked_len);
  if (actual != expected) {
    return Status::Corruption("frame checksum mismatch (expected " +
                              HexU64(expected) + ", got " + HexU64(actual) +
                              " over " + std::to_string(checked_len) +
                              " byte(s))");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(uint8_t type, ByteSpan body) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + body.size + kFrameChecksumBytes);
  PutU32LE(kFrameMagic, &out);
  out.push_back(kProtoV2);
  out.push_back(type);
  PutU32LE(static_cast<uint32_t>(body.size), &out);
  out.insert(out.end(), body.begin(), body.end());
  PutU64LE(HashBytes(out.data(), out.size()), &out);
  return out;
}

Status ValidateFrameHeader(const uint8_t* header, uint8_t* type,
                           uint32_t* body_len) {
  ByteSource src(ByteSpan(header, kFrameHeaderBytes), "frame header");
  uint32_t magic = 0;
  uint8_t raw_version = 0;
  uint8_t raw_type = 0;
  uint32_t len = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&magic));
  GREPAIR_RETURN_IF_ERROR(src.ReadU8(&raw_version));
  GREPAIR_RETURN_IF_ERROR(src.ReadU8(&raw_type));
  GREPAIR_RETURN_IF_ERROR(src.ReadU32LE(&len));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic " + HexU64(magic) +
                              " (expected " + HexU64(kFrameMagic) + ")");
  }
  if (raw_version != kProtoV2) {
    return Status::Corruption("unsupported frame protocol version " +
                              std::to_string(raw_version) + " (expected " +
                              std::to_string(kProtoV2) + ")");
  }
  if (raw_type < kHello || raw_type > kError2) {
    return Status::Corruption("unknown frame type " +
                              std::to_string(raw_type));
  }
  if (len > kMaxFrameBody) {
    return Status::Corruption(
        "frame body length " + std::to_string(len) + " exceeds the " +
        std::to_string(kMaxFrameBody) + "-byte bound");
  }
  *type = raw_type;
  *body_len = len;
  return Status::OK();
}

Result<Frame> DecodeFrame(ByteSpan bytes, size_t* consumed) {
  if (bytes.size < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header: have " +
                              std::to_string(bytes.size) + " of " +
                              std::to_string(kFrameHeaderBytes) +
                              " byte(s)");
  }
  uint8_t type = 0;
  uint32_t body_len = 0;
  GREPAIR_RETURN_IF_ERROR(ValidateFrameHeader(bytes.data, &type, &body_len));
  size_t total = kFrameHeaderBytes + body_len + kFrameChecksumBytes;
  if (bytes.size < total) {
    return Status::Corruption("truncated frame: have " +
                              std::to_string(bytes.size) + " of " +
                              std::to_string(total) + " byte(s)");
  }
  size_t checked = kFrameHeaderBytes + body_len;
  GREPAIR_RETURN_IF_ERROR(
      CheckTrailer(bytes.data, checked, bytes.data + checked));
  Frame frame;
  frame.type = type;
  frame.body.assign(bytes.data + kFrameHeaderBytes,
                    bytes.data + kFrameHeaderBytes + body_len);
  if (consumed != nullptr) *consumed = total;
  return frame;
}

Status WriteFrame(Socket* socket, uint8_t type, ByteSpan body) {
  auto bytes = EncodeFrame(type, body);
  return socket->SendAll(SpanOf(bytes));
}

Result<Frame> ReadFrame(Socket* socket, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  uint8_t header[kFrameHeaderBytes];
  GREPAIR_RETURN_IF_ERROR(
      socket->RecvAll(header, kFrameHeaderBytes, clean_eof));
  uint8_t type = 0;
  uint32_t body_len = 0;
  GREPAIR_RETURN_IF_ERROR(ValidateFrameHeader(header, &type, &body_len));
  // One contiguous buffer so the checksum covers header + body exactly
  // as DecodeFrame sees it.
  std::vector<uint8_t> checked(kFrameHeaderBytes + body_len);
  std::memcpy(checked.data(), header, kFrameHeaderBytes);
  if (body_len > 0) {
    GREPAIR_RETURN_IF_ERROR(
        socket->RecvAll(checked.data() + kFrameHeaderBytes, body_len));
  }
  uint8_t trailer[kFrameChecksumBytes];
  GREPAIR_RETURN_IF_ERROR(socket->RecvAll(trailer, kFrameChecksumBytes));
  GREPAIR_RETURN_IF_ERROR(
      CheckTrailer(checked.data(), checked.size(), trailer));
  Frame frame;
  frame.type = type;
  frame.body.assign(checked.begin() + kFrameHeaderBytes, checked.end());
  return frame;
}

std::vector<uint8_t> EncodeErrorBody2(uint64_t req_id, const Status& status) {
  std::vector<uint8_t> body;
  const std::string& message = status.message();
  body.reserve(8 + 1 + message.size());
  PutU64LE(req_id, &body);
  body.push_back(static_cast<uint8_t>(status.code()));
  body.insert(body.end(), message.begin(), message.end());
  return body;
}

Status DecodeErrorBody2(ByteSpan body, uint64_t* req_id) {
  if (req_id != nullptr) *req_id = 0;
  ByteSource src(body, "error frame body");
  uint64_t id = 0;
  if (!src.ReadU64LE(&id).ok()) {
    return Status::Corruption("truncated error frame from shard server");
  }
  if (req_id != nullptr) *req_id = id;
  uint8_t code = 0;
  if (!src.ReadU8(&code).ok()) {
    return Status::Corruption("empty error frame from shard server");
  }
  ByteSpan rest = src.PeekRemaining();
  std::string message =
      "shard server: " + std::string(rest.begin(), rest.end());
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kOk:
    default:
      // An "error" frame claiming OK (or an unknown code) is itself a
      // protocol violation.
      return Status::Corruption("malformed error frame from shard server" +
                                std::string(" (code ") +
                                std::to_string(code) + "): " + message);
  }
}

Result<uint64_t> FrameRequestId(const Frame& frame) {
  switch (frame.type) {
    case kOpenCorpus:
    case kCorpusDir:
    case kGetShard2:
    case kShard2:
    case kGetStats:
    case kStats:
    case kError2:
      break;
    default:
      return Status::Corruption("frame type " + std::to_string(frame.type) +
                                " carries no request id");
  }
  ByteSource src(SpanOf(frame.body), "tagged frame body");
  uint64_t id = 0;
  GREPAIR_RETURN_IF_ERROR(src.ReadU64LE(&id));
  return id;
}

}  // namespace net
}  // namespace grepair
