// Status-ful TCP socket RAII: the transport primitive under the shard
// serving layer (src/net/).
//
// Socket owns one file descriptor and exposes exactly the operations
// the frame protocol needs: exact-length sends and receives with
// per-socket timeouts, plus the listen/accept/connect constructors.
// Every failure is a Status naming the peer and the errno string —
// a stalled or dead peer surfaces as kUnavailable after the timeout,
// never as a hang. A client arms a deadline per round trip
// (ArmDeadline), so a peer that trickles bytes cannot stretch one past
// about one timeout either. SIGPIPE is suppressed per send
// (MSG_NOSIGNAL), so a peer closing mid-write is an error return, not
// process death.
//
// Platforms without BSD sockets (_WIN32 in this tree) get stubs that
// return kUnimplemented; the net layer degrades to "not supported"
// instead of failing the build.

#ifndef GREPAIR_UTIL_SOCKET_H_
#define GREPAIR_UTIL_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Move-only RAII wrapper of one TCP socket descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept { *this = std::move(other); }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      timeout_ms_ = other.timeout_ms_;
      deadline_ = other.deadline_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// \brief Closes the descriptor (idempotent).
  void Close();

  /// \brief Half-closes both directions without releasing the fd —
  /// unblocks a peer (or another thread of this process) currently
  /// parked in recv on this socket. Safe on an already-closed socket.
  void ShutdownBoth();

  /// \brief Applies `millis` as both SO_RCVTIMEO and SO_SNDTIMEO
  /// (0 = block forever). Every RecvAll/SendAll after this fails with
  /// kUnavailable instead of blocking past the deadline.
  Status SetTimeouts(int millis);

  /// \brief Starts one round trip's deadline: from now on, SendAll and
  /// RecvAll fail kUnavailable between transfers once the SetTimeouts
  /// timeout has elapsed since this call, however steadily bytes
  /// arrive. The deadline holds until the next call; without a
  /// timeout there is none.
  void ArmDeadline();

  /// \brief Sends all of `bytes`; kUnavailable on timeout, reset, or
  /// close (partial progress is reported in the message).
  Status SendAll(ByteSpan bytes);

  /// \brief Receives exactly `n` bytes into `out`. A clean EOF before
  /// the first byte sets *clean_eof (when non-null) and still returns
  /// kUnavailable; EOF mid-message never sets it.
  Status RecvAll(uint8_t* out, size_t n, bool* clean_eof = nullptr);

  /// \brief Connects to host:port with `timeout_ms` applied to the
  /// connect itself and to subsequent IO. Resolves names via
  /// getaddrinfo, so "localhost" and dotted quads both work.
  static Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                                   int timeout_ms);

  /// \brief Binds and listens on host:port (port 0 picks an ephemeral
  /// port); *bound_port (when non-null) receives the actual port.
  static Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                                  uint16_t* bound_port);

  /// \brief Accepts one connection on a listening socket. The
  /// listener being closed/shut down from another thread surfaces as
  /// kUnavailable (the accept loop's shutdown signal).
  Result<Socket> Accept() const;

 private:
  int fd_ = -1;
  int timeout_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
};

/// \brief Splits "host:port" (e.g. "127.0.0.1:9000", "localhost:80").
/// kInvalidArgument names the spec on any malformed input.
Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port);

}  // namespace grepair

#endif  // GREPAIR_UTIL_SOCKET_H_
