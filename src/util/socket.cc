#include "src/util/socket.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#if defined(_WIN32)
#define GREPAIR_HAVE_SOCKETS 0
#else
#define GREPAIR_HAVE_SOCKETS 1
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace grepair {

namespace {

std::string ErrnoText() { return std::string(std::strerror(errno)); }

#if GREPAIR_HAVE_SOCKETS
bool WouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

// What SendAll/RecvAll return once the armed deadline has passed.
Status PastDeadline(const char* op, int timeout_ms, size_t done,
                    size_t total) {
  return Status::Unavailable(
      std::string(op) + " missed its " + std::to_string(timeout_ms) +
      "ms round-trip deadline after " + std::to_string(done) + " of " +
      std::to_string(total) + " byte(s)");
}
#endif

}  // namespace

void Socket::ArmDeadline() {
  deadline_ = timeout_ms_ > 0 ? std::chrono::steady_clock::now() +
                                    std::chrono::milliseconds(timeout_ms_)
                              : std::chrono::steady_clock::time_point::max();
}

#if GREPAIR_HAVE_SOCKETS

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status Socket::SetTimeouts(int millis) {
  if (fd_ < 0) return Status::Internal("SetTimeouts on an invalid socket");
  struct timeval tv;
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::Internal("setsockopt timeout: " + ErrnoText());
  }
  timeout_ms_ = millis;
  return Status::OK();
}

Status Socket::SendAll(ByteSpan bytes) {
  size_t off = 0;
  while (off < bytes.size) {
    if (std::chrono::steady_clock::now() >= deadline_) {
      return PastDeadline("send", timeout_ms_, off, bytes.size);
    }
    ssize_t n = ::send(fd_, bytes.data + off, bytes.size - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          (WouldBlock(errno) ? "send timed out" : "send failed") +
          std::string(" after ") + std::to_string(off) + " of " +
          std::to_string(bytes.size) + " byte(s): " + ErrnoText());
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::RecvAll(uint8_t* out, size_t n, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t off = 0;
  while (off < n) {
    if (std::chrono::steady_clock::now() >= deadline_) {
      return PastDeadline("recv", timeout_ms_, off, n);
    }
    ssize_t got = ::recv(fd_, out + off, n - off, 0);
    if (got == 0) {
      if (off == 0 && clean_eof != nullptr) *clean_eof = true;
      return Status::Unavailable(
          "connection closed by peer after " + std::to_string(off) +
          " of " + std::to_string(n) + " byte(s)");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          (WouldBlock(errno) ? "recv timed out" : "recv failed") +
          std::string(" after ") + std::to_string(off) + " of " +
          std::to_string(n) + " byte(s): " + ErrnoText());
    }
    off += static_cast<size_t>(got);
  }
  return Status::OK();
}

namespace {

// Shared getaddrinfo walk for connect and listen.
Result<Socket> OpenResolved(const std::string& host, uint16_t port,
                            bool listening, int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listening) hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  int rc = getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                       &res);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve " + host + ": " +
                               gai_strerror(rc));
  }
  Status last = Status::Unavailable("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Socket s(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!s.valid()) {
      last = Status::Internal("socket(): " + ErrnoText());
      continue;
    }
    if (listening) {
      int one = 1;
      setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (bind(s.fd(), ai->ai_addr, ai->ai_addrlen) != 0 ||
          listen(s.fd(), 64) != 0) {
        last = Status::Unavailable("cannot listen on " + host + ":" +
                                   std::to_string(port) + ": " +
                                   ErrnoText());
        continue;
      }
    } else {
      // SO_SNDTIMEO bounds connect() itself on Linux, so a dead remote
      // fails within the deadline instead of the kernel's default.
      if (timeout_ms > 0) {
        Status t = s.SetTimeouts(timeout_ms);
        if (!t.ok()) {
          last = t;
          continue;
        }
      }
      if (connect(s.fd(), ai->ai_addr, ai->ai_addrlen) != 0) {
        last = Status::Unavailable("cannot connect to " + host + ":" +
                                   std::to_string(port) + ": " +
                                   ErrnoText());
        continue;
      }
    }
    freeaddrinfo(res);
    return s;
  }
  freeaddrinfo(res);
  return last;
}

}  // namespace

Result<Socket> Socket::ConnectTcp(const std::string& host, uint16_t port,
                                  int timeout_ms) {
  return OpenResolved(host, port, /*listening=*/false, timeout_ms);
}

Result<Socket> Socket::ListenTcp(const std::string& host, uint16_t port,
                                 uint16_t* bound_port) {
  auto s = OpenResolved(host, port, /*listening=*/true, 0);
  if (!s.ok()) return s.status();
  if (bound_port != nullptr) {
    struct sockaddr_storage addr;
    socklen_t len = sizeof(addr);
    if (getsockname(s.value().fd(),
                    reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
      return Status::Internal("getsockname: " + ErrnoText());
    }
    if (addr.ss_family == AF_INET) {
      *bound_port = ntohs(
          reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      *bound_port = ntohs(
          reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
    } else {
      return Status::Internal("unexpected bound address family");
    }
  }
  return s;
}

Result<Socket> Socket::Accept() const {
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return Status::Unavailable("accept: " + ErrnoText());
  }
}

#else  // !GREPAIR_HAVE_SOCKETS

namespace {
Status NoSockets() {
  return Status::Unimplemented("no socket support on this platform");
}
}  // namespace

void Socket::Close() { fd_ = -1; }
void Socket::ShutdownBoth() {}
Status Socket::SetTimeouts(int) { return NoSockets(); }
Status Socket::SendAll(ByteSpan) { return NoSockets(); }
Status Socket::RecvAll(uint8_t*, size_t, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  return NoSockets();
}
Result<Socket> Socket::ConnectTcp(const std::string&, uint16_t, int) {
  return NoSockets();
}
Result<Socket> Socket::ListenTcp(const std::string&, uint16_t, uint16_t*) {
  return NoSockets();
}
Result<Socket> Socket::Accept() const { return NoSockets(); }

#endif  // GREPAIR_HAVE_SOCKETS

namespace {

bool ParsePortText(const std::string& text, uint16_t* port) {
  if (text.empty() || text[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long value = std::strtoul(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || value == 0 ||
      value > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace

Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port) {
  // Bracketed IPv6 literal, "[::1]:9000": the port separator is the
  // colon after the bracket and the brackets are stripped for
  // getaddrinfo.
  if (!spec.empty() && spec[0] == '[') {
    size_t close = spec.find(']');
    // close == 1 is the empty bracket pair "[]:9000" — no host to
    // dial; rejected like any other malformed spec.
    if (close == std::string::npos || close == 1 ||
        close + 1 >= spec.size() || spec[close + 1] != ':' ||
        !ParsePortText(spec.substr(close + 2), port)) {
      return Status::InvalidArgument("expected [host]:port, got '" + spec +
                                     "'");
    }
    *host = spec.substr(1, close - 1);
    return Status::OK();
  }
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      !ParsePortText(spec.substr(colon + 1), port)) {
    return Status::InvalidArgument("expected host:port, got '" + spec +
                                   "'");
  }
  *host = spec.substr(0, colon);
  return Status::OK();
}

}  // namespace grepair
