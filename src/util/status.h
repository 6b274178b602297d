// Lightweight Status / Result error-handling primitives.
//
// Public APIs that can fail for data-dependent reasons (parsing, decoding,
// validation) return Status or Result<T> instead of throwing; internal
// invariant violations use assertions. This mirrors the RocksDB/Arrow
// convention for database-engine code.

#ifndef GREPAIR_UTIL_STATUS_H_
#define GREPAIR_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

namespace grepair {

/// \brief Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kCorruption,
  kNotFound,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kUnavailable,
};

/// \brief Result status of a fallible operation.
///
/// A Status is either OK (the default) or carries a code and a message.
/// It is cheap to copy in the OK case and must be inspected by callers
/// (`[[nodiscard]]`).
class [[nodiscard]] Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// \brief Transient external failure (network timeout, closed
  /// connection, refused endpoint): retrying against a healthy peer
  /// may succeed, unlike kCorruption, which says the bytes are bad.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief Human-readable rendering, e.g. "Corruption: bad magic".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string name;
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "InvalidArgument"; break;
      case StatusCode::kCorruption: name = "Corruption"; break;
      case StatusCode::kNotFound: name = "NotFound"; break;
      case StatusCode::kOutOfRange: name = "OutOfRange"; break;
      case StatusCode::kUnimplemented: name = "Unimplemented"; break;
      case StatusCode::kInternal: name = "Internal"; break;
      case StatusCode::kUnavailable: name = "Unavailable"; break;
    }
    return name + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief Value-or-error union returned by fallible constructors.
///
/// Holds either a value of type T or a non-OK Status. Access to the value
/// of a failed Result is an assertion failure.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(runtime/explicit)

  /// \brief Converts a Result<U> whose value converts to T (e.g. a
  /// derived-class unique_ptr into a base-class one).
  template <typename U,
            typename = std::enable_if_t<!std::is_same_v<U, T> &&
                                        std::is_convertible_v<U&&, T>>>
  Result(Result<U>&& other)  // NOLINT(runtime/explicit)
      : status_(other.status()) {
    if (ok()) value_.emplace(std::move(other).ValueOrDie());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// \brief Moves the value out; asserts on failed results.
  T ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_ = Status::OK();
};

// Propagates a non-OK status to the caller.
#define GREPAIR_RETURN_IF_ERROR(expr)              \
  do {                                             \
    ::grepair::Status _st = (expr);                \
    if (!_st.ok()) return _st;                     \
  } while (0)

}  // namespace grepair

#endif  // GREPAIR_UTIL_STATUS_H_
