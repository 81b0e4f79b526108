#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace xicc {

/// Error categories used across the library. Library code never throws;
/// fallible operations return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  /// Malformed input to a parser (XML, DTD, or constraint syntax).
  kParseError,
  /// Structurally invalid argument (e.g., a constraint referring to an
  /// attribute not defined for its element type).
  kInvalidArgument,
  /// The requested analysis has no algorithm for this constraint class
  /// (multi-attribute keys + foreign keys; Theorem 3.1 / Corollary 3.4).
  kUndecidableClass,
  /// A resource limit (node budget, solver iterations) was exhausted before
  /// the analysis finished.
  kResourceExhausted,
  /// A wall-clock deadline expired before the analysis finished. Like
  /// kResourceExhausted this is NOT a verdict: a timed-out check never says
  /// consistent or inconsistent, it reports partial progress and stops.
  kDeadlineExceeded,
  /// The caller (or a fault probe) cooperatively cancelled the analysis.
  kCancelled,
  /// The service (or a resource it depends on) is temporarily unable to
  /// take the work — overload shed, drain in progress, or a transient I/O
  /// failure such as a disk-full artifact store. Retryable after a backoff;
  /// the daemon attaches retry_after_ms to responses carrying this code.
  kUnavailable,
  /// Internal invariant violation; indicates a bug in the library.
  kInternal,
};

/// Returns a stable lower-case name, e.g. "parse-error".
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the OK case.
///
/// [[nodiscard]]: silently dropping a Status is how an inconsistent verdict
/// escapes unnoticed; every call site must consume it (the
/// void-discard lint rule keeps `(void)` muting out too).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status UndecidableClass(std::string msg) {
    return Status(StatusCode::kUndecidableClass, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering: "ok" or "<code-name>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Holds either a value of type T or an error Status. Accessing the value of
/// an errored Result is a programming error (asserts in debug builds).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
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
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define XICC_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::xicc::Status _xicc_st = (expr);         \
    if (!_xicc_st.ok()) return _xicc_st;      \
  } while (0)

/// Evaluates a Result<T> expression; on error propagates the Status, on
/// success assigns the value to `lhs` (which must be a declaration or
/// assignable lvalue).
#define XICC_ASSIGN_OR_RETURN(lhs, expr)               \
  XICC_ASSIGN_OR_RETURN_IMPL_(                         \
      XICC_STATUS_CONCAT_(_xicc_res, __LINE__), lhs, expr)
#define XICC_STATUS_CONCAT_INNER_(a, b) a##b
#define XICC_STATUS_CONCAT_(a, b) XICC_STATUS_CONCAT_INNER_(a, b)
#define XICC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace xicc
