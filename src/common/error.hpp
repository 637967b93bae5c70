// Error handling: exceptions carrying formatted context, plus precondition
// macros. Following the C++ Core Guidelines (E.2/E.3) we throw to signal
// errors that cannot be handled locally and reserve assertions/checks for
// programming errors.
#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace zh {

/// Base class for all zonalhist errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed or unreadable input data (files, streams, encodings).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A caller violated an API precondition (bad sizes, out-of-range ids, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A blocking operation exceeded its deadline (cluster comm timeouts).
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// Point in time a blocking call must give up at.
class [[nodiscard]] Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// No bound -- for calls that are documented to be externally bounded
  /// (e.g. the caller supervises the peer and marks it dead on failure).
  [[nodiscard]] static Deadline never() { return Deadline(Clock::time_point::max()); }

  [[nodiscard]] static Deadline after_ms(std::int64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  [[nodiscard]] bool is_never() const {
    return when_ == Clock::time_point::max();
  }
  [[nodiscard]] Clock::time_point when() const { return when_; }

 private:
  explicit Deadline(Clock::time_point when) : when_(when) {}
  Clock::time_point when_;
};

/// Outcome category of a Status-returning call.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kTimeout,   ///< deadline passed before the operation could complete
  kRankDead,  ///< the peer rank crashed or was declared dead
  kCorrupt,   ///< data failed an integrity check
};

/// Error-or-ok result for calls that must not throw on expected runtime
/// failures (timeouts, dead peers). Exception-throwing wrappers call
/// throw_if_error() at the API boundary.
class [[nodiscard]] Status {
 public:
  Status() = default;  ///< ok

  [[nodiscard]] static Status ok() { return {}; }
  [[nodiscard]] static Status error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Map to the matching exception type; no-op when ok.
  void throw_if_error() const {
    switch (code_) {
      case StatusCode::kOk:
        return;
      case StatusCode::kTimeout:
        throw TimeoutError(message_);
      case StatusCode::kCorrupt:
        throw IoError(message_);
      case StatusCode::kRankDead:
        break;
    }
    throw Error(message_);
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

namespace detail {
template <typename... Args>
std::string format_parts(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

}  // namespace zh

/// Throw InvalidArgument if `cond` is false. The message is only formatted
/// on failure, so checks stay cheap on the hot path.
#define ZH_REQUIRE(cond, ...)                                       \
  do {                                                              \
    if (!(cond)) {                                                  \
      throw ::zh::InvalidArgument(::zh::detail::format_parts(       \
          __FILE__, ":", __LINE__, ": requirement failed: ", #cond, \
          " -- ", __VA_ARGS__));                                    \
    }                                                               \
  } while (false)

/// Throw IoError if `cond` is false.
#define ZH_REQUIRE_IO(cond, ...)                                      \
  do {                                                                \
    if (!(cond)) {                                                    \
      throw ::zh::IoError(::zh::detail::format_parts(                 \
          __FILE__, ":", __LINE__, ": I/O failure: ", __VA_ARGS__));  \
    }                                                                 \
  } while (false)
