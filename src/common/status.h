// Status / Result error-handling primitives for the CoIC codebase.
//
// The codebase follows the C++ Core Guidelines error-handling advice for a
// library that must also run inside a simulator hot loop: recoverable
// failures are reported by value via Status / Result<T> (E.27), exceptions
// are reserved for programmer errors surfaced by CHECK-style assertions.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace coic {

/// Canonical error space shared by every CoIC module.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed a value outside the documented domain.
  kNotFound,          ///< Lookup key absent (cache miss is NOT an error; this
                      ///< is for registries / configuration lookups).
  kAlreadyExists,     ///< Insert collided with an existing entry.
  kOutOfRange,        ///< Index or cursor beyond the valid range.
  kResourceExhausted, ///< Capacity (bytes, queue slots, file descriptors) hit.
  kFailedPrecondition,///< Object not in the state required by the call.
  kDataLoss,          ///< Wire data failed to decode (truncated / corrupt).
  kUnavailable,       ///< Transient transport failure; retry may succeed.
  kTimeout,           ///< Deadline elapsed before the operation completed.
  kInternal,          ///< Invariant violation that is not the caller's fault.
  kUnimplemented,     ///< Feature intentionally not provided.
};

/// Human-readable name of a status code ("kOk" -> "OK").
std::string_view StatusCodeName(StatusCode code) noexcept;

/// A cheap, value-semantic (code, message) pair. `Status::Ok()` carries no
/// allocation; error statuses own their message.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// Constructs an error status; `code` must not be kOk (use Ok()).
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk && "error Status must carry an error code");
  }

  static Status Ok() noexcept { return Status(); }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// "OK" or "kDataLoss: frame truncated at byte 12".
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// The shared OK status that Result<T>::status() returns by reference.
/// Out of line: with a function-local static inlined into every caller,
/// GCC 12 reports the variant's Status alternative as maybe-uninitialized
/// when a Result<int> holding a value goes out of scope.
const Status& OkStatus() noexcept;

/// Result<T>: either a value or an error Status. A deliberately small
/// stand-in for std::expected (not available in libstdc++ 12).
template <typename T>
class Result {
 public:
  /// Implicit from value: `return 42;`
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit from error: `return Status(StatusCode::kNotFound, "...");`
  Result(Status status) : rep_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(rep_).ok() &&
           "Result constructed from OK status carries no value");
  }

  [[nodiscard]] bool ok() const noexcept { return std::holds_alternative<T>(rep_); }

  [[nodiscard]] const Status& status() const noexcept {
    return ok() ? OkStatus() : std::get<Status>(rep_);
  }

  /// Precondition: ok().
  [[nodiscard]] const T& value() const& {
    assert(ok() && "value() on error Result");
    return std::get<T>(rep_);
  }
  [[nodiscard]] T& value() & {
    assert(ok() && "value() on error Result");
    return std::get<T>(rep_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok() && "value() on error Result");
    return std::get<T>(std::move(rep_));
  }

  /// Value if ok, otherwise `fallback`.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> rep_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);
}  // namespace internal

/// CHECK: aborts with a diagnostic on contract violation. Used for
/// programmer errors only (Core Guidelines I.6 / E.12), never for
/// recoverable conditions.
#define COIC_CHECK(expr)                                                \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::coic::internal::CheckFailed(__FILE__, __LINE__, #expr, "");     \
    }                                                                   \
  } while (false)

#define COIC_CHECK_MSG(expr, msg)                                       \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::coic::internal::CheckFailed(__FILE__, __LINE__, #expr, (msg));  \
    }                                                                   \
  } while (false)

/// Propagates an error Status from an expression producing a Status.
#define COIC_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::coic::Status coic_status_ = (expr);            \
    if (!coic_status_.ok()) return coic_status_;     \
  } while (false)

}  // namespace coic
