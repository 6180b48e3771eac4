/// \file status.h
/// \brief Error handling primitives in the Arrow/RocksDB idiom.
///
/// Library code does not throw exceptions: fallible operations return a
/// `Status`, and fallible value-producing operations return a `Result<T>`.
/// Programmer errors (violated preconditions) abort via `FEDADMM_CHECK`.

#ifndef FEDADMM_UTIL_STATUS_H_
#define FEDADMM_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace fedadmm {

/// Machine-readable category of a failure.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIoError = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
};

/// \brief Human-readable name of a status code (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus a diagnostic message.
///
/// `Status` is cheap to move and to copy in the OK case (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// \name Factory helpers, one per code.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// @}

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// The status code.
  StatusCode code() const { return code_; }
  /// The diagnostic message (empty for OK).
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// True iff the code matches.
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief Either a value of type `T` or a non-OK `Status`.
///
/// Mirrors `arrow::Result`. Access the value only after checking `ok()`;
/// `ValueOrDie()` aborts on error (use in tests and examples).
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, like arrow::Result).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from an error status. Aborts if `status` is OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      std::fprintf(stderr, "Result constructed from OK status\n");
      std::abort();
    }
  }

  /// True iff a value is held.
  bool ok() const { return value_.has_value(); }

  /// The status: OK when a value is held. Returned by reference on an
  /// lvalue, so `r.status().message()` stays valid as long as `r` does.
  const Status& status() const& { return status_; }
  /// By value on an rvalue: a reference into a dying Result would dangle.
  Status status() && { return std::move(status_); }

  /// The held value; must only be called when `ok()`.
  const T& ValueOrDie() const& {
    DieIfError();
    return *value_;
  }
  /// Moves the held value out; must only be called when `ok()`.
  T ValueOrDie() && {
    DieIfError();
    return std::move(*value_);
  }
  /// The held value, or `fallback` on error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }

 private:
  void DieIfError() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::ValueOrDie on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);
}  // namespace internal

}  // namespace fedadmm

/// Aborts with a diagnostic if `expr` is false. For programmer errors only.
#define FEDADMM_CHECK(expr)                                              \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::fedadmm::internal::CheckFailed(__FILE__, __LINE__, #expr, "");   \
    }                                                                    \
  } while (0)

/// Like FEDADMM_CHECK but appends a message.
#define FEDADMM_CHECK_MSG(expr, msg)                                     \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::fedadmm::internal::CheckFailed(__FILE__, __LINE__, #expr, (msg)); \
    }                                                                    \
  } while (0)

/// Propagates a non-OK Status to the caller.
#define FEDADMM_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::fedadmm::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

#define FEDADMM_INTERNAL_CONCAT_IMPL(a, b) a##b
#define FEDADMM_INTERNAL_CONCAT(a, b) FEDADMM_INTERNAL_CONCAT_IMPL(a, b)

#define FEDADMM_INTERNAL_ASSIGN_OR_RETURN(var, lhs, rexpr) \
  auto var = (rexpr);                                      \
  if (!var.ok()) return var.status();                      \
  lhs = std::move(var).ValueOrDie()

/// Evaluates a Result-returning expression; on error propagates the status,
/// otherwise assigns the value to `lhs`.
#define FEDADMM_ASSIGN_OR_RETURN(lhs, rexpr)                               \
  FEDADMM_INTERNAL_ASSIGN_OR_RETURN(                                       \
      FEDADMM_INTERNAL_CONCAT(_fedadmm_res_, __LINE__), lhs, rexpr)

#endif  // FEDADMM_UTIL_STATUS_H_
