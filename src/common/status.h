// Minimal Status / Result<T> error-handling vocabulary, POSIX-flavoured.
//
// The simulated file systems surface the same error space a POSIX-ish
// parallel file system client would (ENOENT, EEXIST, EISDIR, ...), so the
// PLFS middleware above can be written exactly as it would be against a real
// VFS. Exceptions are reserved for programming errors.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace tio {

enum class Errc : std::uint8_t {
  ok = 0,
  not_found,       // ENOENT
  exists,          // EEXIST
  not_a_directory, // ENOTDIR
  is_a_directory,  // EISDIR
  invalid,         // EINVAL
  bad_handle,      // EBADF
  busy,            // EBUSY
  io_error,        // EIO
  permission,      // EACCES
  unsupported,     // ENOTSUP
  no_space,        // ENOSPC
  stale,           // ESTALE
};

std::string_view errc_name(Errc e);

// Transient errors are those a client may reasonably retry: the operation
// failed because of momentary server/storage state (EBUSY, EIO, ESTALE),
// not because the request itself is wrong. Everything else is permanent —
// retrying an ENOENT or EEXIST can only waste the retry budget.
constexpr bool errc_is_transient(Errc e) {
  return e == Errc::busy || e == Errc::io_error || e == Errc::stale;
}

class [[nodiscard]] Status {
 public:
  Status() = default;  // ok
  Status(Errc code, std::string message) : code_(code), message_(std::move(message)) {}
  static Status Ok() { return {}; }

  bool ok() const { return code_ == Errc::ok; }
  // True when the failure is worth retrying (see errc_is_transient).
  bool is_transient() const { return errc_is_transient(code_); }
  Errc code() const { return code_; }
  const std::string& message() const { return message_; }
  std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& os, const Status& s) {
    return os << s.to_string();
  }

 private:
  Errc code_ = Errc::ok;
  std::string message_;
};

inline Status error(Errc code, std::string message) { return Status(code, std::move(message)); }

// Result<T>: either a value or a non-ok Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}               // NOLINT implicit
  Result(Status status) : v_(std::move(status)) {         // NOLINT implicit
    if (std::get<Status>(v_).ok()) throw std::logic_error("Result built from ok Status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { check(); return std::get<T>(v_); }
  T& value() & { check(); return std::get<T>(v_); }
  T&& value() && { check(); return std::get<T>(std::move(v_)); }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(v_);
  }

 private:
  void check() const {
    if (!ok()) throw std::runtime_error("Result::value() on error: " + status().to_string());
  }
  std::variant<T, Status> v_;
};

// Propagate-on-error helpers (statement-expression free, usable in coroutines).
#define TIO_RETURN_IF_ERROR(expr)                      \
  do {                                                 \
    ::tio::Status tio_status_ = (expr);                \
    if (!tio_status_.ok()) return tio_status_;         \
  } while (0)

#define TIO_ASSIGN_OR_RETURN(lhs, rexpr)               \
  TIO_ASSIGN_OR_RETURN_IMPL_(TIO_CAT_(tio_res_, __LINE__), lhs, rexpr)
#define TIO_CAT_(a, b) TIO_CAT2_(a, b)
#define TIO_CAT2_(a, b) a##b
#define TIO_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr)    \
  auto tmp = (rexpr);                                  \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()

// Coroutine flavours (a plain `return` is ill-formed inside a coroutine).
#define TIO_CO_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::tio::Status tio_status_ = (expr);                \
    if (!tio_status_.ok()) co_return tio_status_;      \
  } while (0)

#define TIO_CO_ASSIGN_OR_RETURN(lhs, rexpr)            \
  TIO_CO_ASSIGN_OR_RETURN_IMPL_(TIO_CAT_(tio_res_, __LINE__), lhs, rexpr)
#define TIO_CO_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                  \
  if (!tmp.ok()) co_return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace tio
