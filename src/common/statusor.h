// StatusOr<T>: the result of a fallible operation that yields a T on success.
//
// Mirrors absl::StatusOr in spirit: holds either an OK Status plus a value,
// or a non-OK Status. Accessing the value of an error StatusOr aborts the
// process (library invariant violation), so callers must check ok() first.

#ifndef MVSTORE_COMMON_STATUSOR_H_
#define MVSTORE_COMMON_STATUSOR_H_

#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/status.h"

namespace mvstore {

template <typename T>
class StatusOr {
 public:
  /// Constructs from an error status. Must not be OK (an OK status with no
  /// value is meaningless).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT: implicit
    MVSTORE_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }
  /// Constructs from a value; the status is OK.
  StatusOr(T value)  // NOLINT: implicit by design, mirrors absl::StatusOr
      : status_(Status::OK()), value_(std::move(value)) {}

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    MVSTORE_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    MVSTORE_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    MVSTORE_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value if OK, otherwise `fallback`.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// Evaluates `rexpr` (a StatusOr<T>), propagating its error to the caller; on
// success assigns the value to `lhs`.
#define MVSTORE_ASSIGN_OR_RETURN(lhs, rexpr)           \
  MVSTORE_ASSIGN_OR_RETURN_IMPL_(                      \
      MVSTORE_STATUS_CONCAT_(_status_or, __LINE__), lhs, rexpr)

#define MVSTORE_STATUS_CONCAT_INNER_(a, b) a##b
#define MVSTORE_STATUS_CONCAT_(a, b) MVSTORE_STATUS_CONCAT_INNER_(a, b)
#define MVSTORE_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                   \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

}  // namespace mvstore

#endif  // MVSTORE_COMMON_STATUSOR_H_
