/**
 * @file
 * Typed, recoverable error handling (Status / StatusOr<T>).
 *
 * fatal()/panic() (util/logging.h) terminate the whole run, which is
 * the wrong tool for a fleet-scale replay pipeline: one corrupt CSV
 * line or short binary read should degrade a single trace, not the
 * batch. Functions on fallible paths (trace ingestion, replay entry
 * points) therefore return Status or StatusOr<T> in the
 * absl/leveldb style, and the legacy throwing entry points are kept
 * as thin wrappers that convert a non-OK Status into FatalError.
 *
 * Conventions:
 *  - InvalidArgument  caller passed something structurally wrong
 *  - NotFound         a named resource (file, workload) is missing
 *  - DataLoss         input bytes are corrupt or truncated
 *  - ResourceExhausted a policy budget was exceeded (error budget)
 *  - FailedPrecondition an invariant check failed on otherwise
 *                     well-formed input
 *  - Unavailable      an I/O or resource failure (a file that
 *                     cannot be opened, read or written)
 *  - Internal         a bug in logseek itself surfaced
 */

#ifndef LOGSEEK_UTIL_STATUS_H
#define LOGSEEK_UTIL_STATUS_H

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

namespace logseek
{

/** Canonical error space, a pragmatic subset of absl's. */
enum class StatusCode : std::uint8_t
{
    Ok = 0,
    InvalidArgument,
    NotFound,
    OutOfRange,
    DataLoss,
    FailedPrecondition,
    ResourceExhausted,
    Unavailable,
    Internal,
};

/** Printable name of a StatusCode ("OK", "DATA_LOSS", ...). */
inline const char *
toString(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::NotFound: return "NOT_FOUND";
      case StatusCode::OutOfRange: return "OUT_OF_RANGE";
      case StatusCode::DataLoss: return "DATA_LOSS";
      case StatusCode::FailedPrecondition:
        return "FAILED_PRECONDITION";
      case StatusCode::ResourceExhausted:
        return "RESOURCE_EXHAUSTED";
      case StatusCode::Unavailable: return "UNAVAILABLE";
      case StatusCode::Internal: return "INTERNAL";
    }
    return "UNKNOWN";
}

/** An error code plus a human-readable message; cheap to move. */
class Status
{
  public:
    /** Default status is OK. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "DATA_LOSS: binary trace: truncated header" */
    std::string
    toString() const
    {
        if (ok())
            return "OK";
        return std::string(logseek::toString(code_)) + ": " +
               message_;
    }

    /**
     * Bridge to the legacy throwing interface: throw FatalError if
     * this status is not OK. Used by the thin wrappers that preserve
     * the historical fatal()-on-bad-input behavior.
     */
    void
    orFatal() const
    {
        if (!ok())
            fatal(message_);
    }

    bool operator==(const Status &other) const = default;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/** Factory helpers, absl-style. */
inline Status
invalidArgumentError(std::string message)
{
    return Status(StatusCode::InvalidArgument, std::move(message));
}

inline Status
notFoundError(std::string message)
{
    return Status(StatusCode::NotFound, std::move(message));
}

inline Status
outOfRangeError(std::string message)
{
    return Status(StatusCode::OutOfRange, std::move(message));
}

inline Status
dataLossError(std::string message)
{
    return Status(StatusCode::DataLoss, std::move(message));
}

inline Status
failedPreconditionError(std::string message)
{
    return Status(StatusCode::FailedPrecondition,
                  std::move(message));
}

inline Status
resourceExhaustedError(std::string message)
{
    return Status(StatusCode::ResourceExhausted,
                  std::move(message));
}

inline Status
unavailableError(std::string message)
{
    return Status(StatusCode::Unavailable, std::move(message));
}

inline Status
internalError(std::string message)
{
    return Status(StatusCode::Internal, std::move(message));
}

/**
 * An exception carrying a typed Status across layers that cannot
 * return one (callbacks returning plain values, constructors).
 * Fallible boundaries — Simulator::tryRun, the sweep runner's cell
 * and loader paths — catch it and surface the status unchanged, so
 * an error thrown deep inside a loader reaches the cell's row with
 * its code intact.
 */
class StatusError : public std::exception
{
  public:
    explicit StatusError(Status status)
        : status_(std::move(status)), what_(status_.toString())
    {
    }

    const Status &status() const { return status_; }

    const char *what() const noexcept override
    {
        return what_.c_str();
    }

  private:
    Status status_;
    std::string what_;
};

/**
 * Either a value of type T or a non-OK Status explaining why there
 * is none. Accessing value() on an error is a logseek bug and
 * panics (it never silently returns garbage).
 */
template <typename T>
class StatusOr
{
  public:
    /** Implicit from a non-OK status (OK without a value panics). */
    StatusOr(Status status) : status_(std::move(status))
    {
        panicIf(status_.ok(),
                "StatusOr: OK status requires a value");
    }

    /** Implicit from a value. */
    StatusOr(T value) : value_(std::move(value)) {}

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        requireOk();
        return *value_;
    }

    T &
    value() &
    {
        requireOk();
        return *value_;
    }

    T &&
    value() &&
    {
        requireOk();
        return std::move(*value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

    /** The value, or fallback when this holds an error. */
    T
    valueOr(T fallback) const &
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    void
    requireOk() const
    {
        if (!ok())
            panic("StatusOr: value() on error status: " +
                  status_.toString());
    }

    Status status_;
    std::optional<T> value_;
};

} // namespace logseek

#endif // LOGSEEK_UTIL_STATUS_H
