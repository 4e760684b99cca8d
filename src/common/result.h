// Minimal Result<T> type: value-or-error without exceptions on hot paths.
//
// The library reports recoverable conditions (undecodable erasure pattern,
// out-of-range request, failed disk touched) through Result rather than
// exceptions, per the surrounding HPC idiom of explicit error flow.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace ecfrm {

/// Error payload: a stable category plus a human-readable message.
struct Error {
    enum class Code {
        invalid_argument,
        out_of_range,
        undecodable,
        disk_failed,
        io_error,
        internal,
        // Typed degraded-mode outcomes of the self-healing read path.
        timeout,           // a disk queue exceeded its deadline
        corrupt,           // device-detected (or scrub-confirmed) corruption
        beyond_tolerance,  // more concurrent damage than the code can decode
    };

    Code code = Code::internal;
    std::string message;

    static Error invalid(std::string msg) { return {Code::invalid_argument, std::move(msg)}; }
    static Error range(std::string msg) { return {Code::out_of_range, std::move(msg)}; }
    static Error undecodable(std::string msg) { return {Code::undecodable, std::move(msg)}; }
    static Error disk_failed(std::string msg) { return {Code::disk_failed, std::move(msg)}; }
    static Error io(std::string msg) { return {Code::io_error, std::move(msg)}; }
    static Error internal(std::string msg) { return {Code::internal, std::move(msg)}; }
    static Error timeout(std::string msg) { return {Code::timeout, std::move(msg)}; }
    static Error corrupt(std::string msg) { return {Code::corrupt, std::move(msg)}; }
    static Error beyond_tolerance(std::string msg) { return {Code::beyond_tolerance, std::move(msg)}; }

    /// Stable lowercase name of a code ("timeout", "beyond_tolerance", ...)
    /// for logs, artifacts and typed-error accounting.
    static const char* code_name(Code code) {
        switch (code) {
            case Code::invalid_argument: return "invalid_argument";
            case Code::out_of_range: return "out_of_range";
            case Code::undecodable: return "undecodable";
            case Code::disk_failed: return "disk_failed";
            case Code::io_error: return "io_error";
            case Code::timeout: return "timeout";
            case Code::corrupt: return "corrupt";
            case Code::beyond_tolerance: return "beyond_tolerance";
            case Code::internal: break;
        }
        return "internal";
    }
};

/// Value-or-Error. `ok()` must be checked before dereferencing.
template <typename T>
class [[nodiscard]] Result {
  public:
    Result(T value) : state_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
    Result(Error error) : state_(std::move(error)) {}       // NOLINT(google-explicit-constructor)

    bool ok() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return ok(); }

    const T& value() const& {
        assert(ok());
        return std::get<T>(state_);
    }
    T& value() & {
        assert(ok());
        return std::get<T>(state_);
    }
    T&& take() && {
        assert(ok());
        return std::get<T>(std::move(state_));
    }

    const T& operator*() const& { return value(); }
    T& operator*() & { return value(); }
    const T* operator->() const { return &value(); }
    T* operator->() { return &value(); }

    const Error& error() const {
        assert(!ok());
        return std::get<Error>(state_);
    }

  private:
    std::variant<T, Error> state_;
};

/// Result specialisation for operations with no payload.
class [[nodiscard]] Status {
  public:
    Status() = default;
    Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT

    static Status success() { return Status(); }

    bool ok() const { return !failed_; }
    explicit operator bool() const { return ok(); }

    const Error& error() const {
        assert(failed_);
        return error_;
    }

  private:
    Error error_;
    bool failed_ = false;
};

}  // namespace ecfrm
