// Precondition / invariant checking helpers.
//
// Library entry points validate their arguments with require(); internal
// invariants that indicate a bug in this library (not in the caller) use
// ensure(). Both throw, so misuse is never silently ignored; the distinction
// is purely in the exception type and message prefix, which makes test
// failures self-explanatory.
//
// The message is taken as a std::string_view so a passing check costs one
// predicted branch and never allocates: a literal longer than the
// small-string buffer would otherwise heap-allocate a std::string on every
// call. The exception text is formatted only on the throwing path.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string_view>

namespace csca {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant of this library is violated.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] void throw_precondition(std::string_view message,
                                     std::source_location where);
[[noreturn]] void throw_invariant(std::string_view message,
                                  std::source_location where);
}  // namespace detail

/// Validates a caller-facing precondition; throws PreconditionError on
/// failure with the failing source location in the message.
inline void require(
    bool condition, std::string_view message,
    std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_precondition(message, where);
}

/// Validates an internal invariant; throws InvariantError on failure.
inline void ensure(
    bool condition, std::string_view message,
    std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_invariant(message, where);
}

}  // namespace csca
