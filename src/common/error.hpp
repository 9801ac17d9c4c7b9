// Error-handling helpers shared across the LiPS library.
//
// The library favours exceptions for programmer errors (violated
// preconditions, malformed models) and status enums for expected outcomes
// (e.g. an infeasible LP is a *result*, not an error).
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lips {

/// Thrown when a documented precondition of a public API is violated.
/// what() carries the failed expression and source location for the
/// developer; reason() is the caller's own text, the part a user should see.
class PreconditionError : public std::logic_error {
 public:
  /// `what` from offset `reason_at` on is the reason (all of it by default).
  explicit PreconditionError(const std::string& what,
                             std::size_t reason_at = 0)
      : std::logic_error(what), reason_at_(reason_at) {}

  [[nodiscard]] const char* reason() const noexcept {
    return what() + reason_at_;
  }

 private:
  std::size_t reason_at_;
};

/// The text of `e` meant for a user: a PreconditionError's reason, else
/// what().
[[nodiscard]] inline const char* user_message(
    const std::exception& e) noexcept {
  const auto* pre = dynamic_cast<const PreconditionError*>(&e);
  return pre != nullptr ? pre->reason() : e.what();
}

/// Thrown when an internal invariant fails; indicates a library bug.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — ";
  const auto reason_at = static_cast<std::size_t>(os.tellp());
  os << msg;
  throw PreconditionError(os.str(), msg.empty() ? 0 : reason_at);
}

[[noreturn]] inline void throw_internal(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  std::ostringstream os;
  os << "internal invariant failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace lips

/// Validate a public-API precondition; throws lips::PreconditionError.
#define LIPS_REQUIRE(expr, msg)                                              \
  do {                                                                       \
    if (!(expr)) ::lips::detail::throw_precondition(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

/// Validate an internal invariant; throws lips::InternalError.
#define LIPS_ASSERT(expr, msg)                                               \
  do {                                                                       \
    if (!(expr)) ::lips::detail::throw_internal(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
