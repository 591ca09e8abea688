// Lightweight runtime-check helpers.
//
// Per the C++ Core Guidelines (I.6/I.8, E.12), preconditions and invariants
// are expressed as named check functions that throw on violation rather than
// as macros.  All library code uses these; callers that cannot tolerate
// exceptions can catch `mlpm::CheckError` at the API boundary.
//
// A passing check costs one branch and allocates nothing.  A message is
// either a literal (`const char*`) or a callable that builds it, which runs
// only when the check fails:
//   Expects(t != nullptr, [&] { return "use of unplanned tensor " + name; });
// A `std::string` message does not compile, so a message cannot be built
// eagerly on every pass.
#pragma once

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace mlpm {

// Thrown when a runtime precondition or invariant check fails.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn, gnu::cold, gnu::noinline]] inline void FailCheck(
    const char* kind, std::string_view what,
    const std::source_location& loc) {
  throw CheckError(std::string(kind) + " failed at " + loc.file_name() + ":" +
                   std::to_string(loc.line()) + " in " + loc.function_name() +
                   ": " + std::string(what));
}
}  // namespace detail

// A check message built on failure only: a callable taking no arguments
// whose result views as text.
template <typename F>
concept CheckMessage =
    std::invocable<const F&> &&
    std::convertible_to<std::invoke_result_t<const F&>, std::string_view>;

// Precondition check: argument contracts at API boundaries.
inline void Expects(bool cond, const char* what = "precondition",
                    const std::source_location loc =
                        std::source_location::current()) {
  if (!cond) [[unlikely]] detail::FailCheck("Expects", what, loc);
}
template <CheckMessage F>
void Expects(bool cond, const F& what,
             const std::source_location loc =
                 std::source_location::current()) {
  if (!cond) [[unlikely]] detail::FailCheck("Expects", what(), loc);
}

// Postcondition / invariant check inside implementations.
inline void Ensures(bool cond, const char* what = "invariant",
                    const std::source_location loc =
                        std::source_location::current()) {
  if (!cond) [[unlikely]] detail::FailCheck("Ensures", what, loc);
}
template <CheckMessage F>
void Ensures(bool cond, const F& what,
             const std::source_location loc =
                 std::source_location::current()) {
  if (!cond) [[unlikely]] detail::FailCheck("Ensures", what(), loc);
}

// Null-pointer precondition: returns the pointer unchanged so call sites can
// check and dereference in one expression,
//   backend(*NotNull(prepared.executor, "prepared model lost its executor"));
// Used at backend/harness API boundaries where a pointer is a contract, not
// an option — a null there must fail loudly at the boundary, not as UB at
// the eventual dereference.
template <typename T>
[[nodiscard]] T* NotNull(T* ptr, const char* what = "pointer must not be null",
                         const std::source_location loc =
                             std::source_location::current()) {
  if (ptr == nullptr) [[unlikely]] detail::FailCheck("NotNull", what, loc);
  return ptr;
}
template <typename T, CheckMessage F>
[[nodiscard]] T* NotNull(T* ptr, const F& what,
                         const std::source_location loc =
                             std::source_location::current()) {
  if (ptr == nullptr) [[unlikely]] detail::FailCheck("NotNull", what(), loc);
  return ptr;
}

}  // namespace mlpm
