// Always-on invariant checking for dynet.
//
// The simulator is the substrate every experiment stands on, so model
// violations (over-budget messages, disconnected topologies, out-of-range
// node ids) must fail loudly in release builds too.  DYNET_CHECK throws
// dynet::util::CheckError with a formatted location + message.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dynet::util {

/// Exception thrown by DYNET_CHECK on violated invariants.  what() carries
/// the location prefix; message() is the bare text after it, which a
/// rethrow that adds its own context passes on, so the prefix shows once.
class CheckError : public std::logic_error {
 public:
  CheckError(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {

[[noreturn]] void checkFailed(const char* file, int line, const char* expr,
                              const std::string& message);

/// Stream-collector so DYNET_CHECK(cond) << "context " << v; works.
class CheckStream {
 public:
  CheckStream(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}

  template <typename T>
  CheckStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

  [[noreturn]] ~CheckStream() noexcept(false) {
    checkFailed(file_, line_, expr_, stream_.str());
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace dynet::util

// Usage: DYNET_CHECK(x > 0) << "x was " << x;
// The streaming part is evaluated only on failure.
#define DYNET_CHECK(cond)          \
  if (cond) {                      \
  } else /* NOLINT */              \
    ::dynet::util::detail::CheckStream(__FILE__, __LINE__, #cond)
