#include "util/check.h"

namespace dynet::util::detail {

void checkFailed(const char* file, int line, const char* expr,
                 const std::string& message) {
  std::ostringstream out;
  out << "DYNET_CHECK failed at " << file << ":" << line << ": " << expr;
  if (!message.empty()) {
    out << " — " << message;
  }
  throw CheckError(out.str(), message.empty() ? std::string(expr) : message);
}

}  // namespace dynet::util::detail
