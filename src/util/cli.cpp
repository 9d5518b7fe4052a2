#include "util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "util/check.h"

namespace dynet::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    DYNET_CHECK(arg.rfind("--", 0) == 0) << "expected --flag, got " << arg;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Cli::str(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::integer(const std::string& name, std::int64_t def,
                          std::int64_t lo, std::int64_t hi) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  DYNET_CHECK(!text.empty() && *end == '\0' && errno != ERANGE)
      << "--" << name << "='" << text << "' is not an integer";
  DYNET_CHECK(value >= lo && value <= hi)
      << "--" << name << "=" << value << " is outside [" << lo << ", " << hi
      << "]";
  return value;
}

double Cli::real(const std::string& name, double def, double lo, double hi,
                 bool open_lo) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  DYNET_CHECK(!text.empty() && *end == '\0')
      << "--" << name << "='" << text << "' is not a number";
  DYNET_CHECK(std::isfinite(value) && (open_lo ? value > lo : value >= lo) &&
              value <= hi)
      << "--" << name << "=" << text << " is not a finite number in "
      << (open_lo ? "(" : "[") << lo << ", " << hi << "]";
  return value;
}

bool Cli::flag(const std::string& name, bool def) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  return it->second != "false" && it->second != "0";
}

void Cli::rejectUnknown() const {
  for (const auto& [name, value] : values_) {
    DYNET_CHECK(queried_.count(name) > 0) << "unknown flag --" << name;
    (void)value;
  }
}

int guardedMain(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const CheckError& e) {
    const std::string_view program = argc > 0 ? argv[0] : "dynet";
    std::cerr << program.substr(program.rfind('/') + 1) << ": "
              << e.message() << "\n";
    return 1;
  }
}

}  // namespace dynet::util
