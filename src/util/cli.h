// Tiny command-line flag parser shared by benches and examples.
//
// Supports --name=value and --name value; unknown flags are an error so that
// typos in sweep scripts fail loudly, and so is a numeric value that is
// empty, does not parse in full (`--nodes 8x`) or leaves its range.
// guardedMain() turns such an error into one line and exit status 1.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace dynet::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string str(const std::string& name, const std::string& def) const;
  /// The integer flag `name`, or `def` when absent; a value outside
  /// [lo, hi] fails with a CheckError naming the flag and the value.
  std::int64_t integer(
      const std::string& name, std::int64_t def,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  /// integer() for a flag that narrows to int: [lo, hi] lies inside int,
  /// so a value that would wrap fails instead.
  int intFlag(const std::string& name, int def,
              int lo = std::numeric_limits<int>::min(),
              int hi = std::numeric_limits<int>::max()) const {
    return static_cast<int>(integer(name, def, lo, hi));
  }
  /// The real flag `name`, or `def` when absent; a value that is not
  /// finite or lies outside [lo, hi] ((lo, hi] when `open_lo`) fails with a
  /// CheckError naming the flag and the value.
  double real(const std::string& name, double def,
              double lo = std::numeric_limits<double>::lowest(),
              double hi = std::numeric_limits<double>::max(),
              bool open_lo = false) const;
  bool flag(const std::string& name, bool def = false) const;

  /// Call after all lookups: aborts on flags that were never queried.
  void rejectUnknown() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

/// Every bench's and example's main: runs `run` and turns a CheckError
/// escaping it (a flag outside its range, a failed invariant) into
/// "<program>: <message>" on stderr and exit status 1, instead of an
/// uncaught exception and SIGABRT.
///
///   int main(int argc, char** argv) {
///     return dynet::util::guardedMain(argc, argv, dynet::run);
///   }
int guardedMain(int argc, char** argv, int (*run)(int, char**));

}  // namespace dynet::util
