// Tiny command-line flag parser shared by benches and examples.
//
// Supports --name=value and --name value; unknown flags are an error so that
// typos in sweep scripts fail loudly, and so is a numeric value that is
// empty, does not parse in full (`--nodes 8x`) or leaves its range.
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

}  // namespace dynet::util
