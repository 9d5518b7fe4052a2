// Minimal JSON value + recursive-descent parser.
//
// Just enough JSON for the observability layer: dynet_stats reads
// metrics.json back, and tests validate that the emitted Chrome-trace /
// JSONL events are well-formed.  Numbers are stored as double (counters fit
// exactly up to 2^53).  Malformed input throws util::CheckError — the same
// loud-failure convention as the trace reader.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace dynet::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  /// Parses exactly one JSON value (trailing whitespace allowed).
  static Json parse(const std::string& text);

  Type type() const { return type_; }
  bool isObject() const { return type_ == Type::kObject; }
  bool isNumber() const { return type_ == Type::kNumber; }
  bool isString() const { return type_ == Type::kString; }

  bool boolean() const;
  double number() const;
  const std::string& str() const;
  const std::vector<Json>& items() const;  // array elements
  const std::map<std::string, Json>& members() const;

  bool has(const std::string& key) const;
  /// Member access; checks the key exists.
  const Json& at(const std::string& key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::map<std::string, Json> members_;

  friend class JsonParser;
};

}  // namespace dynet::obs
