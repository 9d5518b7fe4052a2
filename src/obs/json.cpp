#include "obs/json.h"

#include <cctype>
#include <cstdlib>

#include "util/check.h"

namespace dynet::obs {

namespace {

bool isNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parseAll() {
    Json value = parseValue();
    skipWhitespace();
    DYNET_CHECK(pos_ == text_.size())
        << "trailing garbage at offset " << pos_;
    return value;
  }

 private:
  void skipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skipWhitespace();
    DYNET_CHECK(pos_ < text_.size())
        << "unexpected end of JSON at offset " << pos_
        << " (truncated input?)";
    return text_[pos_];
  }

  void expect(char c) {
    DYNET_CHECK(peek() == c)
        << "expected '" << c << "' at offset " << pos_ << ", got '"
        << text_[pos_] << "'";
    ++pos_;
  }

  bool consumeIf(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expectLiteral(const std::string& lit) {
    DYNET_CHECK(text_.compare(pos_, lit.size(), lit) == 0)
        << "bad literal at offset " << pos_;
    pos_ += lit.size();
  }

  /// Enters one more object/array level.  parseValue recurses once per
  /// level, so the cap bounds the stack a hostile file can demand; nothing
  /// the repo writes nests deeper than 4.
  void enterContainer() {
    DYNET_CHECK(depth_ < kMaxDepth)
        << "JSON nested deeper than " << kMaxDepth << " levels at offset "
        << pos_;
    ++depth_;
    ++pos_;
  }

  Json parseValue() {
    const char c = peek();
    Json value;
    switch (c) {
      case '{': {
        value.type_ = Json::Type::kObject;
        enterContainer();
        if (!consumeIf('}')) {
          do {
            DYNET_CHECK(peek() == '"') << "object key must be a string";
            const std::string key = parseString();
            expect(':');
            value.members_[key] = parseValue();
          } while (consumeIf(','));
          expect('}');
        }
        --depth_;
        return value;
      }
      case '[': {
        value.type_ = Json::Type::kArray;
        enterContainer();
        if (!consumeIf(']')) {
          do {
            value.items_.push_back(parseValue());
          } while (consumeIf(','));
          expect(']');
        }
        --depth_;
        return value;
      }
      case '"':
        value.type_ = Json::Type::kString;
        value.string_ = parseString();
        return value;
      case 't':
        expectLiteral("true");
        value.type_ = Json::Type::kBool;
        value.bool_ = true;
        return value;
      case 'f':
        expectLiteral("false");
        value.type_ = Json::Type::kBool;
        return value;
      case 'n':
        expectLiteral("null");
        return value;
      default: {
        DYNET_CHECK(isNumberChar(c)) << "unexpected '" << c << "' at offset "
                                     << pos_;
        const std::size_t start = pos_;
        while (pos_ < text_.size() && isNumberChar(text_[pos_])) {
          ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        value.type_ = Json::Type::kNumber;
        value.number_ = std::strtod(token.c_str(), &end);
        DYNET_CHECK(end != nullptr && *end == '\0')
            << "bad number '" << token << "'";
        return value;
      }
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      DYNET_CHECK(pos_ < text_.size())
          << "unterminated string at offset " << pos_
          << " (truncated input?)";
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      DYNET_CHECK(pos_ < text_.size())
          << "unterminated escape at offset " << pos_;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          DYNET_CHECK(pos_ + 4 <= text_.size()) << "truncated \\u escape";
          const unsigned long cp =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The emitters only escape control characters; decode the
          // single-byte range and pass anything else through as '?'.
          out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default:
          DYNET_CHECK(false) << "unsupported escape \\" << esc;
      }
    }
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open objects/arrays around pos_
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parseAll();
}

bool Json::boolean() const {
  DYNET_CHECK(type_ == Type::kBool) << "not a bool";
  return bool_;
}

double Json::number() const {
  DYNET_CHECK(type_ == Type::kNumber) << "not a number";
  return number_;
}

const std::string& Json::str() const {
  DYNET_CHECK(type_ == Type::kString) << "not a string";
  return string_;
}

const std::vector<Json>& Json::items() const {
  DYNET_CHECK(type_ == Type::kArray) << "not an array";
  return items_;
}

const std::map<std::string, Json>& Json::members() const {
  DYNET_CHECK(type_ == Type::kObject) << "not an object";
  return members_;
}

bool Json::has(const std::string& key) const {
  DYNET_CHECK(type_ == Type::kObject) << "not an object";
  return members_.count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  DYNET_CHECK(has(key)) << "missing key '" << key << "'";
  return members_.at(key);
}

}  // namespace dynet::obs
