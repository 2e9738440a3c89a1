#include "util/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.h"

namespace asppi::util {

Json& Json::operator[](const std::string& key) {
  ASPPI_CHECK(type_ == Type::kObject) << "operator[] on non-object JSON";
  for (auto& [name, value] : members_) {
    if (name == key) return value;
  }
  members_.emplace_back(key, Json());
  return members_.back().second;
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::Members() const {
  ASPPI_CHECK(type_ == Type::kObject) << "Members() on non-object JSON";
  return members_;
}

void Json::Push(Json value) {
  ASPPI_CHECK(type_ == Type::kArray) << "Push() on non-array JSON";
  items_.push_back(std::move(value));
}

const std::vector<Json>& Json::Items() const {
  ASPPI_CHECK(type_ == Type::kArray) << "Items() on non-array JSON";
  return items_;
}

bool Json::AsBool() const {
  ASPPI_CHECK(type_ == Type::kBool) << "AsBool() on non-bool JSON";
  return bool_;
}

double Json::AsDouble() const {
  ASPPI_CHECK(type_ == Type::kNumber) << "AsDouble() on non-number JSON";
  return number_;
}

const std::string& Json::AsString() const {
  ASPPI_CHECK(type_ == Type::kString) << "AsString() on non-string JSON";
  return string_;
}

void WriteJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

// Integral values print without a fractional part so counters round-trip
// exactly; everything else uses %.17g (shortest lossless for doubles is not
// worth the code — 17 significant digits always round-trips).
void WriteNumber(std::ostream& os, double v) {
  ASPPI_CHECK(std::isfinite(v)) << "JSON cannot represent " << v;
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  os << buf;
}

}  // namespace

void Json::Write(std::ostream& os, int indent) const {
  WriteIndented(os, indent, 0);
}

std::string Json::ToString(int indent) const {
  std::ostringstream os;
  Write(os, indent);
  return os.str();
}

void Json::WriteIndented(std::ostream& os, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    os << '\n';
    for (int i = 0; i < d * 2; ++i) os << ' ';
  };
  switch (type_) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      WriteNumber(os, number_);
      break;
    case Type::kString:
      WriteJsonString(os, string_);
      break;
    case Type::kArray: {
      os << '[';
      bool first = true;
      for (const Json& item : items_) {
        if (!first) os << ',';
        first = false;
        newline(depth + 1);
        item.WriteIndented(os, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      os << ']';
      break;
    }
    case Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) os << ',';
        first = false;
        newline(depth + 1);
        WriteJsonString(os, name);
        os << (pretty ? ": " : ":");
        value.WriteIndented(os, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      os << '}';
      break;
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Run() {
    auto value = ParseValue();
    if (!value) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing garbage after value");
    return value;
  }

  // The first recorded failure, as "line L, column C: message" (1-based,
  // column in bytes). Empty when Run() succeeded.
  const std::string& Error() const { return error_; }

 private:
  // Records the first failure at the current position and returns nullopt so
  // call sites can `return Fail(...)` from any parse production.
  std::nullopt_t Fail(const std::string& message) {
    if (error_.empty()) {
      std::size_t line = 1, column = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
          column = 1;
        } else {
          ++column;
        }
      }
      error_ = "line " + std::to_string(line) + ", column " +
               std::to_string(column) + ": " + message;
    }
    return std::nullopt;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("expected a value, got end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // The parser recurses once per nesting level; capping the depth keeps
        // hostile input from overflowing a pool thread's stack.
        if (depth_ == Json::kMaxDepth) {
          return Fail("nesting deeper than " +
                      std::to_string(Json::kMaxDepth) + " levels");
        }
        ++depth_;
        auto value = text_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"': {
        auto s = ParseString();
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      case 't':
        if (ConsumeWord("true")) return Json(true);
        return Fail("invalid literal (expected 'true')");
      case 'f':
        if (ConsumeWord("false")) return Json(false);
        return Fail("invalid literal (expected 'false')");
      case 'n':
        if (ConsumeWord("null")) return Json();
        return Fail("invalid literal (expected 'null')");
      default: return ParseNumber();
    }
  }

  std::optional<Json> ParseObject() {
    if (!Consume('{')) return Fail("expected '{'");
    Json object = Json::Object();
    SkipSpace();
    if (Consume('}')) return object;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected a string object key");
      }
      auto key = ParseString();
      if (!key) return std::nullopt;
      if (!Consume(':')) return Fail("expected ':' after object key");
      auto value = ParseValue();
      if (!value) return std::nullopt;
      object[*key] = std::move(*value);
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Fail("expected ',' or '}' in object");
    }
  }

  std::optional<Json> ParseArray() {
    if (!Consume('[')) return Fail("expected '['");
    Json array = Json::Array();
    SkipSpace();
    if (Consume(']')) return array;
    while (true) {
      auto value = ParseValue();
      if (!value) return std::nullopt;
      array.Push(std::move(*value));
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Fail("expected ',' or ']' in array");
    }
  }

  std::optional<std::string> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected '\"'");
    }
    const std::size_t open = pos_;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              --pos_;
              return Fail("invalid hex digit in \\u escape");
            }
          }
          // The writer only emits \u escapes for control characters; decode
          // the BMP code point as UTF-8 for generality.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          --pos_;
          return Fail("invalid escape sequence");
      }
    }
    pos_ = open;
    return Fail("unterminated string");
  }

  std::optional<Json> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(token.c_str(), &end);
    // Overflow to infinity is rejected too: JSON has no non-finite numbers,
    // and an inf would not survive reserialization.
    if (end != token.c_str() + token.size() || errno == ERANGE ||
        !std::isfinite(v)) {
      pos_ = start;
      return Fail("invalid number '" + token + "'");
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects currently open
  std::string error_;
};

}  // namespace

std::optional<Json> Json::Parse(std::string_view text) {
  return Parse(text, nullptr);
}

std::optional<Json> Json::Parse(std::string_view text, std::string* error) {
  Parser parser(text);
  auto value = parser.Run();
  if (!value && error != nullptr) *error = parser.Error();
  return value;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return items_ == other.items_;
    case Type::kObject: return members_ == other.members_;
  }
  return false;
}

}  // namespace asppi::util
