// Minimal JSON document model with a deterministic writer and a strict
// parser — just enough for the run-report emitter (bench --json) and its
// round-trip tests. Objects preserve insertion order, so serialized reports
// are byte-stable across runs with the same inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asppi::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool v) : type_(Type::kBool), bool_(v) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(std::int64_t v) : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(int v) : type_(Type::kNumber), number_(v) {}
  Json(const char* v) : type_(Type::kString), string_(v) {}
  Json(std::string v) : type_(Type::kString), string_(std::move(v)) {}

  static Json Object() { return Json(Type::kObject); }
  static Json Array() { return Json(Type::kArray); }

  Type GetType() const { return type_; }
  bool IsObject() const { return type_ == Type::kObject; }
  bool IsArray() const { return type_ == Type::kArray; }

  // Object access: returns the member named `key`, inserting a null member
  // (at the end, preserving insertion order) if absent. Aborts on non-objects.
  Json& operator[](const std::string& key);
  // Member lookup without insertion; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& Members() const;

  // Array access.
  void Push(Json value);
  const std::vector<Json>& Items() const;

  // Scalar accessors (abort on type mismatch).
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Serialization: 2-space indented when `indent` >= 0, compact when -1.
  void Write(std::ostream& os, int indent = 0) const;
  std::string ToString(int indent = 0) const;

  // Strict parse of a complete JSON text (trailing garbage is an error).
  // On failure the optional is empty and, if `error` is non-null, it receives
  // a line/column-numbered message ("line 3, column 14: expected ':' after
  // object key") pointing at the first offending character. Arrays and
  // objects nest at most kMaxDepth levels; deeper input is an error.
  static constexpr int kMaxDepth = 64;
  static std::optional<Json> Parse(std::string_view text);
  static std::optional<Json> Parse(std::string_view text, std::string* error);

  bool operator==(const Json& other) const;

 private:
  explicit Json(Type type) : type_(type) {}
  void WriteIndented(std::ostream& os, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                               // kArray
  std::vector<std::pair<std::string, Json>> members_;     // kObject
};

// Escapes `s` per RFC 8259 and writes it double-quoted.
void WriteJsonString(std::ostream& os, std::string_view s);

}  // namespace asppi::util
