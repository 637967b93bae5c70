// Minimal JSON support for the observability layer: string escaping for
// the writers and a small validating parser used by the round-trip
// tests and tools/validate_obs. The parser is strict (RFC 8259 subset:
// no comments, no trailing commas), depth-limited, and throws IoError on
// malformed input.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zh::obs {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Parsed JSON value. Object member order is preserved (handy for
/// stable test assertions); duplicate keys keep the first occurrence on
/// lookup, matching common reader behavior.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  [[nodiscard]] bool is_null() const { return type == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type == Type::kObject; }

  /// First member named `key`, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Maximum nesting depth accepted by parse_json (deeper input is
/// rejected, not recursed into).
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parse a complete JSON document. Trailing non-whitespace, depth over
/// kJsonMaxDepth, or any syntax error throws IoError.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Slurp `path` and parse it. Throws IoError on read failure.
[[nodiscard]] JsonValue parse_json_file(const std::string& path);

}  // namespace zh::obs
