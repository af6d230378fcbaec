// Minimal JSON emission, validation and parsing for the observability
// layer.
//
// JsonWriter writes objects, arrays and scalars with correct string
// escaping and non-finite-number handling; json_validate is a strict
// recursive-descent syntax checker used by tests and tools/json_check to
// confirm that exported traces and reports are well-formed; json_parse
// builds a JsonValue tree for the tools that *read* reports
// (tools/obs_report's subcommands, json_check's schema pass) —
// all without pulling in a JSON library dependency.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tc3i::obs {

/// JSON writer. Structural sanity (matched begin/end, keys only inside
/// objects) is contract-checked. Text accumulates in one buffer that is
/// written to the stream whenever it passes 64 KiB and as each top-level
/// value completes, so the stream holds the whole value as soon as its
/// last call returns.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits a key inside an object; the next value call supplies its value.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);  ///< non-finite values are emitted as null
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  // Conveniences: key + value in one call.
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  enum class Frame : std::uint8_t { Object, Array };

  void separator();
  /// Ends a value: marks a comma as due and, at the top level or past
  /// 64 KiB, writes the buffer out.
  void finish_value();

  std::ostream& out_;
  std::string buf_;
  std::vector<Frame> stack_;
  bool needs_comma_ = false;
  bool have_key_ = false;
};

/// Validates that `text` is one complete JSON value. Returns std::nullopt
/// on success, else a human-readable error with byte offset.
[[nodiscard]] std::optional<std::string> json_validate(std::string_view text);

/// Parsed JSON value tree. Objects preserve key order (as a key/value
/// vector) so serialized reports round-trip deterministically.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup (first match); null when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// find() + kind checks, for terse schema walking. Null when the member
  /// is absent or has the wrong kind.
  [[nodiscard]] const JsonValue* find_object(std::string_view key) const;
  [[nodiscard]] const JsonValue* find_array(std::string_view key) const;
  [[nodiscard]] const JsonValue* find_string(std::string_view key) const;
  [[nodiscard]] const JsonValue* find_number(std::string_view key) const;

  /// Numeric member value, or `fallback` when absent / not a number.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  /// String member value, or `fallback` when absent / not a string.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;
};

/// Parses one complete JSON value. Returns std::nullopt with `*error` set
/// (human-readable, with byte offset) on malformed input. Accepts exactly
/// the grammar json_validate accepts.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  std::string* error);

}  // namespace tc3i::obs
