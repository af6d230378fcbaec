#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "core/contracts.hpp"

namespace tc3i::obs {

namespace {

/// Appends `s` to `out` as a JSON string literal.
void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  const auto plain = [](char c) {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  };
  if (std::all_of(s.begin(), s.end(), plain)) {
    out.append(s);
    out.push_back('"');
    return;
  }
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Appends `v` in decimal.
template <typename T>
void append_number(std::string& out, T v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

// --- JsonWriter --------------------------------------------------------------

void JsonWriter::separator() {
  if (!stack_.empty() && stack_.back() == Frame::Object) {
    TC3I_EXPECTS(have_key_ && "JSON object values need a key() first");
    have_key_ = false;
    return;  // key() already emitted "key": and any comma
  }
  if (needs_comma_) buf_.push_back(',');
}

void JsonWriter::finish_value() {
  needs_comma_ = true;
  // A long document (a traced run's Chrome trace runs to tens of MB) goes
  // out in pieces, so the buffer stays small.
  constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
  if (!stack_.empty() && buf_.size() < kFlushBytes) return;
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void JsonWriter::begin_object() {
  separator();
  buf_.push_back('{');
  stack_.push_back(Frame::Object);
  needs_comma_ = false;
}

void JsonWriter::end_object() {
  TC3I_EXPECTS(!stack_.empty() && stack_.back() == Frame::Object && !have_key_);
  stack_.pop_back();
  buf_.push_back('}');
  finish_value();
}

void JsonWriter::begin_array() {
  separator();
  buf_.push_back('[');
  stack_.push_back(Frame::Array);
  needs_comma_ = false;
}

void JsonWriter::end_array() {
  TC3I_EXPECTS(!stack_.empty() && stack_.back() == Frame::Array);
  stack_.pop_back();
  buf_.push_back(']');
  finish_value();
}

void JsonWriter::key(std::string_view k) {
  TC3I_EXPECTS(!stack_.empty() && stack_.back() == Frame::Object && !have_key_);
  if (needs_comma_) buf_.push_back(',');
  append_escaped(buf_, k);
  buf_.push_back(':');
  have_key_ = true;
  needs_comma_ = false;
}

void JsonWriter::value(std::string_view v) {
  separator();
  append_escaped(buf_, v);
  finish_value();
}

void JsonWriter::value(double v) {
  separator();
  if (!std::isfinite(v)) {
    buf_ += "null";
  } else {
    // The same bytes as "%.17g": general form, 17 significant digits.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    buf_.append(buf, r.ptr);
  }
  finish_value();
}

void JsonWriter::value(std::uint64_t v) {
  separator();
  append_number(buf_, v);
  finish_value();
}

void JsonWriter::value(std::int64_t v) {
  separator();
  append_number(buf_, v);
  finish_value();
}

void JsonWriter::value(bool v) {
  separator();
  buf_ += v ? "true" : "false";
  finish_value();
}

void JsonWriter::null() {
  separator();
  buf_ += "null";
  finish_value();
}

// --- json_validate / json_parse ----------------------------------------------

namespace {

/// One grammar, two uses: with a null `out` the parser only validates; with
/// a JsonValue it additionally builds the tree (json_parse).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<std::string> run(JsonValue* out) {
    skip_ws();
    if (!value(out)) return error_;
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON value");
    return error_;
  }

 private:
  bool fail(const std::string& what) {
    if (!error_) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  /// Appends `cp` as UTF-8 (callers only pass valid code points).
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  bool hex4(std::uint32_t& cp) {
    cp = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
        return fail("bad \\u escape");
      const char c = peek();
      const std::uint32_t digit =
          c <= '9' ? static_cast<std::uint32_t>(c - '0')
                   : static_cast<std::uint32_t>((c | 0x20) - 'a') + 10;
      cp = cp * 16 + digit;
    }
    return true;
  }

  bool string(std::string* out) {
    if (eof() || peek() != '"') return fail("expected string");
    ++pos_;
    while (!eof() && peek() != '"') {
      if (static_cast<unsigned char>(peek()) < 0x20)
        return fail("unescaped control character in string");
      if (peek() == '\\') {
        ++pos_;
        if (eof()) return fail("truncated escape");
        const char e = peek();
        if (e == 'u') {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          // A high surrogate must pair with a following \uXXXX low
          // surrogate; lone surrogates decode to U+FFFD.
          if (cp >= 0xd800 && cp < 0xdc00 &&
              text_.substr(pos_ + 1, 2) == "\\u") {
            const std::size_t save = pos_;
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!hex4(lo)) return false;
            if (lo >= 0xdc00 && lo < 0xe000) {
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else {
              pos_ = save;
              cp = 0xfffd;
            }
          } else if (cp >= 0xd800 && cp < 0xe000) {
            cp = 0xfffd;
          }
          if (out != nullptr) append_utf8(*out, cp);
        } else if (e == '"' || e == '\\' || e == '/') {
          if (out != nullptr) out->push_back(e);
        } else if (e == 'b' || e == 'f' || e == 'n' || e == 'r' || e == 't') {
          if (out != nullptr) {
            const char decoded = e == 'b'   ? '\b'
                                 : e == 'f' ? '\f'
                                 : e == 'n' ? '\n'
                                 : e == 'r' ? '\r'
                                            : '\t';
            out->push_back(decoded);
          }
        } else {
          return fail("bad escape character");
        }
      } else if (out != nullptr) {
        out->push_back(peek());
      }
      ++pos_;
    }
    if (eof()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool number(double* out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail("bad number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("bad fraction");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("bad exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (out != nullptr) {
      const std::string lexeme(text_.substr(start, pos_ - start));
      *out = std::strtod(lexeme.c_str(), nullptr);
    }
    return pos_ > start;
  }

  bool value(JsonValue* out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    bool ok = false;
    switch (peek()) {
      case '{':
        if (out != nullptr) out->kind = JsonValue::Kind::Object;
        ok = object(out);
        break;
      case '[':
        if (out != nullptr) out->kind = JsonValue::Kind::Array;
        ok = array(out);
        break;
      case '"':
        if (out != nullptr) out->kind = JsonValue::Kind::String;
        ok = string(out != nullptr ? &out->string : nullptr);
        break;
      case 't':
        ok = literal("true");
        if (ok && out != nullptr) {
          out->kind = JsonValue::Kind::Bool;
          out->boolean = true;
        }
        break;
      case 'f':
        ok = literal("false");
        if (ok && out != nullptr) {
          out->kind = JsonValue::Kind::Bool;
          out->boolean = false;
        }
        break;
      case 'n':
        ok = literal("null");
        if (ok && out != nullptr) out->kind = JsonValue::Kind::Null;
        break;
      default:
        if (out != nullptr) out->kind = JsonValue::Kind::Number;
        ok = number(out != nullptr ? &out->number : nullptr);
        break;
    }
    --depth_;
    return ok;
  }

  bool object(JsonValue* out) {
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(out != nullptr ? &key : nullptr)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' in object");
      ++pos_;
      JsonValue* member = nullptr;
      if (out != nullptr) {
        out->object.emplace_back(std::move(key), JsonValue{});
        member = &out->object.back().second;
      }
      if (!value(member)) return false;
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue* out) {
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue* element = nullptr;
      if (out != nullptr) {
        out->array.emplace_back();
        element = &out->array.back();
      }
      if (!value(element)) return false;
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::optional<std::string> error_;
};

}  // namespace

std::optional<std::string> json_validate(std::string_view text) {
  return Parser(text).run(nullptr);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue* JsonValue::find_object(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_object() ? v : nullptr;
}

const JsonValue* JsonValue::find_array(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_array() ? v : nullptr;
}

const JsonValue* JsonValue::find_string(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v : nullptr;
}

const JsonValue* JsonValue::find_number(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v : nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find_number(key);
  return v != nullptr ? v->number : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = find_string(key);
  return v != nullptr ? v->string : std::move(fallback);
}

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  JsonValue root;
  if (const auto err = Parser(text).run(&root)) {
    if (error != nullptr) *error = *err;
    return std::nullopt;
  }
  return root;
}

}  // namespace tc3i::obs
