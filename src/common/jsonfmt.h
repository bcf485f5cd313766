// Locale-independent JSON formatting: fragment helpers and the one
// document writer the bench reports use.
//
// printf-family "%f" obeys LC_NUMERIC: under e.g. de_DE the decimal
// separator becomes a comma, which silently corrupts emitted JSON. Every
// JSON emitter in the tree formats floating-point values through
// json_double (std::to_chars, which is locale-independent by
// specification) instead of fprintf, and every string through json_quote.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tio {

// `v` as a fixed-point JSON number with `precision` digits after the
// decimal point. Non-finite values (which JSON cannot represent) become
// "null".
inline std::string json_double(double v, int precision) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, precision);
  if (r.ec != std::errc{}) return "null";  // absurd magnitude; not worth throwing
  return std::string(buf, r.ptr);
}

// `s` as a double-quoted JSON string with the mandatory escapes applied.
inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

// Builds one JSON document: tracks nesting and places the commas, quotes
// every key and string through json_quote and formats every floating-point
// number through json_double (non-finite values become null), so what it
// builds parses whatever the locale or the strings. Each member or element
// goes on its own line, indented two spaces per level. The caller pairs
// every begin_* with its end_* and names each object member with key()
// (or field()) before its value.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  // Names the next value of the enclosing object.
  JsonWriter& key(std::string_view name) {
    separate();
    out_ += json_quote(name);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) { return raw(json_quote(s)); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  // Fixed point with `precision` digits after the decimal point.
  JsonWriter& value(double v, int precision) { return raw(json_double(v, precision)); }
  JsonWriter& null() { return raw("null"); }

  // key(name), then value(args...).
  template <class... Args>
  JsonWriter& field(std::string_view name, Args&&... args) {
    key(name);
    return value(std::forward<Args>(args)...);
  }

  const std::string& str() const { return out_; }

 private:
  // Comma, newline and indent before a member or element; nothing before
  // the value that follows a key, or before the top-level value.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (empty_.empty()) return;
    if (!empty_.back()) out_ += ',';
    empty_.back() = false;
    newline(empty_.size());
  }
  void newline(std::size_t depth) {
    out_ += '\n';
    out_.append(2 * depth, ' ');
  }
  JsonWriter& raw(std::string_view token) {
    separate();
    out_ += token;
    return *this;
  }
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    empty_.push_back(true);
    return *this;
  }
  JsonWriter& close(char bracket) {
    const bool was_empty = empty_.back();
    empty_.pop_back();
    if (!was_empty) newline(empty_.size());
    out_ += bracket;
    return *this;
  }

  std::string out_;
  std::vector<bool> empty_;  // per open container: nothing written in it yet
  bool after_key_ = false;
};

}  // namespace tio
