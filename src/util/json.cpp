#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hpcfail::util {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::uint_member(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double n = v->as_number();
  // 2^53 bounds the integers a double represents exactly; protocol ids
  // beyond that could alias, so they are rejected rather than rounded.
  if (n < 0.0 || n > 9007199254740992.0 || n != std::floor(n)) return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

/// Recursive-descent parser over a string_view; depth-limited so a
/// pathological request cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool eat_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth >= kMaxDepth || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        out.kind_ = JsonValue::Kind::String;
        return parse_string(out.string_);
      }
      case 't':
        out.kind_ = JsonValue::Kind::Bool;
        out.bool_ = true;
        return eat_word("true");
      case 'f':
        out.kind_ = JsonValue::Kind::Bool;
        out.bool_ = false;
        return eat_word("false");
      case 'n':
        out.kind_ = JsonValue::Kind::Null;
        return eat_word("null");
      default:
        out.kind_ = JsonValue::Kind::Number;
        return parse_number(out.number_);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind_ = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      if (out.find(key) == nullptr) {
        out.members_.emplace_back(std::move(key), std::move(value));
      }
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind_ = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items_.push_back(std::move(value));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4U;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            pos_ += 4;
            // UTF-8 encode the code point; surrogate pairs are not needed
            // by the protocol (verbs and node names are ASCII) but basic
            // multilingual plane escapes round-trip correctly.
            if (code < 0x80U) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800U) {
              out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
              out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
            } else {
              out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
              out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
              out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
            }
            break;
          }
          default: return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20U) return false;  // bare control char
      out.push_back(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  /// Scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? before handing the
  /// span to from_chars, which on its own would take `01`, `.5` and `2.`.
  bool parse_number(double& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0') && eat_digits() == 0) return false;  // a leading 0 stands alone
    if (eat('.') && eat_digits() == 0) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (eat_digits() == 0) return false;
    }
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    return ec == std::errc{} && ptr == text_.data() + pos_;
  }

  std::size_t eat_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ - start;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) <= 9007199254740992.0) {
    append_json_number(out, static_cast<std::int64_t>(v));
    return;
  }
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no Inf/NaN; handlers never produce them
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_json_number(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_json_number(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

}  // namespace hpcfail::util
