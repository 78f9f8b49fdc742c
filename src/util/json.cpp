#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rd::util {

Json& Json::push_back(Json element) {
  auto* array = std::get_if<Array>(&value_);
  if (array == nullptr) throw std::logic_error("Json: push_back on non-array");
  array->elements.push_back(std::move(element));
  return *this;
}

Json& Json::set(std::string key, Json value) {
  auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) throw std::logic_error("Json: set on non-object");
  for (auto& [existing, existing_value] : object->members) {
    if (existing == key) {
      existing_value = std::move(value);
      return *this;
    }
  }
  object->members.emplace_back(std::move(key), std::move(value));
  return *this;
}

std::size_t Json::size() const noexcept {
  if (const auto* array = std::get_if<Array>(&value_)) {
    return array->elements.size();
  }
  if (const auto* object = std::get_if<Object>(&value_)) {
    return object->members.size();
  }
  return 0;
}

void Json::write_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::write(std::string& out, int indent, int depth) const {
  // Built with append, not `"\n" + std::string(...)`: GCC 12 reports a
  // false -Wrestrict on that operator+ at -O3.
  std::string close_pad;
  std::string pad;
  if (indent >= 0) {
    const auto width = static_cast<std::size_t>(indent);
    close_pad.append(1, '\n').append(width * static_cast<std::size_t>(depth),
                                     ' ');
    pad = close_pad;
    pad.append(width, ' ');
  }

  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const auto* i = std::get_if<long long>(&value_)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    if (std::isfinite(*d)) {
      // std::to_chars, not snprintf("%.10g"): the latter honors LC_NUMERIC,
      // and a ","-decimal locale would emit invalid JSON.
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof(buf), *d,
                                     std::chars_format::general, 10);
      out.append(buf, res.ptr);
    } else {
      out += "null";  // JSON has no NaN/Inf
    }
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    write_string(out, *s);
  } else if (const auto* array = std::get_if<Array>(&value_)) {
    if (array->elements.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const auto& element : array->elements) {
      if (!first) out += ',';
      first = false;
      out += pad;
      element.write(out, indent, depth + 1);
    }
    out += close_pad;
    out += ']';
  } else if (const auto* object = std::get_if<Object>(&value_)) {
    if (object->members.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : object->members) {
      if (!first) out += ',';
      first = false;
      out += pad;
      write_string(out, key);
      out += indent < 0 ? ":" : ": ";
      value.write(out, indent, depth + 1);
    }
    out += close_pad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

const Json* Json::get(std::string_view key) const noexcept {
  const auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  for (const auto& [existing, value] : object->members) {
    if (existing == key) return &value;
  }
  return nullptr;
}

const Json* Json::at(std::size_t index) const noexcept {
  const auto* array = std::get_if<Array>(&value_);
  if (array == nullptr || index >= array->elements.size()) return nullptr;
  return &array->elements[index];
}

double Json::number_or(double fallback) const noexcept {
  if (const auto* i = std::get_if<long long>(&value_)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  return fallback;
}

long long Json::int_or(long long fallback) const noexcept {
  if (const auto* i = std::get_if<long long>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    return static_cast<long long>(*d);
  }
  return fallback;
}

bool Json::bool_or(bool fallback) const noexcept {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  return fallback;
}

namespace {

/// Recursive-descent JSON reader over a string_view cursor.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    Json value;
    if (!parse_value(value)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) noexcept {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) noexcept {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  // Each parse_* fills `out` and returns whether the text was well formed.
  // Returning std::optional<Json> instead trips GCC 12's
  // -Wmaybe-uninitialized in the variant's move constructor at -O1.
  bool parse_value(Json& out) {
    if (depth_ > kMaxDepth) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"': {
        auto s = parse_string();
        if (!s) return false;
        out = Json(std::move(*s));
        return true;
      }
      case 't':
        out = Json(true);
        return consume_literal("true");
      case 'f':
        out = Json(false);
        return consume_literal("false");
      case 'n':
        out = Json();
        return consume_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(Json& out) {
    ++pos_;  // '{'
    ++depth_;
    out = Json::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return false;
      skip_ws();
      if (!consume(':')) return false;
      Json value;
      if (!parse_value(value)) return false;
      out.set(std::move(*key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return false;
    }
    --depth_;
    return true;
  }

  bool parse_array(Json& out) {
    ++pos_;  // '['
    ++depth_;
    out = Json::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return true;
    }
    while (true) {
      Json value;
      if (!parse_value(value)) return false;
      out.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return false;
    }
    --depth_;
    return true;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t code = 0;
          if (!read_hex4(code)) return std::nullopt;
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return std::nullopt;  // lone low surrogate
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by "\uDC00".."\uDFFF"; the
            // pair combines into one supplementary-plane code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return std::nullopt;  // lone high surrogate
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!read_hex4(low)) return std::nullopt;
            if (low < 0xDC00 || low > 0xDFFF) return std::nullopt;
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          // UTF-8 encode the code point (1-4 bytes; surrogate halves can no
          // longer reach here, so the encoding is always valid UTF-8).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  bool read_hex4(std::uint32_t& code) {
    if (pos_ + 4 > text_.size()) return false;
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<std::uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<std::uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<std::uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  bool parse_number(Json& out) {
    // The JSON number grammar, enforced positionally:
    //   -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
    // A free-form scan that accepts '.'/'e'/'+'/'-' anywhere would let
    // malformed tokens like "1-2" or "1..e+" through to the double
    // conversion.
    const std::size_t start = pos_;
    bool integral = true;
    consume('-');
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // a leading zero must stand alone ("0", "0.5", not "01")
    } else if (digits() == 0) {
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      integral = false;
      if (digits() == 0) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      integral = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) return false;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return false;
    if (integral) {
      long long value = 0;
      const auto res =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (res.ec == std::errc{} && res.ptr == token.data() + token.size()) {
        out = Json(value);
        return true;
      }
      // Overflow: fall through to double.
    }
    double value = 0.0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (res.ec != std::errc{} || res.ptr != token.data() + token.size()) {
      return false;
    }
    out = Json(value);
    return true;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return JsonReader(text).run();
}

}  // namespace rd::util
