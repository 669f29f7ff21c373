#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace qarch::json {

Value Value::array() {
  Value v;
  v.type_ = Type::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::Object;
  return v;
}

bool Value::as_bool() const {
  QARCH_REQUIRE(type_ == Type::Bool, "json: not a bool");
  return bool_;
}

double Value::as_number() const {
  QARCH_REQUIRE(type_ == Type::Number, "json: not a number");
  return number_;
}

const std::string& Value::as_string() const {
  QARCH_REQUIRE(type_ == Type::String, "json: not a string");
  return string_;
}

void Value::push_back(Value v) {
  QARCH_REQUIRE(type_ == Type::Array, "json: push_back on non-array");
  array_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  throw InvalidArgument("json: size() on scalar");
}

const Value& Value::at(std::size_t index) const {
  QARCH_REQUIRE(type_ == Type::Array, "json: index into non-array");
  QARCH_REQUIRE(index < array_.size(), "json: array index out of range");
  return array_[index];
}

Value& Value::set(const std::string& key, Value v) {
  QARCH_REQUIRE(type_ == Type::Object, "json: set on non-object");
  return object_[key] = std::move(v);
}

bool Value::contains(const std::string& key) const {
  return type_ == Type::Object && object_.count(key) > 0;
}

const Value& Value::at(const std::string& key) const {
  QARCH_REQUIRE(type_ == Type::Object, "json: key lookup on non-object");
  const auto it = object_.find(key);
  QARCH_REQUIRE(it != object_.end(), "json: missing key '" + key + "'");
  return it->second;
}

const std::map<std::string, Value>& Value::items() const {
  QARCH_REQUIRE(type_ == Type::Object, "json: items() on non-object");
  return object_;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : "";
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : "";
  const char* nl = indent > 0 ? "\n" : "";

  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Number: number_into(out, number_); return;
    case Type::String: escape_into(out, string_); return;
    case Type::Array: {
      if (array_.empty()) { out += "[]"; return; }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Type::Object: {
      if (object_.empty()) { out += "{}"; return; }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [k, v] : object_) {
        out += pad;
        escape_into(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
        if (++i < object_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    const Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::ostringstream os;
    os << "json parse error at offset " << pos_ << ": " << msg;
    throw InvalidArgument(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return obj; }
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == '}') { ++pos_; return obj; }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return arr; }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == ']') { ++pos_; return arr; }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            const auto code = static_cast<unsigned>(
                std::strtoul(hex.c_str(), nullptr, 16));
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else {
              // Outside ASCII: emit UTF-8 for the BMP code point.
              if (code < 0x800) {
                out += static_cast<char>(0xC0 | (code >> 6));
              } else {
                out += static_cast<char>(0xE0 | (code >> 12));
                out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              }
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool any = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
      any = true;
    }
    if (!any) fail("expected a value");
    try {
      return Value(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

std::size_t as_uint(const Value& v, const std::string& what) {
  const double d = v.as_number();
  QARCH_REQUIRE(d >= 0.0 && d == std::floor(d) && d <= 9.0e15,
                what + " must be a non-negative integer");
  return static_cast<std::size_t>(d);
}

std::uint64_t parse_u64(std::string_view text, const std::string& what) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  QARCH_REQUIRE(ec == std::errc() && stop == end,
                what + " must be an unsigned 64-bit decimal: " +
                    std::string(text));
  return v;
}

}  // namespace qarch::json
