// Minimal JSON value model, serializer, and parser.
//
// Used to persist search reports and benchmark series (the committed
// BENCH_*.json records) and to reload them for comparison runs. Supports the
// full JSON grammar except for \u escapes beyond ASCII (emitted verbatim).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace qarch::json {

/// A JSON value (null, bool, number, string, array, or object).
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() : type_(Type::Null) {}
  Value(std::nullptr_t) : type_(Type::Null) {}            // NOLINT(runtime/explicit)
  Value(bool b) : type_(Type::Bool), bool_(b) {}          // NOLINT(runtime/explicit)
  Value(double n) : type_(Type::Number), number_(n) {}    // NOLINT(runtime/explicit)
  Value(int n) : Value(static_cast<double>(n)) {}         // NOLINT(runtime/explicit)
  Value(std::size_t n) : Value(static_cast<double>(n)) {} // NOLINT(runtime/explicit)
  Value(const char* s) : type_(Type::String), string_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}  // NOLINT

  /// Builds an empty array value.
  static Value array();

  /// Builds an empty object value.
  static Value object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }

  // -- typed accessors (throw InvalidArgument on type mismatch) -------------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  // -- array interface -------------------------------------------------------
  /// Appends to an array value (must be Array).
  void push_back(Value v);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Value& at(std::size_t index) const;

  // -- object interface -------------------------------------------------------
  /// Inserts/overwrites a key of an object value (must be Object).
  Value& set(const std::string& key, Value v);
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, Value>& items() const;

  /// Serializes to compact JSON; `indent` > 0 pretty-prints.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses a JSON document; throws InvalidArgument with offset context on
/// malformed input.
Value parse(const std::string& text);

// -- checked numbers ----------------------------------------------------------
// Every count, depth, budget, id and 64-bit word read from a file or a
// request goes through one of these two, never a bare cast: a cast of a
// fractional, negative or huge double to an integer silently truncates or is
// undefined, and a lenient string parse accepts "-1" and "12abc".

/// A JSON number that is a non-negative integer no larger than 9e15 (every
/// such value is exact in a double). Throws InvalidArgument naming `what`
/// otherwise.
std::size_t as_uint(const Value& v, const std::string& what);

/// A 64-bit word held as decimal text (JSON doubles cannot carry 64 bits):
/// the whole string must be digits, with no sign, space or trailing text,
/// and fit in 64 bits. Throws InvalidArgument naming `what` otherwise.
std::uint64_t parse_u64(std::string_view text, const std::string& what);

}  // namespace qarch::json
