#pragma once
// The one JSON writer, and a minimal recursive-descent reader.
//
// Writer produces every JSON document the system writes: run reports,
// Chrome traces, metrics snapshots, telemetry shards and merges, and the
// sweep report. It places the commas, escapes every key and string,
// writes integers exactly and doubles in one shortest round-trip
// spelling, so no producer formats a number or a string itself.
//
// The reader exists for the telemetry merge path: the sweep supervisor
// re-reads the Chrome-trace shards its workers wrote to merge them into
// one fleet trace. It covers exactly what those documents contain —
// objects, arrays, strings with escapes, doubles, bools, null — with
// strict errors on anything malformed: a half-written shard must be
// reported, never half-merged. No \uXXXX surrogate pairs (escapes decode
// to '?'), numbers parse as double. Object keys keep insertion order so a
// parse → serialize round trip is stable.

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace vmap::json {

class Value;

using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

/// One JSON value. A tagged union over the seven JSON kinds; arrays and
/// objects own their children.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return *array_; }
  const Object& as_object() const { return *object_; }
  Array& mutable_array() { return *array_; }
  Object& mutable_object() { return *object_; }

  /// First member with this key, or nullptr (also when not an object).
  const Value* find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one complete JSON document. kCorruption on any syntax error or
/// trailing non-whitespace, with a byte offset in the message.
StatusOr<Value> parse(const std::string& text);

/// Compact streaming JSON writer (no whitespace between tokens):
///
///   json::Writer w;
///   w.begin_object().field("schema", 1).key("rows").begin_array();
///   w.begin_object().field("te", 0.25).end_object();
///   w.end_array().end_object();
///   const std::string doc = w.take();
///
/// Integers print exactly. A double prints as an integer when it is
/// integral and below 1e15 in magnitude, else with the fewest of 15, 16
/// or 17 significant digits that parse back to the same double; NaN and
/// infinities print as null. The caller nests begin/end pairs correctly
/// and names each member of an object with key() (or field()).
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  /// Names the next value inside an object.
  Writer& key(std::string_view name);

  Writer& null();
  Writer& value(bool b);
  Writer& value(double v);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  template <std::integral T>
  Writer& value(T v) {
    if constexpr (std::is_signed_v<T>)
      return integer(v < 0, v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                  : static_cast<std::uint64_t>(v));
    else
      return integer(false, v);
  }
  /// A parsed value, re-written in this writer's spelling.
  Writer& value(const Value& v);
  /// A complete value that another Writer produced, spliced in verbatim.
  Writer& raw(std::string_view json);

  /// key(name), then value(v).
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  Writer& integer(bool negative, std::uint64_t magnitude);
  /// Writes the comma that separates this element from the previous one.
  void separate();

  std::string out_;
  /// One entry per open object or array: true once it holds an element.
  std::vector<bool> nonempty_;
  bool after_key_ = false;
};

/// Serializes a value to compact JSON in Writer's spelling, so the merge
/// output is byte-stable for a given input set.
std::string serialize(const Value& value);

}  // namespace vmap::json
