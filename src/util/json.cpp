#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vmap::json {

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<Array>(std::move(a));
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<Object>(std::move(o));
  return v;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : *object_)
    if (k == key) return &v;
  return nullptr;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  Status error(const std::string& what) const {
    return Status::Corruption("json parse error at byte " +
                              std::to_string(pos) + ": " + what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n]) ++n;
    if (text.compare(pos, n, w) != 0) return false;
    pos += n;
    return true;
  }

  StatusOr<std::string> parse_string() {
    if (!consume('"')) return error("expected '\"'");
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        return error("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return error("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return error("truncated \\u escape");
          char buf[5] = {text[pos], text[pos + 1], text[pos + 2],
                         text[pos + 3], 0};
          char* end = nullptr;
          const unsigned long cp = std::strtoul(buf, &end, 16);
          if (end != buf + 4) return error("bad \\u escape");
          pos += 4;
          if (cp < 0x80) out += static_cast<char>(cp);
          else out += '?';  // non-ASCII escapes: lossy but never malformed
          break;
        }
        default:
          return error("unknown escape");
      }
    }
    return error("unterminated string");
  }

  StatusOr<Value> parse_value(int depth) {
    if (depth > 64) return error("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return error("unexpected end of document");
    const char c = text[pos];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      StatusOr<std::string> s = parse_string();
      if (!s.ok()) return s.status();
      return Value::make_string(std::move(*s));
    }
    if (consume_word("true")) return Value::make_bool(true);
    if (consume_word("false")) return Value::make_bool(false);
    if (consume_word("null")) return Value::make_null();
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str() + pos, &end);
      if (end == text.c_str() + pos) return error("malformed number");
      pos = static_cast<std::size_t>(end - text.c_str());
      return Value::make_number(v);
    }
    return error(std::string("unexpected character '") + c + "'");
  }

  StatusOr<Value> parse_array(int depth) {
    consume('[');
    Array out;
    skip_ws();
    if (consume(']')) return Value::make_array(std::move(out));
    while (true) {
      StatusOr<Value> v = parse_value(depth + 1);
      if (!v.ok()) return v.status();
      out.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return Value::make_array(std::move(out));
      if (!consume(',')) return error("expected ',' or ']'");
    }
  }

  StatusOr<Value> parse_object(int depth) {
    consume('{');
    Object out;
    skip_ws();
    if (consume('}')) return Value::make_object(std::move(out));
    while (true) {
      skip_ws();
      StatusOr<std::string> key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      StatusOr<Value> v = parse_value(depth + 1);
      if (!v.ok()) return v.status();
      out.emplace_back(std::move(*key), std::move(*v));
      skip_ws();
      if (consume('}')) return Value::make_object(std::move(out));
      if (!consume(',')) return error("expected ',' or '}'");
    }
  }
};

/// Appends `in` as a JSON string literal body (no surrounding quotes).
void escape_into(std::string& out, std::string_view in) {
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
}

}  // namespace

StatusOr<Value> parse(const std::string& text) {
  Parser p{text};
  StatusOr<Value> v = p.parse_value(0);
  if (!v.ok()) return v.status();
  p.skip_ws();
  if (p.pos != text.size()) return p.error("trailing characters");
  return v;
}

std::string serialize(const Value& value) {
  Writer w;
  w.value(value);
  return w.take();
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (nonempty_.empty()) return;
  if (nonempty_.back()) out_ += ',';
  nonempty_.back() = true;
}

Writer& Writer::begin_object() {
  separate();
  out_ += '{';
  nonempty_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  nonempty_.pop_back();
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  out_ += '[';
  nonempty_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  nonempty_.pop_back();
  return *this;
}

Writer& Writer::key(std::string_view name) {
  separate();
  out_ += '"';
  escape_into(out_, name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Writer& Writer::null() {
  separate();
  out_ += "null";
  return *this;
}

Writer& Writer::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::integer(bool negative, std::uint64_t magnitude) {
  separate();
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), magnitude).ptr;
  if (negative) out_ += '-';
  out_.append(buf, end);
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return null();
  if (v == std::floor(v) && std::fabs(v) < 1e15)
    return integer(v < 0, static_cast<std::uint64_t>(std::fabs(v)));
  separate();
  // Shortest precision that round-trips: deterministic output without
  // the %.17g noise on values like 12.345.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out_ += buf;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  out_ += '"';
  escape_into(out_, s);
  out_ += '"';
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

Writer& Writer::value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return null();
    case Value::Kind::kBool:
      return value(v.as_bool());
    case Value::Kind::kNumber:
      return value(v.as_number());
    case Value::Kind::kString:
      return value(std::string_view(v.as_string()));
    case Value::Kind::kArray:
      begin_array();
      for (const Value& e : v.as_array()) value(e);
      return end_array();
    case Value::Kind::kObject:
      begin_object();
      for (const auto& [k, e] : v.as_object()) key(k).value(e);
      return end_object();
  }
  return *this;
}

}  // namespace vmap::json
