#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace midas::util {

namespace {

/// Shortest textual form that strtod maps back to the identical bits:
/// integral doubles inside the exact-integer range print without an
/// exponent (counts stay readable), everything else gets 17 significant
/// digits.
std::string encode_number(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void encode_string(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  Json value() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Each level recurses: unbounded, a hostile document would
        // overflow the stack.
        if (++depth_ > kMaxDepth) fail("containers nest deeper than 512");
        Json v = text_[pos_] == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return Json(string());
      case 't': return literal("true", Json(true));
      case 'f': return literal("false", Json(false));
      case 'n': return literal("null", Json());
      default: return number();
    }
  }

  Json object() {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      obj.set(key, value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json array() {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else fail("bad hex digit in \\u escape");
          }
          // BMP code points as UTF-8 (surrogate pairs are not needed by
          // any writer in this repo and are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate pairs are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    // 1e999 would parse to inf, which re-encodes as the non-JSON "inf"
    // (non-finite values travel as the flag strings of Json::number).
    if (!std::isfinite(v)) fail("number overflows a double");
    return Json(v);
  }

  Json literal(std::string_view word, Json v) {
    if (text_.substr(pos_, word.size()) != word) fail("unknown literal");
    pos_ += word.size();
    return v;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const char* what) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw std::runtime_error("Json::parse: " + std::string(what) +
                             " (line " + std::to_string(line) + ")");
  }

  // The program's own documents nest fewer than 10 levels.
  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::number(double v) {
  if (std::isnan(v)) return Json("nan");
  if (std::isinf(v)) return Json(v > 0 ? "inf" : "-inf");
  return Json(v);
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::Object) type_error("object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) type_error("object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("Json: missing key '" + key + "'");
  }
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::Object) type_error("object");
  return members_;
}

Json& Json::push_back(Json value) {
  if (type_ != Type::Array) type_error("array");
  elements_.push_back(std::move(value));
  return *this;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::Array) type_error("array");
  if (index >= elements_.size()) {
    throw std::runtime_error("Json: array index " + std::to_string(index) +
                             " out of range");
  }
  return elements_[index];
}

const std::vector<Json>& Json::elements() const {
  if (type_ != Type::Array) type_error("array");
  return elements_;
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return elements_.size();
  if (type_ == Type::Object) return members_.size();
  type_error("array or object");
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) type_error("number");
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string");
  return string_;
}

double Json::to_double() const {
  if (type_ == Type::Number) return number_;
  if (type_ == Type::String) {
    if (string_ == "inf") return HUGE_VAL;
    if (string_ == "-inf") return -HUGE_VAL;
    if (string_ == "nan") return std::nan("");
  }
  type_error("number or non-finite flag");
}

std::size_t Json::as_size() const {
  const double v = as_number();
  if (v < 0.0 || v != std::floor(v) || v > 9.007199254740992e15) {
    throw std::runtime_error("Json: " + encode_number(v) +
                             " is not a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

std::uint64_t Json::as_u64() const {
  return static_cast<std::uint64_t>(as_size());
}

void Json::dump_to(std::string& out, int depth) const {
  const bool compact = depth < 0;
  const auto indent = [&](int d) {
    if (!compact) out.append(2 * static_cast<std::size_t>(d), ' ');
  };
  const auto newline = [&] {
    if (!compact) out += '\n';
  };
  const int child = compact ? depth : depth + 1;
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: out += encode_number(number_); break;
    case Type::String: encode_string(out, string_); break;
    case Type::Array:
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      newline();
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        indent(child);
        elements_[i].dump_to(out, child);
        if (i + 1 < elements_.size()) out += ',';
        newline();
      }
      indent(depth);
      out += ']';
      break;
    case Type::Object:
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      newline();
      for (std::size_t i = 0; i < members_.size(); ++i) {
        indent(child);
        encode_string(out, members_[i].first);
        out += compact ? ":" : ": ";
        members_[i].second.dump_to(out, child);
        if (i + 1 < members_.size()) out += ',';
        newline();
      }
      indent(depth);
      out += '}';
      break;
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

std::string Json::dump_compact() const {
  std::string out;
  dump_to(out, -1);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

void Json::type_error(const char* want) const {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::runtime_error(std::string("Json: expected ") + want +
                           ", have " + kNames[static_cast<int>(type_)]);
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_json_file: cannot open " + path);
  }
  out << value.dump();
  if (!out) {
    throw std::runtime_error("write_json_file: write failed for " + path);
  }
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_json_file: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

}  // namespace midas::util
