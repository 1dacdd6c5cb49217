#include "json/json.h"

#include "check/check.h"
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mmlib::json {

Result<const Value*> Value::GetMember(std::string_view key) const {
  if (!is_object()) {
    return Status::InvalidArgument("GetMember on non-object JSON value");
  }
  auto it = object_.find(std::string(key));
  if (it == object_.end()) {
    return Status::NotFound("missing JSON member: " + std::string(key));
  }
  return &it->second;
}

Result<std::string> Value::GetString(std::string_view key) const {
  MMLIB_ASSIGN_OR_RETURN(const Value* v, GetMember(key));
  if (!v->is_string()) {
    return Status::InvalidArgument("JSON member is not a string: " +
                                   std::string(key));
  }
  return v->as_string();
}

Result<double> Value::GetNumber(std::string_view key) const {
  MMLIB_ASSIGN_OR_RETURN(const Value* v, GetMember(key));
  if (!v->is_number()) {
    return Status::InvalidArgument("JSON member is not a number: " +
                                   std::string(key));
  }
  return v->as_number();
}

Result<int64_t> Value::GetInt(std::string_view key) const {
  MMLIB_ASSIGN_OR_RETURN(double d, GetNumber(key));
  return static_cast<int64_t>(d);
}

Value Value::FromU64(uint64_t u) {
  constexpr uint64_t kLargestExactDouble = uint64_t{1} << 53;
  if (u <= kLargestExactDouble) {
    return Value(u);
  }
  return Value(std::to_string(u));
}

Result<uint64_t> Value::GetU64(std::string_view key) const {
  MMLIB_ASSIGN_OR_RETURN(const Value* v, GetMember(key));
  if (v->is_string()) {
    const std::string& digits = v->as_string();
    uint64_t u = 0;
    const auto [end, error] =
        std::from_chars(digits.data(), digits.data() + digits.size(), u);
    if (digits.empty() || error != std::errc() ||
        end != digits.data() + digits.size()) {
      return Status::InvalidArgument(
          "JSON member is not an unsigned 64-bit decimal: " +
          std::string(key));
    }
    return u;
  }
  if (v->is_number()) {
    // Any integral double in [-2^63, 2^63) converts to int64 exactly.
    const double d = v->as_number();
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
        d == std::trunc(d)) {
      return static_cast<uint64_t>(static_cast<int64_t>(d));
    }
  }
  return Status::InvalidArgument(
      "JSON member is not an unsigned 64-bit integer: " + std::string(key));
}

Result<bool> Value::GetBool(std::string_view key) const {
  MMLIB_ASSIGN_OR_RETURN(const Value* v, GetMember(key));
  if (!v->is_bool()) {
    return Status::InvalidArgument("JSON member is not a bool: " +
                                   std::string(key));
  }
  return v->as_bool();
}

const Value* Value::FindMember(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object_.find(std::string(key));
  if (it == object_.end() || it->second.is_null()) {
    return nullptr;
  }
  return &it->second;
}

void Value::Set(std::string key, Value value) {
  MMLIB_CHECK(is_object()) << "Set(\"" << key << "\") on non-object JSON value";
  object_[std::move(key)] = std::move(value);
}

void Value::Append(Value value) {
  MMLIB_CHECK(is_array()) << "Append on non-array JSON value";
  array_.push_back(std::move(value));
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON cannot represent non-finite numbers; store null (never produced by
    // mmlib metadata, but keeps serialization total).
    *out += "null";
    return;
  }
  if (d == static_cast<double>(static_cast<int64_t>(d)) &&
      std::abs(d) < 9.0e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(d));
    *out += buffer;
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", d);
  *out += buffer;
}

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent > 0) {
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      AppendNumber(out, number_);
      return;
    case Type::kString:
      AppendEscaped(out, string_);
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : array_) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        AppendIndent(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        AppendIndent(out, indent, depth);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        AppendIndent(out, indent, depth + 1);
        AppendEscaped(out, key);
        out->push_back(':');
        if (indent > 0) {
          out->push_back(' ');
        }
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        AppendIndent(out, indent, depth);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Value::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

namespace {

/// Recursive-descent JSON parser with a depth limit against stack overflow.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    MMLIB_ASSIGN_OR_RETURN(Value v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("maximum nesting depth exceeded");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        MMLIB_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value(std::move(s));
      }
      case 't':
        return ParseKeyword("true", Value(true));
      case 'f':
        return ParseKeyword("false", Value(false));
      case 'n':
        return ParseKeyword("null", Value());
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseKeyword(std::string_view keyword, Value value) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Error("invalid literal");
    }
    pos_ += keyword.size();
    return value;
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("invalid number: " + token);
    }
    return Value(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return Error("invalid \\u escape");
            }
          }
          // Encode code point as UTF-8 (surrogate pairs are passed through
          // as individual code units; mmlib metadata is ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<Value> ParseArray(int depth) {
    Consume('[');
    Value::Array array;
    SkipWhitespace();
    if (Consume(']')) {
      return Value(std::move(array));
    }
    for (;;) {
      MMLIB_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      array.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(']')) {
        return Value(std::move(array));
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Result<Value> ParseObject(int depth) {
    Consume('{');
    Value::Object object;
    SkipWhitespace();
    if (Consume('}')) {
      return Value(std::move(object));
    }
    for (;;) {
      SkipWhitespace();
      MMLIB_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' in object");
      }
      MMLIB_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      object[std::move(key)] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) {
        return Value(std::move(object));
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace mmlib::json
