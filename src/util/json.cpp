#include "util/json.h"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <system_error>

#include "util/error.h"

namespace redopt::util {

namespace {

/// Appends @p s with JSON string escaping: quotes and backslashes
/// backslash-escaped, control bytes as short forms or \u00XX.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto byte = static_cast<unsigned char>(s[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (byte) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHex[byte >> 4], kHex[byte & 0xF]};
        out.append(code, sizeof(code));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integral values within the exactly-representable range print as plain
  // integers (printf's %.0f); everything else uses 17 significant digits
  // (printf's %.17g), which round-trips any double bit pattern.
  // std::to_chars with an explicit precision is specified to spell
  // exactly what printf does, without its locale and format parsing.
  char buf[32];
  std::to_chars_result written{};
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    written = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 0);
  } else {
    written = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  }
  out.append(buf, written.ptr);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

void json_summary(const std::string& name, std::size_t threads,
                  const std::map<std::string, std::string>& params, double wall_seconds) {
  std::ostringstream os;
  os << "BENCH_JSON {\"bench\":\"" << json_escape(name) << "\",\"threads\":" << threads
     << ",\"params\":{";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  os << "},\"wall_s\":" << wall_seconds << "}";
  std::cout << os.str() << "\n";
}

// ---------------------------------------------------------------- JsonValue

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  REDOPT_REQUIRE(kind == Kind::kObject, "json: member access on a non-object value");
  const JsonValue* value = find(key);
  REDOPT_REQUIRE(value != nullptr, "json: missing member: " + key);
  return *value;
}

bool JsonValue::as_bool() const {
  REDOPT_REQUIRE(kind == Kind::kBool, "json: expected a boolean value");
  return boolean;
}

double JsonValue::as_number() const {
  REDOPT_REQUIRE(kind == Kind::kNumber, "json: expected a number value");
  return number;
}

std::int64_t JsonValue::as_int(std::int64_t lo, std::int64_t hi) const {
  REDOPT_REQUIRE(kind == Kind::kNumber, "json: expected a number value");
  return JsonNumber{number, has_integer, integer}.as_int(lo, hi);
}

const std::string& JsonValue::as_string() const {
  REDOPT_REQUIRE(kind == Kind::kString, "json: expected a string value");
  return string;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  REDOPT_REQUIRE(kind == Kind::kArray, "json: expected an array value");
  return items;
}

// ---------------------------------------------------------------- serialize

namespace {

void serialize_into(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      if (value.has_integer) {
        out += std::to_string(value.integer);
      } else {
        append_json_number(out, value.number);
      }
      return;
    case JsonValue::Kind::kString:
      append_json_string(out, value.string);
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items) {
        if (!first) out += ',';
        first = false;
        serialize_into(item, out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, key);
        out += ':';
        serialize_into(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_into(value, out);
  return out;
}

// ---------------------------------------------------------------- reader

namespace {

constexpr std::size_t kMaxDepth = 64;

}  // namespace

std::int64_t JsonNumber::as_int(std::int64_t lo, std::int64_t hi) const {
  if (has_integer) {
    REDOPT_REQUIRE(integer >= lo && integer <= hi, "json: integer out of range");
    return integer;
  }
  // Range-check in double before converting: casting a double outside
  // int64's range is undefined.
  REDOPT_REQUIRE(value == std::floor(value), "json: expected an integer value");
  REDOPT_REQUIRE(value >= -0x1p63 && value < 0x1p63, "json: integer out of range");
  const auto v = static_cast<std::int64_t>(value);
  REDOPT_REQUIRE(v >= lo && v <= hi, "json: integer out of range");
  return v;
}

void JsonReader::fail(const std::string& what) const {
  throw PreconditionError("json: " + what + " at offset " + std::to_string(pos_));
}

void JsonReader::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char JsonReader::peek() {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

void JsonReader::check_depth() const {
  if (depth_ > kMaxDepth) fail("nesting deeper than 64 levels");
}

void JsonReader::close_container() {
  ++pos_;
  --depth_;
  after_open_ = false;
}

void JsonReader::begin_object() {
  check_depth();
  expect('{');
  ++depth_;
  after_open_ = true;
}

bool JsonReader::next_member(std::string_view& key) {
  const char c = peek();
  if (c == '}') {
    close_container();
    return false;
  }
  if (after_open_) {
    after_open_ = false;
  } else if (c == ',') {
    ++pos_;
  } else {
    fail("expected ',' or '}' in object");
  }
  key = read_string_view();
  expect(':');
  return true;
}

void JsonReader::begin_array() {
  check_depth();
  expect('[');
  ++depth_;
  after_open_ = true;
}

bool JsonReader::next_item() {
  const char c = peek();
  if (c == ']') {
    close_container();
    return false;
  }
  if (after_open_) {
    after_open_ = false;
  } else if (c == ',') {
    ++pos_;
  } else {
    fail("expected ',' or ']' in array");
  }
  return true;
}

std::string JsonReader::read_string() {
  check_depth();
  return std::string(read_string_view());
}

std::uint32_t JsonReader::read_hex4() {
  std::uint32_t code = 0;
  for (int k = 0; k < 4; ++k) {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_++];
    code <<= 4;
    if (c >= '0' && c <= '9') {
      code |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      code |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      code |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      fail("invalid \\u escape digit");
    }
  }
  return code;
}

namespace {

void append_utf8(std::string& out, std::uint32_t code) {
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
}

}  // namespace

std::string_view JsonReader::read_string_view() {
  expect('"');
  // Scans to the next quote, backslash or control byte.
  const auto scan = [this] {
    while (pos_ < text_.size()) {
      const auto byte = static_cast<unsigned char>(text_[pos_]);
      if (byte == '"' || byte == '\\' || byte < 0x20) break;
      ++pos_;
    }
  };
  std::size_t run = pos_;
  scan();
  // A string without escapes is a view of the document; one with
  // escapes is decoded run by run into unescaped_.
  if (pos_ < text_.size() && text_[pos_] == '"') {
    ++pos_;
    return text_.substr(run, pos_ - 1 - run);
  }
  std::string& out = unescaped_;
  out.clear();
  while (true) {
    out.append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') fail("unescaped control character in string");
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        out += esc;
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'u': {
        std::uint32_t code = read_hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
          // High surrogate: a low surrogate escape must follow.
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
            fail("lone high surrogate");
          }
          pos_ += 2;
          const std::uint32_t low = read_hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          fail("lone low surrogate");
        }
        append_utf8(out, code);
        break;
      }
      default:
        fail("invalid escape character");
    }
    run = pos_;
    scan();
  }
}

JsonNumber JsonReader::read_number() {
  check_depth();
  skip_whitespace();
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool integral = true;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '.' || c == 'e' || c == 'E') {
      integral = false;
    } else if ((c < '0' || c > '9') && c != '+' && c != '-') {
      break;
    }
    ++pos_;
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (first == last || (last - first == 1 && *first == '-')) fail("invalid number");
  // One leading '+' is accepted, as strtod does; from_chars takes none.
  const char* digits = first;
  if (*digits == '+' && last - digits > 1 && digits[1] != '-') ++digits;
  JsonNumber number;
  // Integer tokens stay exact (doubles round past 2^53, but scenario
  // seeds and counters are full-width integers).  Their double is the
  // int64 converted, which is the double nearest the digits; "-0" keeps
  // its sign.
  if (integral) {
    const auto [int_end, int_ec] = std::from_chars(digits, last, number.integer);
    if (int_ec == std::errc() && int_end == last) {
      number.has_integer = true;
      number.value = static_cast<double>(number.integer);
      if (number.integer == 0 && *first == '-') number.value = -0.0;
      return number;
    }
  }
  const auto [end, ec] = std::from_chars(digits, last, number.value);
  if (ec == std::errc::result_out_of_range) {
    pos_ = start;
    fail("number out of double range: " + std::string(first, last));
  }
  if (ec != std::errc() || end != last) {
    pos_ = start;
    fail("invalid number token: " + std::string(first, last));
  }
  return number;
}

bool JsonReader::read_bool() {
  check_depth();
  const char c = peek();
  const std::string_view literal = c == 't' ? "true" : "false";
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
  pos_ += literal.size();
  return c == 't';
}

void JsonReader::read_null() {
  check_depth();
  peek();
  if (text_.substr(pos_, 4) != "null") fail("invalid literal");
  pos_ += 4;
}

void JsonReader::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing characters after the document");
}

// ---------------------------------------------------------------- DOM

namespace {

JsonValue read_value(JsonReader& reader) {
  JsonValue value;
  switch (reader.peek()) {
    case '{': {
      value.kind = JsonValue::Kind::kObject;
      reader.begin_object();
      std::string_view key;
      while (reader.next_member(key)) {
        std::string name(key);  // the view does not outlive the next string
        JsonValue member = read_value(reader);
        value.members.emplace_back(std::move(name), std::move(member));
      }
      return value;
    }
    case '[':
      value.kind = JsonValue::Kind::kArray;
      reader.begin_array();
      while (reader.next_item()) value.items.push_back(read_value(reader));
      return value;
    case '"':
      value.kind = JsonValue::Kind::kString;
      value.string = reader.read_string();
      return value;
    case 't':
    case 'f':
      value.kind = JsonValue::Kind::kBool;
      value.boolean = reader.read_bool();
      return value;
    case 'n':
      reader.read_null();
      return value;
    default: {
      const JsonNumber number = reader.read_number();
      value.kind = JsonValue::Kind::kNumber;
      value.number = number.value;
      value.has_integer = number.has_integer;
      value.integer = number.integer;
      return value;
    }
  }
}

}  // namespace

JsonValue json_parse(const std::string& text) {
  JsonReader reader(text);
  JsonValue value = read_value(reader);
  reader.finish();
  return value;
}

}  // namespace redopt::util
