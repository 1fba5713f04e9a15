#include "obs/analysis/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rgml::obs {

std::string jsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

namespace {

/// Buffered bytes that send a long document to the stream mid-way.
constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

}  // namespace

JsonWriter::~JsonWriter() { flush(); }

JsonWriter& JsonWriter::begin(bool object, Layout layout) {
  beginValue();
  out_ += object ? '{' : '[';
  stack_.push_back(Frame{object, layout});
  if (layout == Layout::Lines) ++linesDepth_;
  return *this;
}

JsonWriter& JsonWriter::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == Layout::Lines) {
    --linesDepth_;
    if (!frame.empty) newline();
  }
  out_ += frame.object ? '}' : ']';
  return done();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  writeString(name);
  out_ += ": ";
  afterKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  beginValue();
  writeString(s);
  return done();
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  beginValue();
  out_ += json;
  return done();
}

void JsonWriter::beginValue() {
  if (!std::exchange(afterKey_, false)) separate();
}

void JsonWriter::separate() {
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (frame.layout == Layout::Lines) {
    if (!frame.empty) out_ += ',';
    newline();
  } else if (!frame.empty) {
    out_ += ", ";
  }
  frame.empty = false;
}

void JsonWriter::newline() {
  out_ += '\n';
  out_.append(2 * linesDepth_, ' ');
}

JsonWriter& JsonWriter::done() {
  if (stack_.empty() || out_.size() >= kFlushBytes) flush();
  return *this;
}

void JsonWriter::flush() {
  os_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

void JsonWriter::writeString(std::string_view s) {
  // Short escapes for \b \t \n (0x08-0x0a) and \f \r (0x0c-0x0d); 0x0b
  // and the other control characters take the \u00XX form.
  static constexpr char kShort[] = "btn\0fr";
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (u >= 0x20) {
      out_ += c;
    } else if (u >= 0x08 && u <= 0x0d && kShort[u - 0x08] != '\0') {
      out_ += '\\';
      out_ += kShort[u - 0x08];
    } else {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(u));
      out_ += esc;
    }
  }
  out_ += '"';
}

}  // namespace rgml::obs

namespace rgml::obs::analysis {

namespace {

/// Encode one Unicode code point as UTF-8.
void appendUtf8(std::string& out, unsigned long cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue v = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) +
                    ": " + why);
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parseValue() {
    skipWhitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::String;
        v.string_ = parseString();
        return v;
      }
      case 't':
        if (!consumeLiteral("true")) fail("invalid literal");
        {
          JsonValue v;
          v.type_ = JsonValue::Type::Bool;
          v.bool_ = true;
          return v;
        }
      case 'f':
        if (!consumeLiteral("false")) fail("invalid literal");
        {
          JsonValue v;
          v.type_ = JsonValue::Type::Bool;
          v.bool_ = false;
          return v;
        }
      case 'n':
        if (!consumeLiteral("null")) fail("invalid literal");
        return JsonValue{};
      default:
        return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::Object;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWhitespace();
      if (peek() != '"') fail("expected object key");
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      v.members_.emplace_back(std::move(key), parseValue());
      skipWhitespace();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return v;
      if (sep != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::Array;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parseValue());
      skipWhitespace();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return v;
      if (sep != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
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
          unsigned long cp = parseHex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00..\uDFFF.
            if (!consumeLiteral("\\u")) fail("unpaired high surrogate");
            const unsigned lo = parseHex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("digits required in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.type_ = JsonValue::Type::Number;
    v.number_ = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v.number_)) fail("number out of range");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parseDocument();
}

JsonValue JsonValue::parseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) throw JsonError("cannot read " + path);
  try {
    return parse(buf.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

bool JsonValue::asBool() const {
  if (type_ != Type::Bool) throw JsonError("not a bool");
  return bool_;
}

double JsonValue::asNumber() const {
  if (type_ != Type::Number) throw JsonError("not a number");
  return number_;
}

long JsonValue::asLong() const { return static_cast<long>(asNumber()); }

const std::string& JsonValue::asString() const {
  if (type_ != Type::String) throw JsonError("not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::Array) throw JsonError("not an array");
  return items_;
}

const JsonValue::Members& JsonValue::members() const {
  if (type_ != Type::Object) throw JsonError("not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonError("missing key \"" + key + "\"");
  return *v;
}

double JsonValue::numberOr(const std::string& key, double dflt) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->isNumber()) ? v->number_ : dflt;
}

std::string JsonValue::stringOr(const std::string& key,
                                std::string dflt) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->isString()) ? v->string_ : std::move(dflt);
}

}  // namespace rgml::obs::analysis
