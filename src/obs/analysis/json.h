// The JSON writer/reader pair of the observability layer.
//
// JsonWriter streams every JSON document this repo emits — Chrome
// trace-event files, MetricsRegistry exports, chaos and trace reports,
// forensic dumps, BENCH_*.json summaries — with one escaper, one number
// format and two container layouts, so no emitter writes JSON
// punctuation by hand. JsonValue parses those documents back into a
// simple value tree. Objects preserve member order (the writers emit
// sorted or fixed key order, so iteration over members is
// deterministic). Numbers are doubles, which is exact for every integer
// the emitters produce (span ids, byte counts and bucket counts all fit
// in 2^53). The escaping is exactly inverted by the parser (round-trip
// tested with hostile strings).
//
// Depends on the standard library only, like the rest of src/obs/.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rgml::obs {

/// `v` with 12 significant digits (printf "%.12g"): the number format of
/// the JSON artifacts and gate messages.
[[nodiscard]] std::string jsonNumber(double v);

/// Streaming JSON writer. Containers nest through begin*/end; inside an
/// object every value follows a key(). Doubles print via jsonNumber,
/// integers as they are, bools as true/false, strings quoted with every
/// character a JSON string literal cannot hold escaped (quote,
/// backslash, \b \f \n \r \t, \u00XX for the other control
/// characters). Output is buffered: a document reaches the stream once
/// it is complete (a long one also in 64 KiB chunks on the way), so the
/// caller may append to the stream right after — the writer adds no
/// trailing newline.
class JsonWriter {
 public:
  /// Lines: one member per line, indented two spaces per enclosing Lines
  /// container, the closing bracket on a line of its own (an empty
  /// container stays `{}` / `[]`). Inline: members separated by ", ".
  enum class Layout { Lines, Inline };

  explicit JsonWriter(std::ostream& os) : os_(os) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter();

  JsonWriter& beginObject(Layout layout = Layout::Inline) {
    return begin(true, layout);
  }
  JsonWriter& beginArray(Layout layout = Layout::Inline) {
    return begin(false, layout);
  }
  /// Close the innermost open container.
  JsonWriter& end();

  /// The key of the next member of the innermost object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v) { return raw(jsonNumber(v)); }
  JsonWriter& value(bool v) { return raw(v ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  JsonWriter& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  /// Splice `json` — already a complete JSON value — verbatim.
  JsonWriter& raw(std::string_view json);

  /// key(name) followed by value(v).
  template <typename T>
  JsonWriter& member(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  struct Frame {
    bool object;
    Layout layout;
    bool empty = true;
  };

  JsonWriter& begin(bool object, Layout layout);
  /// Separator and indentation before a member of the innermost
  /// container (nothing for the value that completes a key).
  void beginValue();
  void separate();
  /// A line break indented for the open Lines containers.
  void newline();
  /// After a value: send the buffer on once the document is complete or
  /// the buffer is long.
  JsonWriter& done();
  void flush();
  void writeString(std::string_view s);

  std::ostream& os_;
  std::string out_;  ///< not yet written to os_
  std::vector<Frame> stack_;
  std::size_t linesDepth_ = 0;  ///< open Lines containers
  bool afterKey_ = false;
};

}  // namespace rgml::obs

namespace rgml::obs::analysis {

/// Thrown on malformed input or a type mismatch. `what()` includes the
/// byte offset for parse errors.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  /// Parse a complete JSON document (trailing whitespace allowed, any
  /// other trailing content is an error). Throws JsonError.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  /// Parse the contents of `path`. Throws JsonError (also for I/O
  /// failures, so callers have one error path).
  [[nodiscard]] static JsonValue parseFile(const std::string& path);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool isNull() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool isBool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool isNumber() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool isString() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool isArray() const noexcept {
    return type_ == Type::Array;
  }
  [[nodiscard]] bool isObject() const noexcept {
    return type_ == Type::Object;
  }

  // Typed accessors; throw JsonError on type mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] long asLong() const;  ///< asNumber() truncated toward zero
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;  ///< array
  [[nodiscard]] const Members& members() const;               ///< object

  /// Object member lookup; null when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Object member lookup that throws JsonError naming the missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

  // Convenience lookups with defaults (absent key or wrong type → dflt).
  [[nodiscard]] double numberOr(const std::string& key, double dflt) const;
  [[nodiscard]] std::string stringOr(const std::string& key,
                                     std::string dflt) const;

 private:
  friend class JsonParser;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  Members members_;
};

}  // namespace rgml::obs::analysis
