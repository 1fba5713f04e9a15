// Shared JSON string escaping and number formatting for every exporter
// in the repo (Chrome traces, metrics documents, chaos reports, bench
// artifacts, gate messages).
//
// One definition instead of per-file copies: span names, annotation
// values and metric names are free-form strings — a quote, backslash or
// control character in any of them must never produce malformed JSON.
// The escaping is exactly inverted by the parser in
// obs/analysis/json.h (round-trip tested).
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace rgml::obs {

/// `s` with every character that is unrepresentable inside a JSON string
/// literal escaped: quote, backslash, the short escapes \b \f \n \r \t,
/// and \u00XX for the remaining control characters.
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// Write `s` to `os` as a quoted, escaped JSON string literal.
void writeJsonString(std::ostream& os, std::string_view s);

/// `v` with 12 significant digits (printf "%.12g"): the number format of
/// the JSON artifacts and gate messages.
[[nodiscard]] std::string jsonNumber(double v);

}  // namespace rgml::obs
