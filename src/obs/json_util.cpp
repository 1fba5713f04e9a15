#include "obs/json_util.h"

#include <cstdio>

namespace rgml::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void writeJsonString(std::ostream& os, std::string_view s) {
  os << '"' << jsonEscape(s) << '"';
}

std::string jsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace rgml::obs
