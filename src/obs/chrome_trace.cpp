#include "obs/chrome_trace.h"

#include <set>
#include <sstream>

#include "obs/json_util.h"

namespace rgml::obs {

namespace {

/// Simulated seconds -> Chrome trace microseconds.
std::string us(double seconds) { return jsonNumber(seconds * 1e6); }

int tidOf(const Span& s) { return s.place >= 0 ? s.place : 0; }

}  // namespace

void writeChromeTrace(const std::vector<TraceLane>& lanes,
                      std::ostream& os) {
  os << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };

  for (const TraceLane& lane : lanes) {
    sep();
    os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << lane.pid << ", \"tid\": 0, \"args\": {\"name\": \""
       << jsonEscape(lane.name) << "\"}}";
    std::set<int> tids;
    for (const Span& s : lane.spans) tids.insert(tidOf(s));
    for (int tid : tids) {
      sep();
      os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
         << lane.pid << ", \"tid\": " << tid
         << ", \"args\": {\"name\": \"place " << tid << "\"}}";
    }
    for (const Span& s : lane.spans) {
      sep();
      os << "  {\"name\": \"" << jsonEscape(s.name) << "\", \"cat\": \""
         << toString(s.category) << "\", \"ph\": \"X\", \"ts\": "
         << us(s.startTime) << ", \"dur\": "
         << us(s.endTime - s.startTime) << ", \"pid\": " << lane.pid
         << ", \"tid\": " << tidOf(s) << ", \"args\": {\"iteration\": "
         << s.iteration << ", \"bytes\": " << s.bytes
         << ", \"depth\": " << s.depth;
      if (!s.phase.empty()) {
        os << ", \"phase\": \"" << jsonEscape(s.phase) << '"';
      }
      if (s.tid >= 0) {
        // The chrome "tid" field above stays = place (trace_load maps it
        // back into Span::place); the real OS thread tag from the Threads
        // backend rides along as an annotation instead.
        os << ", \"tid\": \"" << s.tid << '"';
      }
      for (const auto& [key, value] : s.args) {
        os << ", \"" << jsonEscape(key) << "\": \"" << jsonEscape(value)
           << '"';
      }
      os << "}}";
    }
  }
  os << (first ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
}

std::string toChromeTraceJson(const std::vector<TraceLane>& lanes) {
  std::ostringstream os;
  writeChromeTrace(lanes, os);
  return os.str();
}

}  // namespace rgml::obs
