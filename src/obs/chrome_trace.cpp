#include "obs/chrome_trace.h"

#include <set>
#include <sstream>

#include "obs/analysis/json.h"

namespace rgml::obs {

namespace {

int tidOf(const Span& s) { return s.place >= 0 ? s.place : 0; }

}  // namespace

void writeChromeTrace(const std::vector<TraceLane>& lanes,
                      std::ostream& os) {
  JsonWriter w(os);
  w.beginObject().key("traceEvents").beginArray(JsonWriter::Layout::Lines);
  for (const TraceLane& lane : lanes) {
    w.beginObject()
        .member("name", "process_name")
        .member("ph", "M")
        .member("pid", lane.pid)
        .member("tid", 0);
    w.key("args").beginObject().member("name", lane.name).end().end();
    std::set<int> tids;
    for (const Span& s : lane.spans) tids.insert(tidOf(s));
    for (int tid : tids) {
      w.beginObject()
          .member("name", "thread_name")
          .member("ph", "M")
          .member("pid", lane.pid)
          .member("tid", tid);
      w.key("args").beginObject();
      w.member("name", "place " + std::to_string(tid)).end().end();
    }
    for (const Span& s : lane.spans) {
      // Simulated seconds -> Chrome trace microseconds.
      w.beginObject()
          .member("name", s.name)
          .member("cat", toString(s.category))
          .member("ph", "X")
          .member("ts", s.startTime * 1e6)
          .member("dur", (s.endTime - s.startTime) * 1e6)
          .member("pid", lane.pid)
          .member("tid", tidOf(s));
      w.key("args").beginObject();
      w.member("iteration", s.iteration)
          .member("bytes", s.bytes)
          .member("depth", s.depth);
      if (!s.phase.empty()) w.member("phase", s.phase);
      if (s.tid >= 0) {
        // The chrome "tid" field above stays = place (trace_load maps it
        // back into Span::place); the real OS thread tag from the Threads
        // backend rides along as an annotation instead.
        w.member("tid", std::to_string(s.tid));
      }
      for (const auto& [key, value] : s.args) w.member(key, value);
      w.end().end();
    }
  }
  w.end().member("displayTimeUnit", "ms").end();
  os << '\n';
}

std::string toChromeTraceJson(const std::vector<TraceLane>& lanes) {
  std::ostringstream os;
  writeChromeTrace(lanes, os);
  return os.str();
}

}  // namespace rgml::obs
