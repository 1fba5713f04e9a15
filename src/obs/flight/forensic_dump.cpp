#include "obs/flight/forensic_dump.h"

#include <sstream>

#include "obs/analysis/json.h"

namespace rgml::obs::flight {

void writeForensicJson(std::ostream& os, const FlightRecorder& recorder,
                       const StallWatchdog* watchdog) {
  using Layout = JsonWriter::Layout;
  JsonWriter w(os);
  w.beginObject().key("flight").beginObject(Layout::Lines);
  w.member("places", recorder.places())
      .member("ring_capacity", recorder.ringCapacity());
  w.key("lanes").beginArray(Layout::Lines);
  for (const auto& lane : recorder.snapshotLanes()) {
    w.beginObject()
        .member("label", lane.label)
        .member("recorded", lane.recorded)
        .member("dropped", lane.dropped);
    w.key("events").beginArray(Layout::Lines);
    for (const Event& e : lane.events) {
      w.beginObject()
          .member("t", e.t)
          .member("kind", toString(e.kind))
          .member("queue", e.queue)
          .member("depth", e.depth)
          .member("value", e.value)
          .end();
    }
    w.end().end();
  }
  w.end().key("progress").beginArray(Layout::Lines);
  auto progressRow = [&](int queue) {
    const FlightRecorder::ProgressSnapshot snap = recorder.progress(queue);
    w.beginObject()
        .member("queue", queue)
        .member("enqueues", snap.enqueues)
        .member("dequeues", snap.dequeues)
        .member("depth", snap.depth)
        .member("dead", snap.dead ? 1 : 0)
        .end();
  };
  for (int p = 0; p < recorder.places(); ++p) progressRow(p);
  progressRow(kCtrlQueue);
  w.end();
  if (watchdog != nullptr) {
    w.key("watchdog").beginObject(Layout::Lines);
    w.member("period_seconds", watchdog->periodSeconds());
    w.key("samples").beginArray(Layout::Lines);
    for (const auto& sample : watchdog->samples()) {
      w.beginObject().member("t", sample.t).member("index", sample.index);
      w.key("rows").beginArray();
      for (const auto& row : sample.rows) {
        w.beginObject()
            .member("queue", row.queue)
            .member("depth", row.depth)
            .member("enqueues", row.enqueues)
            .member("dequeues", row.dequeues)
            .member("dead", row.dead ? 1 : 0)
            .end();
      }
      w.end().end();
    }
    w.end().key("verdicts").beginArray(Layout::Lines);
    for (const auto& v : watchdog->verdicts()) {
      w.beginObject()
          .member("t", v.t)
          .member("sample", v.sampleIndex)
          .member("queue", v.queue)
          .member("depth", v.depth)
          .member("dequeues", v.dequeues)
          .member("detail", v.detail)
          .end();
    }
    w.end().end();
  }
  w.end().end();
}

std::string forensicJson(const FlightRecorder& recorder,
                         const StallWatchdog* watchdog) {
  std::ostringstream os;
  writeForensicJson(os, recorder, watchdog);
  return os.str();
}

}  // namespace rgml::obs::flight
