#include "obs/flight/forensic_dump.h"

#include <sstream>

#include "obs/json_util.h"

namespace rgml::obs::flight {

void writeForensicJson(std::ostream& os, const FlightRecorder& recorder,
                       const StallWatchdog* watchdog) {
  os << "{\"flight\": {\"places\": " << recorder.places()
     << ", \"ring_capacity\": " << recorder.ringCapacity()
     << ",\n  \"lanes\": [";
  const auto lanes = recorder.snapshotLanes();
  bool firstLane = true;
  for (const auto& lane : lanes) {
    os << (firstLane ? "\n" : ",\n") << "    {\"label\": ";
    writeJsonString(os, lane.label);
    os << ", \"recorded\": " << lane.recorded
       << ", \"dropped\": " << lane.dropped << ", \"events\": [";
    bool firstEvent = true;
    for (const Event& e : lane.events) {
      os << (firstEvent ? "\n" : ",\n") << "      {\"t\": " << jsonNumber(e.t)
         << ", \"kind\": \"" << toString(e.kind)
         << "\", \"queue\": " << e.queue << ", \"depth\": " << e.depth
         << ", \"value\": " << jsonNumber(e.value) << "}";
      firstEvent = false;
    }
    os << (firstEvent ? "]}" : "\n    ]}");
    firstLane = false;
  }
  os << (firstLane ? "],\n" : "\n  ],\n") << "  \"progress\": [";
  bool firstRow = true;
  auto progressRow = [&](int queue) {
    const FlightRecorder::ProgressSnapshot snap = recorder.progress(queue);
    os << (firstRow ? "\n" : ",\n") << "    {\"queue\": " << queue
       << ", \"enqueues\": " << snap.enqueues
       << ", \"dequeues\": " << snap.dequeues
       << ", \"depth\": " << snap.depth
       << ", \"dead\": " << (snap.dead ? 1 : 0) << "}";
    firstRow = false;
  };
  for (int p = 0; p < recorder.places(); ++p) progressRow(p);
  progressRow(kCtrlQueue);
  os << (firstRow ? "]" : "\n  ]");
  if (watchdog != nullptr) {
    os << ",\n  \"watchdog\": {\"period_seconds\": "
       << jsonNumber(watchdog->periodSeconds()) << ", \"samples\": [";
    bool firstSample = true;
    for (const auto& sample : watchdog->samples()) {
      os << (firstSample ? "\n" : ",\n")
         << "    {\"t\": " << jsonNumber(sample.t)
         << ", \"index\": " << sample.index << ", \"rows\": [";
      bool first = true;
      for (const auto& row : sample.rows) {
        os << (first ? "" : ", ") << "{\"queue\": " << row.queue
           << ", \"depth\": " << row.depth
           << ", \"enqueues\": " << row.enqueues
           << ", \"dequeues\": " << row.dequeues
           << ", \"dead\": " << (row.dead ? 1 : 0) << "}";
        first = false;
      }
      os << "]}";
      firstSample = false;
    }
    os << (firstSample ? "]" : "\n  ]") << ", \"verdicts\": [";
    bool firstVerdict = true;
    for (const auto& v : watchdog->verdicts()) {
      os << (firstVerdict ? "\n" : ",\n") << "    {\"t\": " << jsonNumber(v.t)
         << ", \"sample\": " << v.sampleIndex << ", \"queue\": " << v.queue
         << ", \"depth\": " << v.depth << ", \"dequeues\": " << v.dequeues
         << ", \"detail\": ";
      writeJsonString(os, v.detail);
      os << "}";
      firstVerdict = false;
    }
    os << (firstVerdict ? "]}" : "\n  ]}");
  }
  os << "}}";
}

std::string forensicJson(const FlightRecorder& recorder,
                         const StallWatchdog* watchdog) {
  std::ostringstream os;
  writeForensicJson(os, recorder, watchdog);
  return os.str();
}

}  // namespace rgml::obs::flight
