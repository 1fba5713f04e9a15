#include "obs/analysis/flight_report.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/flight/flight_recorder.h"

namespace rgml::obs::analysis {

using flight::queueName;

double flightPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  auto idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

namespace {

FlightLatencyStats latencyStats(int queue, std::vector<double>& samplesUs) {
  std::sort(samplesUs.begin(), samplesUs.end());
  FlightLatencyStats stats;
  stats.queue = queue;
  stats.count = static_cast<long>(samplesUs.size());
  stats.p50Us = flightPercentile(samplesUs, 0.5);
  stats.p99Us = flightPercentile(samplesUs, 0.99);
  stats.maxUs = samplesUs.empty() ? 0.0 : samplesUs.back();
  return stats;
}

}  // namespace

FlightAnalysis analyzeFlight(const JsonValue& root) {
  const JsonValue& flight = root.at("flight");
  FlightAnalysis out;
  out.places = static_cast<int>(flight.at("places").asLong());
  out.ringCapacity =
      static_cast<std::size_t>(flight.at("ring_capacity").asLong());

  std::map<int, std::vector<double>> ackUs;
  std::map<int, std::vector<double>> dequeueUs;
  for (const JsonValue& lane : flight.at("lanes").items()) {
    ++out.lanes;
    out.eventsRecorded +=
        static_cast<std::uint64_t>(lane.at("recorded").asNumber());
    for (const JsonValue& event : lane.at("events").items()) {
      ++out.eventsRetained;
      const std::string& kind = event.at("kind").asString();
      const int queue = static_cast<int>(event.at("queue").asLong());
      const double us = event.at("value").asNumber() * 1e6;
      if (kind == "ack_wait_end") {
        ackUs[queue].push_back(us);
      } else if (kind == "dequeue") {
        dequeueUs[queue].push_back(us);
      }
    }
  }
  for (auto& [queue, samples] : ackUs) {
    out.ackWait.push_back(latencyStats(queue, samples));
  }
  for (auto& [queue, samples] : dequeueUs) {
    out.dequeueLatency.push_back(latencyStats(queue, samples));
  }

  std::map<int, FlightQueueStats> queues;
  if (const JsonValue* progress = flight.find("progress")) {
    for (const JsonValue& row : progress->items()) {
      const int queue = static_cast<int>(row.at("queue").asLong());
      FlightQueueStats& stats = queues[queue];
      stats.queue = queue;
      stats.enqueues =
          static_cast<std::uint64_t>(row.at("enqueues").asNumber());
      stats.dequeues =
          static_cast<std::uint64_t>(row.at("dequeues").asNumber());
      stats.dead = row.at("dead").asLong() != 0;
    }
  }
  if (const JsonValue* watchdog = flight.find("watchdog")) {
    for (const JsonValue& sample : watchdog->at("samples").items()) {
      for (const JsonValue& row : sample.at("rows").items()) {
        const int queue = static_cast<int>(row.at("queue").asLong());
        const long depth = row.at("depth").asLong();
        FlightQueueStats& stats = queues[queue];
        stats.queue = queue;
        stats.maxDepth = std::max(stats.maxDepth, depth);
        stats.meanDepth += static_cast<double>(depth);
        ++stats.samples;
      }
    }
    for (const JsonValue& verdict : watchdog->at("verdicts").items()) {
      out.verdicts.push_back(verdict.at("detail").asString());
    }
  }
  for (auto& [queue, stats] : queues) {
    if (stats.samples > 0) {
      stats.meanDepth /= static_cast<double>(stats.samples);
    }
    out.queues.push_back(stats);
  }
  return out;
}

FinishCurvePoint finishCurvePoint(const FlightAnalysis& analysis) {
  FinishCurvePoint point;
  point.places = analysis.places;
  for (const FlightLatencyStats& stats : analysis.ackWait) {
    if (stats.queue == 0) {
      point.place0Count = stats.count;
      point.place0P50Us = stats.p50Us;
      point.place0P99Us = stats.p99Us;
    } else if (stats.queue > 0) {
      point.othersMaxP50Us = std::max(point.othersMaxP50Us, stats.p50Us);
      point.othersMaxP99Us = std::max(point.othersMaxP99Us, stats.p99Us);
    }
  }
  return point;
}

std::string formatFlightAnalysis(const FlightAnalysis& analysis) {
  std::ostringstream os;
  os << "flight: " << analysis.places << " place(s), ring capacity "
     << analysis.ringCapacity << ", " << analysis.lanes << " lane(s), "
     << analysis.eventsRecorded << " events recorded ("
     << analysis.eventsRetained << " retained)\n";
  os << std::fixed << std::setprecision(1);
  if (!analysis.ackWait.empty()) {
    os << "finish ack-wait per home place (us):\n"
       << "  queue   count       p50       p99       max\n";
    for (const FlightLatencyStats& s : analysis.ackWait) {
      os << "  " << std::setw(5) << queueName(s.queue) << std::setw(8)
         << s.count << std::setw(10) << s.p50Us << std::setw(10) << s.p99Us
         << std::setw(10) << s.maxUs << "\n";
    }
  }
  if (!analysis.dequeueLatency.empty()) {
    os << "dequeue latency per queue (us):\n"
       << "  queue   count       p50       p99       max\n";
    for (const FlightLatencyStats& s : analysis.dequeueLatency) {
      os << "  " << std::setw(5) << queueName(s.queue) << std::setw(8)
         << s.count << std::setw(10) << s.p50Us << std::setw(10) << s.p99Us
         << std::setw(10) << s.maxUs << "\n";
    }
  }
  if (!analysis.queues.empty()) {
    os << "queue depth (watchdog samples) and final progress counters:\n"
       << "  queue  samples  max_depth  mean_depth    enqueues    dequeues"
          "  dead\n";
    for (const FlightQueueStats& s : analysis.queues) {
      os << "  " << std::setw(5) << queueName(s.queue) << std::setw(9)
         << s.samples << std::setw(11) << s.maxDepth << std::setw(12)
         << s.meanDepth << std::setw(12) << s.enqueues << std::setw(12)
         << s.dequeues << std::setw(6) << (s.dead ? 1 : 0) << "\n";
    }
  }
  os << "stall verdicts: " << analysis.verdicts.size() << "\n";
  for (const std::string& verdict : analysis.verdicts) {
    os << "  " << verdict << "\n";
  }
  return os.str();
}

std::string formatFinishCurve(const std::vector<FinishCurvePoint>& curve) {
  std::ostringstream os;
  os << "place-0 finish-serialisation curve (ack-wait us):\n"
     << "  places  p0_count     p0_p50     p0_p99  others_max_p50"
        "  others_max_p99\n"
     << std::fixed << std::setprecision(1);
  for (const FinishCurvePoint& point : curve) {
    os << "  " << std::setw(6) << point.places << std::setw(10)
       << point.place0Count << std::setw(11) << point.place0P50Us
       << std::setw(11) << point.place0P99Us << std::setw(16)
       << point.othersMaxP50Us << std::setw(16) << point.othersMaxP99Us
       << "\n";
  }
  return os.str();
}

void writeFlightAnalysisJson(const FlightAnalysis& analysis,
                             std::ostream& os) {
  using Layout = JsonWriter::Layout;
  JsonWriter w(os);
  w.beginObject().key("flight_analysis").beginObject(Layout::Lines);
  w.member("places", analysis.places)
      .member("ring_capacity", analysis.ringCapacity)
      .member("lanes", analysis.lanes)
      .member("events_recorded", analysis.eventsRecorded)
      .member("events_retained", analysis.eventsRetained);
  auto latencyList = [&](const char* key,
                         const std::vector<FlightLatencyStats>& list) {
    w.key(key).beginArray(Layout::Lines);
    for (const FlightLatencyStats& s : list) {
      w.beginObject()
          .member("queue", s.queue)
          .member("count", s.count)
          .member("p50_us", s.p50Us)
          .member("p99_us", s.p99Us)
          .member("max_us", s.maxUs)
          .end();
    }
    w.end();
  };
  latencyList("ack_wait", analysis.ackWait);
  latencyList("dequeue_latency", analysis.dequeueLatency);
  w.key("queues").beginArray(Layout::Lines);
  for (const FlightQueueStats& s : analysis.queues) {
    w.beginObject()
        .member("queue", s.queue)
        .member("samples", s.samples)
        .member("max_depth", s.maxDepth)
        .member("mean_depth", s.meanDepth)
        .member("enqueues", s.enqueues)
        .member("dequeues", s.dequeues)
        .member("dead", s.dead ? 1 : 0)
        .end();
  }
  w.end().key("verdicts").beginArray();
  for (const std::string& verdict : analysis.verdicts) w.value(verdict);
  w.end().end().end();
  os << '\n';
}

}  // namespace rgml::obs::analysis
