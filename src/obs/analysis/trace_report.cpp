#include "obs/analysis/trace_report.h"

#include <iomanip>
#include <sstream>

#include "obs/analysis/json.h"

namespace rgml::obs::analysis {

namespace {

/// Fixed-point rendering for the human tables (ms resolution is noise
/// here; 6 decimals of simulated seconds is plenty).
std::string fixed6(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << v;
  return os.str();
}

std::string pct2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v << '%';
  return os.str();
}

void writeBucketTable(std::ostream& os, const char* heading,
                      const std::vector<AttributionBucket>& buckets) {
  os << "  " << std::left << std::setw(20) << heading << std::right
     << std::setw(14) << "seconds" << std::setw(10) << "pct"
     << std::setw(8) << "spans" << std::setw(14) << "bytes" << "\n";
  for (const AttributionBucket& b : buckets) {
    os << "  " << std::left << std::setw(20) << b.key << std::right
       << std::setw(14) << fixed6(b.selfSeconds) << std::setw(10)
       << pct2(b.pct) << std::setw(8) << b.spans << std::setw(14)
       << b.bytes << "\n";
  }
}

using Layout = JsonWriter::Layout;

void writeBucketsJson(JsonWriter& w, const char* key,
                      const std::vector<AttributionBucket>& buckets) {
  w.key(key).beginArray(Layout::Lines);
  for (const AttributionBucket& b : buckets) {
    w.beginObject()
        .member("key", b.key)
        .member("self_seconds", b.selfSeconds)
        .member("pct", b.pct)
        .member("spans", b.spans)
        .member("bytes", b.bytes)
        .end();
  }
  w.end();
}

void writeAttributionJson(JsonWriter& w, const AttributionReport& a) {
  w.beginObject(Layout::Lines).member("total_seconds", a.totalSeconds);
  writeBucketsJson(w, "by_category", a.byCategory);
  writeBucketsJson(w, "by_phase", a.byPhase);
  w.end();
}

void writeEntryJson(JsonWriter& w, const CriticalPathEntry& e) {
  w.beginObject()
      .member("category", e.category)
      .member("name", e.name)
      .member("phase", e.phase)
      .member("place", e.place)
      .member("iteration", e.iteration)
      .member("start", e.startTime)
      .member("duration", e.duration())
      .end();
}

void writeCriticalPathJson(JsonWriter& w, const CriticalPath& p) {
  w.beginObject(Layout::Lines)
      .member("length_seconds", p.lengthSeconds)
      .member("makespan_seconds", p.makespanSeconds);
  w.key("entries").beginArray(Layout::Lines);
  for (const CriticalPathEntry& e : p.entries) writeEntryJson(w, e);
  w.end().key("by_category").beginArray(Layout::Lines);
  for (const CriticalPathCategory& c : p.byCategory) {
    w.beginObject()
        .member("key", c.key)
        .member("seconds", c.seconds)
        .member("pct", c.pct)
        .member("spans", c.spans);
    w.key("top").beginArray();
    for (const CriticalPathEntry& e : c.top) writeEntryJson(w, e);
    w.end().end();
  }
  w.end().end();
}

void writeAmortizationJson(JsonWriter& w, const AmortizationReport& a) {
  w.beginObject(Layout::Lines)
      .member("steps", a.steps)
      .member("step_seconds", a.stepSeconds)
      .member("avg_step_seconds", a.avgStepSeconds)
      .member("checkpoints", a.checkpoints)
      .member("checkpoint_seconds", a.checkpointSeconds)
      .member("avg_checkpoint_seconds", a.avgCheckpointSeconds)
      .member("restores", a.restores)
      .member("restore_seconds", a.restoreSeconds)
      .member("fresh_bytes", a.freshBytes)
      .member("carried_bytes", a.carriedBytes)
      .member("fresh_entries", a.freshEntries)
      .member("carried_entries", a.carriedEntries)
      .member("carried_fraction", a.carriedFraction)
      .member("raw_bytes", a.rawBytes)
      .member("encoded_bytes", a.encodedBytes)
      .member("codec_seconds", a.codecSeconds)
      .member("compression_ratio", a.compressionRatio)
      .member("checkpoint_overhead_pct", a.checkpointOverheadPct)
      .member("restore_overhead_pct", a.restoreOverheadPct)
      .member("mtbf_seconds", a.mtbfSeconds)
      .member("mtbf_observed", a.mtbfObserved)
      .member("checkpoint_cost_used", a.checkpointCostUsed)
      .member("recommended_interval", a.recommendedInterval)
      .member("recommended_overhead_pct", a.recommendedOverheadPct)
      .member("note", a.note)
      .end();
}

}  // namespace

LaneAnalysis analyzeLane(const LoadedLane& lane, std::size_t topK) {
  LaneAnalysis a;
  a.pid = lane.pid;
  a.name = lane.name;
  a.spanCount = static_cast<long>(lane.spans.size());
  a.attribution = attributeSelfTime(lane.spans);
  a.criticalPath = extractCriticalPath(lane.spans, topK);
  return a;
}

TraceReport buildReport(std::vector<LaneAnalysis> lanes,
                        const MetricsRegistry* metrics,
                        double expectedMtbfSeconds) {
  TraceReport report;
  report.lanes = std::move(lanes);
  double observedSeconds = 0.0;
  for (const LaneAnalysis& lane : report.lanes) {
    mergeAttribution(report.overall, lane.attribution);
    // Each lane runs on its own simulated clock, so run spans add up.
    observedSeconds += lane.criticalPath.makespanSeconds;
  }
  if (metrics != nullptr) {
    report.hasMetrics = true;
    report.amortization =
        computeAmortization(*metrics, observedSeconds, expectedMtbfSeconds);
  }
  return report;
}

void writeHumanReport(const TraceReport& report, std::ostream& os) {
  os << "== Overall attribution (self time, "
     << fixed6(report.overall.totalSeconds) << " s across "
     << report.lanes.size() << " lane(s)) ==\n";
  writeBucketTable(os, "category", report.overall.byCategory);
  os << "\n";
  writeBucketTable(os, "phase", report.overall.byPhase);

  for (const LaneAnalysis& lane : report.lanes) {
    const CriticalPath& p = lane.criticalPath;
    os << "\n== Lane " << lane.pid;
    if (!lane.name.empty()) os << " (" << lane.name << ")";
    os << ": " << lane.spanCount << " span(s) ==\n";
    const double idlePct =
        p.makespanSeconds > 0.0
            ? (1.0 - p.lengthSeconds / p.makespanSeconds) * 100.0
            : 0.0;
    os << "  critical path " << fixed6(p.lengthSeconds) << " s of "
       << fixed6(p.makespanSeconds) << " s makespan (" << pct2(idlePct)
       << " slack), " << p.entries.size() << " span(s)\n";
    for (const CriticalPathCategory& c : p.byCategory) {
      os << "    " << std::left << std::setw(18) << c.key << std::right
         << std::setw(14) << fixed6(c.seconds) << std::setw(10)
         << pct2(c.pct) << std::setw(8) << c.spans << "  top:";
      for (const CriticalPathEntry& e : c.top) {
        os << ' ' << e.name;
        if (e.iteration >= 0) os << " iter=" << e.iteration;
        os << " p" << e.place << ' ' << fixed6(e.duration()) << "s;";
      }
      os << "\n";
    }
  }

  if (report.hasMetrics) {
    const AmortizationReport& a = report.amortization;
    os << "\n== Checkpoint amortization ==\n"
       << "  steps " << a.steps << " (avg " << fixed6(a.avgStepSeconds)
       << " s), checkpoints " << a.checkpoints << " (avg "
       << fixed6(a.avgCheckpointSeconds) << " s), restores " << a.restores
       << " (" << fixed6(a.restoreSeconds) << " s)\n"
       << "  checkpoint volume: fresh " << a.freshBytes << " B / carried "
       << a.carriedBytes << " B (" << pct2(a.carriedFraction * 100.0)
       << " carried), entries " << a.freshEntries << " fresh / "
       << a.carriedEntries << " carried\n"
       << "  observed overhead: checkpoint "
       << pct2(a.checkpointOverheadPct) << ", restore "
       << pct2(a.restoreOverheadPct) << "\n";
    if (a.encodedBytes > 0) {
      os << "  codec volume: raw " << a.rawBytes << " B -> encoded "
         << a.encodedBytes << " B (" << fixed6(a.compressionRatio)
         << "x), codec time " << fixed6(a.codecSeconds) << " s\n";
    }
    if (!a.note.empty()) {
      os << "  " << a.note << "\n";
    }
    if (a.recommendedInterval > 0) {
      os << "  mtbf " << fixed6(a.mtbfSeconds) << " s ("
         << (a.mtbfObserved ? "observed" : "given")
         << ") -> recommended interval " << a.recommendedInterval
         << " iteration(s) (amortizing " << fixed6(a.checkpointCostUsed)
         << " s/checkpoint), expected overhead "
         << pct2(a.recommendedOverheadPct) << "\n";
    }
  }
}

void writeJsonReport(const TraceReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.beginObject(Layout::Lines).key("trace_report").beginObject(Layout::Lines);
  w.key("lanes").beginArray(Layout::Lines);
  for (const LaneAnalysis& lane : report.lanes) {
    w.beginObject(Layout::Lines)
        .member("pid", lane.pid)
        .member("name", lane.name)
        .member("spans", lane.spanCount);
    w.key("attribution");
    writeAttributionJson(w, lane.attribution);
    w.key("critical_path");
    writeCriticalPathJson(w, lane.criticalPath);
    w.end();
  }
  w.end().key("overall");
  writeAttributionJson(w, report.overall);
  if (report.hasMetrics) {
    w.key("amortization");
    writeAmortizationJson(w, report.amortization);
  }
  w.end().end();
  os << '\n';
}

}  // namespace rgml::obs::analysis
