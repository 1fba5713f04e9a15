#include "obs/analysis/trace_report.h"

#include <iomanip>
#include <sstream>

#include "obs/json_util.h"

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

void writeBucketsJson(std::ostream& os, const char* key,
                      const std::vector<AttributionBucket>& buckets,
                      const char* indent) {
  os << indent << "\"" << key << "\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const AttributionBucket& b = buckets[i];
    os << (i ? "," : "") << "\n" << indent << "  {\"key\": \""
       << jsonEscape(b.key) << "\", \"self_seconds\": "
       << jsonNumber(b.selfSeconds) << ", \"pct\": " << jsonNumber(b.pct)
       << ", \"spans\": " << b.spans << ", \"bytes\": " << b.bytes << "}";
  }
  os << (buckets.empty() ? "" : "\n") << (buckets.empty() ? "" : indent)
     << "]";
}

void writeAttributionJson(std::ostream& os, const AttributionReport& a,
                          const char* indent) {
  std::string inner = std::string(indent) + "  ";
  os << "{\n"
     << inner << "\"total_seconds\": " << jsonNumber(a.totalSeconds) << ",\n";
  writeBucketsJson(os, "by_category", a.byCategory, inner.c_str());
  os << ",\n";
  writeBucketsJson(os, "by_phase", a.byPhase, inner.c_str());
  os << "\n" << indent << "}";
}

void writeEntryJson(std::ostream& os, const CriticalPathEntry& e) {
  os << "{\"category\": \"" << jsonEscape(e.category) << "\", \"name\": \""
     << jsonEscape(e.name) << "\", \"phase\": \"" << jsonEscape(e.phase)
     << "\", \"place\": " << e.place << ", \"iteration\": " << e.iteration
     << ", \"start\": " << jsonNumber(e.startTime)
     << ", \"duration\": " << jsonNumber(e.duration()) << "}";
}

void writeCriticalPathJson(std::ostream& os, const CriticalPath& p,
                           const char* indent) {
  std::string inner = std::string(indent) + "  ";
  os << "{\n"
     << inner << "\"length_seconds\": " << jsonNumber(p.lengthSeconds) << ",\n"
     << inner << "\"makespan_seconds\": " << jsonNumber(p.makespanSeconds)
     << ",\n"
     << inner << "\"entries\": [";
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    os << (i ? "," : "") << "\n" << inner << "  ";
    writeEntryJson(os, p.entries[i]);
  }
  os << (p.entries.empty() ? "" : "\n")
     << (p.entries.empty() ? "" : inner.c_str()) << "],\n"
     << inner << "\"by_category\": [";
  for (std::size_t i = 0; i < p.byCategory.size(); ++i) {
    const CriticalPathCategory& c = p.byCategory[i];
    os << (i ? "," : "") << "\n" << inner << "  {\"key\": \""
       << jsonEscape(c.key) << "\", \"seconds\": " << jsonNumber(c.seconds)
       << ", \"pct\": " << jsonNumber(c.pct) << ", \"spans\": " << c.spans
       << ", \"top\": [";
    for (std::size_t j = 0; j < c.top.size(); ++j) {
      os << (j ? ", " : "");
      writeEntryJson(os, c.top[j]);
    }
    os << "]}";
  }
  os << (p.byCategory.empty() ? "" : "\n")
     << (p.byCategory.empty() ? "" : inner.c_str()) << "]\n"
     << indent << "}";
}

void writeAmortizationJson(std::ostream& os, const AmortizationReport& a,
                           const char* indent) {
  std::string inner = std::string(indent) + "  ";
  os << "{\n"
     << inner << "\"steps\": " << a.steps << ",\n"
     << inner << "\"step_seconds\": " << jsonNumber(a.stepSeconds) << ",\n"
     << inner << "\"avg_step_seconds\": " << jsonNumber(a.avgStepSeconds)
     << ",\n"
     << inner << "\"checkpoints\": " << a.checkpoints << ",\n"
     << inner << "\"checkpoint_seconds\": " << jsonNumber(a.checkpointSeconds)
     << ",\n"
     << inner << "\"avg_checkpoint_seconds\": "
     << jsonNumber(a.avgCheckpointSeconds) << ",\n"
     << inner << "\"restores\": " << a.restores << ",\n"
     << inner << "\"restore_seconds\": " << jsonNumber(a.restoreSeconds)
     << ",\n"
     << inner << "\"fresh_bytes\": " << a.freshBytes << ",\n"
     << inner << "\"carried_bytes\": " << a.carriedBytes << ",\n"
     << inner << "\"fresh_entries\": " << a.freshEntries << ",\n"
     << inner << "\"carried_entries\": " << a.carriedEntries << ",\n"
     << inner << "\"carried_fraction\": " << jsonNumber(a.carriedFraction)
     << ",\n"
     << inner << "\"raw_bytes\": " << a.rawBytes << ",\n"
     << inner << "\"encoded_bytes\": " << a.encodedBytes << ",\n"
     << inner << "\"codec_seconds\": " << jsonNumber(a.codecSeconds) << ",\n"
     << inner << "\"compression_ratio\": " << jsonNumber(a.compressionRatio)
     << ",\n"
     << inner << "\"checkpoint_overhead_pct\": "
     << jsonNumber(a.checkpointOverheadPct) << ",\n"
     << inner << "\"restore_overhead_pct\": "
     << jsonNumber(a.restoreOverheadPct) << ",\n"
     << inner << "\"mtbf_seconds\": " << jsonNumber(a.mtbfSeconds) << ",\n"
     << inner << "\"mtbf_observed\": "
     << (a.mtbfObserved ? "true" : "false") << ",\n"
     << inner << "\"checkpoint_cost_used\": "
     << jsonNumber(a.checkpointCostUsed) << ",\n"
     << inner << "\"recommended_interval\": " << a.recommendedInterval
     << ",\n"
     << inner << "\"recommended_overhead_pct\": "
     << jsonNumber(a.recommendedOverheadPct) << ",\n"
     << inner << "\"note\": \"" << jsonEscape(a.note) << "\"\n"
     << indent << "}";
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
  os << "{\n  \"trace_report\": {\n    \"lanes\": [";
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LaneAnalysis& lane = report.lanes[i];
    os << (i ? "," : "") << "\n      {\"pid\": " << lane.pid
       << ", \"name\": \"" << jsonEscape(lane.name)
       << "\", \"spans\": " << lane.spanCount << ",\n"
       << "       \"attribution\": ";
    writeAttributionJson(os, lane.attribution, "       ");
    os << ",\n       \"critical_path\": ";
    writeCriticalPathJson(os, lane.criticalPath, "       ");
    os << "}";
  }
  os << (report.lanes.empty() ? "" : "\n    ") << "],\n"
     << "    \"overall\": ";
  writeAttributionJson(os, report.overall, "    ");
  if (report.hasMetrics) {
    os << ",\n    \"amortization\": ";
    writeAmortizationJson(os, report.amortization, "    ");
  }
  os << "\n  }\n}\n";
}

}  // namespace rgml::obs::analysis
