#include "harness/report.h"

#include <sstream>

#include "obs/analysis/attribution.h"
#include "obs/json_util.h"

namespace rgml::harness {

namespace {

using obs::jsonEscape;
using obs::jsonNumber;

/// One compact line per span for the divergence trace tails.
std::string spanLine(const obs::Span& s) {
  std::ostringstream os;
  os << '[' << jsonNumber(s.startTime) << "s.." << jsonNumber(s.endTime)
     << "s] " << obs::toString(s.category) << ' ' << s.name;
  if (s.iteration >= 0) os << " iter=" << s.iteration;
  if (s.place >= 0) os << " p" << s.place;
  if (s.bytes > 0) os << " bytes=" << s.bytes;
  for (const auto& [key, value] : s.args) os << ' ' << key << '=' << value;
  return os.str();
}

/// How many trailing spans a divergence entry quotes. Enough to show the
/// failing step, the restore that preceded it, and the checkpoint context
/// without bloating the report. (Finish-bookkeeping spans ride along in
/// the tail since PR 5, hence more room than the original 16.)
constexpr std::size_t kTraceTailSpans = 32;

/// Compact per-scenario attribution summary (self-time seconds and
/// percentages per bucket) for the "attribution" report field.
void writeAttributionSummary(
    std::ostream& os, const obs::analysis::AttributionReport& a) {
  auto buckets = [&](const char* key,
                     const std::vector<obs::analysis::AttributionBucket>&
                         list) {
    os << '"' << key << "\": [";
    for (std::size_t i = 0; i < list.size(); ++i) {
      os << (i ? ", " : "") << "{\"key\": \"" << jsonEscape(list[i].key)
         << "\", \"seconds\": " << jsonNumber(list[i].selfSeconds)
         << ", \"pct\": " << jsonNumber(list[i].pct) << '}';
    }
    os << ']';
  };
  os << "{\"total_seconds\": " << jsonNumber(a.totalSeconds) << ", ";
  buckets("by_phase", a.byPhase);
  os << ", ";
  buckets("by_category", a.byCategory);
  os << '}';
}

}  // namespace

void writeJsonReport(const SweepResult& result, std::ostream& os) {
  const SweepOptions& opt = result.options;
  os << "{\n  \"chaos_sweep\": {\n";

  os << "    \"apps\": [";
  for (std::size_t i = 0; i < opt.apps.size(); ++i) {
    os << (i ? ", " : "") << '"' << toString(opt.apps[i]) << '"';
  }
  os << "],\n    \"modes\": [";
  for (std::size_t i = 0; i < opt.modes.size(); ++i) {
    os << (i ? ", " : "") << '"' << toString(opt.modes[i]) << '"';
  }
  os << "],\n";
  os << "    \"iterations\": " << opt.iterations << ",\n";
  os << "    \"places\": " << opt.places << ",\n";
  os << "    \"spares\": " << opt.spares << ",\n";
  os << "    \"checkpoint_interval\": " << opt.checkpointInterval << ",\n";
  os << "    \"replication\": " << opt.replication << ",\n";
  os << "    \"checkpoint_mode\": \""
     << resilient::toString(opt.checkpointMode) << "\",\n";
  if (resilient::usesLossy(opt.checkpointMode)) {
    os << "    \"lossy_error_bound\": " << jsonNumber(opt.lossyErrorBound)
       << ",\n";
    os << "    \"lossy_tolerance\": " << jsonNumber(opt.lossyTolerance)
       << ",\n";
  }
  os << "    \"tolerance\": " << jsonNumber(opt.tolerance) << ",\n";

  long ok = 0;
  long unrecoverable = 0;
  for (const ScenarioOutcome& o : result.outcomes) {
    if (o.kind == OutcomeKind::Ok) ++ok;
    if (o.kind == OutcomeKind::Unrecoverable) ++unrecoverable;
  }
  os << "    \"scenarios_run\": " << result.scenariosRun << ",\n";
  os << "    \"ok\": " << ok << ",\n";
  os << "    \"unrecoverable_by_design\": " << unrecoverable << ",\n";

  os << "    \"divergences\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    const ScenarioOutcome& f = result.failures[i];
    os << (i ? "," : "") << "\n      {\"app\": \"" << toString(f.app)
       << "\", \"mode\": \"" << toString(f.schedule.mode)
       << "\", \"schedule\": \"" << jsonEscape(f.schedule.describe())
       << "\", \"kind\": \"" << toString(f.kind) << "\", \"detail\": \""
       << jsonEscape(f.detail) << "\", \"first_divergent_iteration\": "
       << f.firstDivergentIteration << ", \"minimal_reproducer\": \""
       << jsonEscape(f.minimalReproducer.describe())
       << "\", \"injector_setup\": \"" << jsonEscape(f.reproducerSetup)
       << '"';
    if (!f.spans.empty()) {
      os << ", \"trace_tail\": [";
      const std::size_t start =
          f.spans.size() > kTraceTailSpans ? f.spans.size() - kTraceTailSpans
                                           : 0;
      for (std::size_t j = start; j < f.spans.size(); ++j) {
        os << (j > start ? ", " : "") << '"' << jsonEscape(spanLine(f.spans[j]))
           << '"';
      }
      os << ']';
    }
    if (!f.flightDump.empty()) {
      // Raw splice: the dump is itself a JSON document of the shape
      // {"flight": {...}}, so the entry's "flight" value feeds straight
      // into analyzeFlight / tools/flight_report.
      os << ", \"flight\": " << f.flightDump;
    }
    os << '}';
  }
  os << (result.failures.empty() ? "" : "\n    ") << "],\n";

  os << "    \"worst_restore_ms\": {";
  bool first = true;
  for (const auto& [mode, ms] : result.worstRestoreMs) {
    os << (first ? "" : ", ") << '"' << mode << "\": " << jsonNumber(ms);
    first = false;
  }
  os << "},\n";

  os << "    \"scenarios\": [";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const ScenarioOutcome& o = result.outcomes[i];
    os << (i ? "," : "") << "\n      {\"app\": \"" << toString(o.app)
       << "\", \"mode\": \"" << toString(o.schedule.mode)
       << "\", \"schedule\": \"" << jsonEscape(o.schedule.describe())
       << "\", \"kind\": \"" << toString(o.kind)
       << "\", \"failures_handled\": " << o.failuresHandled
       << ", \"restore_ms\": " << jsonNumber(o.restoreMs)
       << ", \"total_ms\": " << jsonNumber(o.totalMs);
    if (o.reconvergeIterations >= 0) {
      os << ", \"reconverge_iterations\": " << o.reconvergeIterations;
    }
    if (!o.spans.empty()) {
      os << ", \"attribution\": ";
      writeAttributionSummary(os,
                              obs::analysis::attributeSelfTime(o.spans));
    }
    os << "}";
  }
  os << (result.outcomes.empty() ? "" : "\n    ") << "]\n";

  os << "  }\n}\n";
}

std::string toJson(const SweepResult& result) {
  std::ostringstream os;
  writeJsonReport(result, os);
  return os.str();
}

std::vector<obs::TraceLane> traceLanes(const SweepResult& result) {
  std::vector<obs::TraceLane> lanes;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const ScenarioOutcome& o = result.outcomes[i];
    if (o.spans.empty()) continue;
    obs::TraceLane lane;
    lane.pid = static_cast<int>(i) + 1;
    lane.name = std::string(toString(o.app)) + ' ' + o.schedule.describe();
    lane.spans = o.spans;
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

void writeChromeTrace(const SweepResult& result, std::ostream& os) {
  obs::writeChromeTrace(traceLanes(result), os);
}

std::string toChromeTraceJson(const SweepResult& result) {
  std::ostringstream os;
  writeChromeTrace(result, os);
  return os.str();
}

void writeMetricsJson(const SweepResult& result, std::ostream& os) {
  obs::MetricsRegistry folded;
  for (const ScenarioOutcome& o : result.outcomes) {
    folded.merge(o.metrics);
  }
  folded.writeJson(os);
}

std::string toMetricsJson(const SweepResult& result) {
  std::ostringstream os;
  writeMetricsJson(result, os);
  return os.str();
}

void writeFlightReport(const SweepResult& result, std::ostream& os) {
  os << "{\"flight_report\": {\"backend\": \""
     << apgas::toString(result.options.backend) << "\",\n  \"scenarios\": [";
  bool first = true;
  for (const ScenarioOutcome& o : result.outcomes) {
    if (o.flightDump.empty()) continue;
    os << (first ? "\n" : ",\n") << "    {\"app\": \"" << toString(o.app)
       << "\", \"mode\": \"" << toString(o.schedule.mode)
       << "\", \"schedule\": \"" << jsonEscape(o.schedule.describe())
       << "\", \"kind\": \"" << toString(o.kind)
       << "\",\n     \"flight\": " << o.flightDump << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << "}}\n";
}

void writeBenchSummary(const SweepResult& result, std::ostream& os) {
  long ok = 0;
  long unrecoverable = 0;
  double totalMs = 0.0;
  double restoreMs = 0.0;
  bool haveMetrics = false;
  for (const ScenarioOutcome& o : result.outcomes) {
    if (o.kind == OutcomeKind::Ok) ++ok;
    if (o.kind == OutcomeKind::Unrecoverable) ++unrecoverable;
    totalMs += o.totalMs;
    restoreMs += o.restoreMs;
    haveMetrics = haveMetrics || !o.metrics.empty();
  }

  os << "{\n  \"chaos_sweep_bench\": {\n    \"deterministic\": {\n"
     << "      \"scenarios\": " << result.scenariosRun << ",\n"
     << "      \"ok\": " << ok << ",\n"
     << "      \"failures\": " << result.failures.size() << ",\n"
     << "      \"unrecoverable_by_design\": " << unrecoverable << ",\n"
     << "      \"total_simulated_ms\": " << jsonNumber(totalMs) << ",\n"
     << "      \"total_restore_ms\": " << jsonNumber(restoreMs) << ",\n"
     << "      \"worst_restore_ms\": {";
  bool first = true;
  for (const auto& [mode, ms] : result.worstRestoreMs) {
    os << (first ? "" : ", ") << '"' << mode << "\": " << jsonNumber(ms);
    first = false;
  }
  os << "}";
  if (haveMetrics) {
    // Re-indent the folded metrics document under "metrics".
    std::istringstream metrics(toMetricsJson(result));
    os << ",\n      \"metrics\": ";
    std::string line;
    bool firstLine = true;
    while (std::getline(metrics, line)) {
      if (!firstLine) os << "\n      " << line;
      else os << line;
      firstLine = false;
    }
  }
  os << "\n    },\n    \"wall\": {\n"
     << "      \"jobs\": " << result.jobsUsed << ",\n"
     << "      \"wall_seconds\": " << jsonNumber(result.wallSeconds) << ",\n"
     << "      \"scenarios_per_sec\": " << jsonNumber(result.scenariosPerSec)
     << "\n    }\n  }\n}\n";
}

std::string summarize(const SweepResult& result) {
  std::ostringstream os;
  os << result.scenariosRun << " scenario(s), "
     << result.scenariosRun - static_cast<long>(result.failures.size())
     << " ok, " << result.failures.size() << " failure(s)";
  for (const ScenarioOutcome& f : result.failures) {
    os << "\n  " << toString(f.app) << ' ' << f.schedule.describe() << ": "
       << toString(f.kind) << " — " << f.detail;
    if (f.firstDivergentIteration >= 0) {
      os << " (state first diverges at iteration "
         << f.firstDivergentIteration << ')';
    }
    os << "\n  minimal reproducer: " << f.minimalReproducer.describe()
       << "\n" << f.reproducerSetup;
  }
  return os.str();
}

namespace {
const char* reconvergenceBucket(long iters) {
  if (iters < 0) return "n/a";
  if (iters == 0) return "0";
  if (iters <= 2) return "1-2";
  if (iters <= 8) return "3-8";
  return ">8";
}
}  // namespace

std::string classificationReport(const SweepResult& result) {
  std::ostringstream os;
  for (const ScenarioOutcome& o : result.outcomes) {
    os << toString(o.app) << '|' << toString(o.schedule.mode) << '|'
       << o.schedule.describe() << '|' << toString(o.kind)
       << "|failures=" << o.failuresHandled
       << "|restored_to=" << o.restoredTo
       << "|reconv=" << reconvergenceBucket(o.reconvergeIterations) << '\n';
  }
  return os.str();
}

}  // namespace rgml::harness
