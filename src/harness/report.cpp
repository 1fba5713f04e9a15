#include "harness/report.h"

#include <sstream>

#include "obs/analysis/attribution.h"

namespace rgml::harness {

namespace {

using Layout = obs::JsonWriter::Layout;

/// How many trailing spans a divergence entry quotes. Enough to show the
/// failing step, the restore that preceded it, and the checkpoint context
/// without bloating the report. (Finish-bookkeeping spans ride along in
/// the tail since PR 5, hence more room than the original 16.)
constexpr std::size_t kTraceTailSpans = 32;

/// Compact per-scenario attribution summary (self-time seconds and
/// percentages per bucket) for the "attribution" report field.
void writeAttributionSummary(obs::JsonWriter& w,
                             const obs::analysis::AttributionReport& a) {
  auto buckets = [&](const char* key,
                     const std::vector<obs::analysis::AttributionBucket>&
                         list) {
    w.key(key).beginArray();
    for (const obs::analysis::AttributionBucket& b : list) {
      w.beginObject()
          .member("key", b.key)
          .member("seconds", b.selfSeconds)
          .member("pct", b.pct)
          .end();
    }
    w.end();
  };
  w.beginObject().member("total_seconds", a.totalSeconds);
  buckets("by_phase", a.byPhase);
  buckets("by_category", a.byCategory);
  w.end();
}

/// The members that name a scenario in every per-scenario entry.
void writeScenarioName(obs::JsonWriter& w, const ScenarioOutcome& o) {
  w.member("app", toString(o.app))
      .member("mode", toString(o.schedule.mode))
      .member("schedule", o.schedule.describe())
      .member("kind", toString(o.kind));
}

void writeWorstRestore(obs::JsonWriter& w, const SweepResult& result) {
  w.key("worst_restore_ms").beginObject();
  for (const auto& [mode, ms] : result.worstRestoreMs) w.member(mode, ms);
  w.end();
}

obs::MetricsRegistry foldedMetrics(const SweepResult& result) {
  obs::MetricsRegistry folded;
  for (const ScenarioOutcome& o : result.outcomes) folded.merge(o.metrics);
  return folded;
}

}  // namespace

void writeJsonReport(const SweepResult& result, std::ostream& os) {
  const SweepOptions& opt = result.options;
  obs::JsonWriter w(os);
  w.beginObject(Layout::Lines).key("chaos_sweep").beginObject(Layout::Lines);
  w.key("apps").beginArray();
  for (const AppKind app : opt.apps) w.value(toString(app));
  w.end().key("modes").beginArray();
  for (const framework::RestoreMode mode : opt.modes) w.value(toString(mode));
  w.end()
      .member("iterations", opt.iterations)
      .member("places", opt.places)
      .member("spares", opt.spares)
      .member("checkpoint_interval", opt.checkpointInterval)
      .member("replication", opt.replication)
      .member("checkpoint_mode", resilient::toString(opt.checkpointMode));
  if (resilient::usesLossy(opt.checkpointMode)) {
    w.member("lossy_error_bound", opt.lossyErrorBound)
        .member("lossy_tolerance", opt.lossyTolerance);
  }
  w.member("tolerance", opt.tolerance);

  long ok = 0;
  long unrecoverable = 0;
  for (const ScenarioOutcome& o : result.outcomes) {
    if (o.kind == OutcomeKind::Ok) ++ok;
    if (o.kind == OutcomeKind::Unrecoverable) ++unrecoverable;
  }
  w.member("scenarios_run", result.scenariosRun)
      .member("ok", ok)
      .member("unrecoverable_by_design", unrecoverable);

  w.key("divergences").beginArray(Layout::Lines);
  for (const ScenarioOutcome& f : result.failures) {
    w.beginObject();
    writeScenarioName(w, f);
    w.member("detail", f.detail)
        .member("first_divergent_iteration", f.firstDivergentIteration)
        .member("minimal_reproducer", f.minimalReproducer.describe())
        .member("injector_setup", f.reproducerSetup);
    if (!f.spans.empty()) {
      w.key("trace_tail").beginArray();
      const std::size_t start =
          f.spans.size() > kTraceTailSpans ? f.spans.size() - kTraceTailSpans
                                           : 0;
      for (std::size_t j = start; j < f.spans.size(); ++j) {
        w.value(obs::spanLine(f.spans[j]));
      }
      w.end();
    }
    if (!f.flightDump.empty()) {
      // Raw splice: the dump is itself a JSON document of the shape
      // {"flight": {...}}, so the entry's "flight" value feeds straight
      // into analyzeFlight / tools/flight_report.
      w.key("flight").raw(f.flightDump);
    }
    w.end();
  }
  w.end();
  writeWorstRestore(w, result);

  w.key("scenarios").beginArray(Layout::Lines);
  for (const ScenarioOutcome& o : result.outcomes) {
    w.beginObject();
    writeScenarioName(w, o);
    w.member("failures_handled", o.failuresHandled)
        .member("restore_ms", o.restoreMs)
        .member("total_ms", o.totalMs);
    if (o.reconvergeIterations >= 0) {
      w.member("reconverge_iterations", o.reconvergeIterations);
    }
    if (!o.spans.empty()) {
      w.key("attribution");
      writeAttributionSummary(w, obs::analysis::attributeSelfTime(o.spans));
    }
    w.end();
  }
  w.end().end().end();
  os << '\n';
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
  foldedMetrics(result).writeJson(os);
}

std::string toMetricsJson(const SweepResult& result) {
  std::ostringstream os;
  writeMetricsJson(result, os);
  return os.str();
}

void writeFlightReport(const SweepResult& result, std::ostream& os) {
  obs::JsonWriter w(os);
  w.beginObject(Layout::Lines).key("flight_report").beginObject(Layout::Lines);
  w.member("backend", apgas::toString(result.options.backend));
  w.key("scenarios").beginArray(Layout::Lines);
  for (const ScenarioOutcome& o : result.outcomes) {
    if (o.flightDump.empty()) continue;
    w.beginObject();
    writeScenarioName(w, o);
    w.key("flight").raw(o.flightDump).end();
  }
  w.end().end().end();
  os << '\n';
}

void writeBenchJson(std::ostream& os, std::string_view name,
                    const JsonMembers& deterministic,
                    const JsonMembers& wall) {
  obs::JsonWriter w(os);
  w.beginObject(Layout::Lines).key(name).beginObject(Layout::Lines);
  w.key("deterministic").beginObject(Layout::Lines);
  deterministic(w);
  w.end().key("wall").beginObject(Layout::Lines);
  wall(w);
  w.end().end().end();
  os << '\n';
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
  writeBenchJson(
      os, "chaos_sweep_bench",
      [&](obs::JsonWriter& w) {
        w.member("scenarios", result.scenariosRun)
            .member("ok", ok)
            .member("failures", result.failures.size())
            .member("unrecoverable_by_design", unrecoverable)
            .member("total_simulated_ms", totalMs)
            .member("total_restore_ms", restoreMs);
        writeWorstRestore(w, result);
        if (haveMetrics) {
          w.key("metrics");
          foldedMetrics(result).write(w);
        }
      },
      [&](obs::JsonWriter& w) {
        w.member("jobs", result.jobsUsed)
            .member("wall_seconds", result.wallSeconds)
            .member("scenarios_per_sec", result.scenariosPerSec);
      });
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

const char* reconvergenceBucket(long iters) {
  if (iters < 0) return "n/a";
  if (iters == 0) return "0";
  if (iters <= 2) return "1-2";
  if (iters <= 8) return "3-8";
  return ">8";
}

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
