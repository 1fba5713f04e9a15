// Machine-readable JSON reports for chaos sweeps.
//
// Schema (documented in EXPERIMENTS.md §"Chaos sweeping"):
//
// {
//   "chaos_sweep": {
//     "apps": [...], "modes": [...],
//     "iterations": N, "places": N, "spares": N,
//     "checkpoint_interval": N, "tolerance": x,
//     "scenarios_run": N, "ok": N, "unrecoverable_by_design": N,
//     "divergences": [            // every failed scenario
//       { "app": "...", "mode": "...", "schedule": "...", "kind": "...",
//         "detail": "...", "first_divergent_iteration": N,
//         "minimal_reproducer": "...", "injector_setup": "..." } ],
//     "worst_restore_ms": { "<mode>": x, ... },
//     "scenarios": [              // one compact row per scenario
//       { "app": "...", "mode": "...", "schedule": "...", "kind": "...",
//         "failures_handled": N, "restore_ms": x, "total_ms": x } ]
//   }
// }
// When the sweep ran with SweepOptions::captureTraces, each divergence
// entry additionally carries a "trace_tail" array — the last few spans of
// the failing scenario's trace, rendered one compact line per span — and
// the whole sweep can be exported as a Chrome trace-event file
// (writeChromeTrace, one lane per scenario) or a folded metrics document
// (writeMetricsJson). All of these derive from simulated time only, so
// they are byte-identical at any --jobs value.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/sweeper.h"
#include "obs/analysis/json.h"
#include "obs/chrome_trace.h"

namespace rgml::harness {

/// Serialise `result` as the JSON document above.
void writeJsonReport(const SweepResult& result, std::ostream& os);

/// writeJsonReport into a string.
[[nodiscard]] std::string toJson(const SweepResult& result);

/// One-paragraph human summary (CLI output, test failure messages).
[[nodiscard]] std::string summarize(const SweepResult& result);

/// Iterations-to-reconverge bucketed as n/a (not measured), 0, 1-2, 3-8
/// or >8: the paper-relevant magnitude of a lossy restart.
[[nodiscard]] const char* reconvergenceBucket(long iters);

/// The backend-equivalence classification report: one line per scenario,
/// in scenario order —
///
///   app|mode|schedule|kind|failures=N|restored_to=N|reconv=<bucket>
///
/// with reconvergence bucketed (reconvergenceBucket) so lossy restarts
/// compare on the paper-relevant magnitude rather than the exact count.
/// Deliberately omits every wall- or detail-dependent field (restore_ms,
/// total_ms, exception texts, first_divergent_iteration): a Simulated and
/// a Threads sweep of the same corpus must produce byte-identical
/// reports, and the backend_equivalence_test asserts exactly that.
[[nodiscard]] std::string classificationReport(const SweepResult& result);

/// One Chrome-trace lane per scenario that captured spans: pid is the
/// 1-based scenario index, the lane name is "<app> <schedule>", and tids
/// within the lane are the emitting places. Empty when the sweep ran
/// without captureTraces.
[[nodiscard]] std::vector<obs::TraceLane> traceLanes(
    const SweepResult& result);

/// Chrome trace-event JSON for the whole sweep (load in Perfetto or
/// chrome://tracing). Lanes are folded in scenario-index order.
void writeChromeTrace(const SweepResult& result, std::ostream& os);
[[nodiscard]] std::string toChromeTraceJson(const SweepResult& result);

/// All scenario metrics registries folded in scenario-index order
/// (counters add up, histograms merge bucket-wise), written as the
/// MetricsRegistry JSON document.
void writeMetricsJson(const SweepResult& result, std::ostream& os);
[[nodiscard]] std::string toMetricsJson(const SweepResult& result);

/// Standalone forensic artifact for --flight-out:
///
/// {"flight_report": {"backend": "...",
///    "scenarios": [ { "app": "...", "mode": "...", "schedule": "...",
///                     "kind": "...", "flight": {"flight": {...}} } ]}}
///
/// One entry per scenario that captured a flight dump (Threads-backend
/// failures and Unrecoverable outcomes); each "flight" value is the
/// forensic-dump document verbatim, so tools/flight_report can analyze
/// any entry directly. Dumps carry wall-clock timestamps, so this file —
/// unlike the classification report — is NOT byte-stable run-to-run.
void writeFlightReport(const SweepResult& result, std::ostream& os);

/// Writes the members of one JSON object section.
using JsonMembers = std::function<void(obs::JsonWriter&)>;

/// The wrapper every BENCH_*.json perf artifact shares, one member per
/// line and a trailing newline:
///
/// {"<name>": {"deterministic": {...}, "wall": {...}}}
///
/// `deterministic` and `wall` write the members of their sections.
/// Everything under "deterministic" must be byte-identical run-to-run
/// (tools/perf_gate diffs it exactly against baselines/); "wall" is
/// machine-dependent.
void writeBenchJson(std::ostream& os, std::string_view name,
                    const JsonMembers& deterministic,
                    const JsonMembers& wall);

/// BENCH_*.json perf artifact, split for the perf gate:
///
/// {"chaos_sweep_bench": {
///    "deterministic": { scenario/outcome counts, simulated totals,
///                       worst_restore_ms, "metrics": {...} when the
///                       sweep captured traces },
///    "wall":          { "jobs": N, "wall_seconds": x,
///                       "scenarios_per_sec": x }}}
///
/// Everything under "deterministic" derives from simulated time only and
/// must be byte-identical run-to-run; "wall" is machine-dependent and is
/// ignored by baselines/tolerances.json.
void writeBenchSummary(const SweepResult& result, std::ostream& os);

}  // namespace rgml::harness
