// flight_report: analyze flight-recorder forensic dumps.
//
// Input files are any of:
//   * a standalone forensic dump   {"flight": {...}}
//     (bench_flight --flight-out, or Runtime::flightDump() saved to disk);
//   * a chaos_sweep --flight-out bundle  {"flight_report": {...}}
//     (each failed scenario's dump is analyzed in turn).
//
// One file: per-queue finish ack-wait and dequeue-latency percentiles,
// queue-depth statistics from the watchdog samples, and stall verdicts.
// Several files: the same per file, followed by the place-0 vs others
// finish-serialisation curve across their place counts (e.g. the
// P=1/2/4/8 artifacts from bench_flight).
//
// Usage:
//   flight_report dump.json
//   flight_report --json dump.json            # {"flight_analysis": ...}
//   flight_report flight_p1.json flight_p2.json flight_p4.json
//                 flight_p8.json              # adds the curve table
//
// Exit status: 0 on success, 2 on usage/parse errors.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "obs/analysis/flight_report.h"
#include "obs/analysis/json.h"

namespace {

using rgml::obs::analysis::FinishCurvePoint;
using rgml::obs::analysis::FlightAnalysis;
using rgml::obs::analysis::JsonValue;

void usage(std::ostream& os) {
  os << "flight_report — analyze flight-recorder forensic dumps\n\n"
        "  flight_report [--json] FILE [FILE...]\n\n"
        "  FILE          a {\"flight\": ...} forensic dump, or a\n"
        "                chaos_sweep --flight-out {\"flight_report\": ...}\n"
        "                bundle (every scenario entry is analyzed)\n"
        "  --json        machine-readable {\"flight_analysis\": ...} output\n"
        "                (single dump per file only)\n\n"
        "With several files the place-0 vs others finish-serialisation\n"
        "curve is printed across their place counts.\n";
}

struct NamedAnalysis {
  std::string name;  ///< "file" or "file#scenario-label"
  FlightAnalysis analysis;
};

/// Analyze every dump in `file`: one for a standalone forensic document,
/// one per scenario entry for a chaos_sweep bundle.
std::vector<NamedAnalysis> analyzeFile(const std::string& file) {
  const JsonValue root = JsonValue::parseFile(file);
  std::vector<NamedAnalysis> out;
  if (const JsonValue* bundle = root.find("flight_report")) {
    for (const JsonValue& scenario : bundle->at("scenarios").items()) {
      const std::string label = scenario.at("app").asString() + " " +
                                scenario.at("schedule").asString() + " [" +
                                scenario.at("kind").asString() + "]";
      out.push_back(NamedAnalysis{
          file + " # " + label,
          rgml::obs::analysis::analyzeFlight(scenario.at("flight"))});
    }
    return out;
  }
  out.push_back(NamedAnalysis{file, rgml::obs::analysis::analyzeFlight(root)});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonOut = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--json") {
      jsonOut = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown argument: " << arg << "\n\n";
      usage(std::cerr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    usage(std::cerr);
    return 2;
  }

  std::vector<NamedAnalysis> analyses;
  try {
    for (const std::string& file : files) {
      auto fromFile = analyzeFile(file);
      analyses.insert(analyses.end(),
                      std::make_move_iterator(fromFile.begin()),
                      std::make_move_iterator(fromFile.end()));
    }
  } catch (const std::exception& e) {
    std::cerr << "flight_report: " << e.what() << '\n';
    return 2;
  }
  if (analyses.empty()) {
    std::cerr << "flight_report: no forensic dumps in the input (bundle "
                 "with zero failed scenarios?)\n";
    return 0;
  }

  if (jsonOut) {
    if (analyses.size() != 1) {
      std::cerr << "--json requires exactly one dump (got "
                << analyses.size() << ")\n";
      return 2;
    }
    rgml::obs::analysis::writeFlightAnalysisJson(analyses[0].analysis,
                                                 std::cout);
    return 0;
  }

  for (const NamedAnalysis& named : analyses) {
    if (analyses.size() > 1) std::cout << "== " << named.name << " ==\n";
    std::cout << rgml::obs::analysis::formatFlightAnalysis(named.analysis);
    if (analyses.size() > 1) std::cout << '\n';
  }

  if (analyses.size() > 1) {
    std::vector<FinishCurvePoint> curve;
    curve.reserve(analyses.size());
    for (const NamedAnalysis& named : analyses) {
      curve.push_back(rgml::obs::analysis::finishCurvePoint(named.analysis));
    }
    std::sort(curve.begin(), curve.end(),
              [](const FinishCurvePoint& a, const FinishCurvePoint& b) {
                return a.places < b.places;
              });
    std::cout << rgml::obs::analysis::formatFinishCurve(curve);
  }
  return 0;
}
