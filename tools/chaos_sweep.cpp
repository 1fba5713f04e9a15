// chaos_sweep: exhaustive fault-space exploration from the command line.
//
// Enumerates {kill point} x {victim} x {restore mode} x {app} fault
// schedules, runs each through the ResilientExecutor, compares against a
// golden no-failure run, shrinks failing schedules to minimal reproducers
// and writes a machine-readable JSON report.
//
// Usage:
//   chaos_sweep --app linreg --modes all --iters 12
//   chaos_sweep --app all --modes shrink,replace-elastic --midstep
//               --pairs --victims all --jobs 8 --out report.json
//
// Scenarios fan out across --jobs worker threads (default: all hardware
// threads), each simulating its fault schedule in a private thread-local
// world. The JSON report is byte-identical at any job count; wall-clock
// throughput goes to stdout and to the BENCH_sweep.json artifact.
//
// Exit status: 0 when every scenario converged to the golden result,
// 1 when any scenario failed (divergence / non-termination / leak /
// executor error), 2 on usage errors.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/job_pool.h"
#include "harness/report.h"
#include "harness/sweeper.h"

namespace {

using rgml::harness::AppKind;
using rgml::harness::ChaosSweeper;
using rgml::harness::SweepOptions;
namespace cli = rgml::harness::cli;

/// "a|b|c" from the toString() names of `items`, so the help lists
/// exactly what the parsers accept.
template <typename T>
std::string joinNames(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += '|';
    out += toString(item);
  }
  return out;
}

void usage(std::ostream& os) {
  std::vector<rgml::framework::RestoreMode> modes =
      rgml::harness::allRestoreModes();
  modes.push_back(rgml::framework::RestoreMode::AlgorithmBased);
  os << "chaos_sweep — fault-space sweeper with golden-result divergence "
        "checking\n\n"
        "  --app K       comma list of "
     << joinNames(rgml::harness::allAppKinds())
     << ",\n"
        "                or all (default linreg)\n"
        "  --modes M     comma list of\n"
        "                "
     << joinNames(modes)
     << ",\n"
        "                or all (default all: every mode but "
     << toString(rgml::framework::RestoreMode::AlgorithmBased)
     << ",\n"
        "                which only the Krylov apps implement)\n"
        "  --iters N     iterations per run (default 12)\n"
        "  --places N    working places incl. place 0 (default 6)\n"
        "  --spares N    spare places for replace-redundant (default 2)\n"
        "  --interval N  checkpoint interval (default 4)\n"
        "  --victims V   all | sample (default all)\n"
        "  --midstep     add mid-step killAtDispatch points\n"
        "  --pairs       add two-kill schedules\n"
        "  --replication K  snapshot copies per entry (default 2; any K-1\n"
        "                simultaneous failures between checkpoints are\n"
        "                survivable, K overlapping ones cleanly fatal)\n"
        "  --simul M     add M-adjacent-victim simultaneous-kill schedules\n"
        "                (M >= 2)\n"
        "  --restore-kills  add kill-during-restore schedules (a second\n"
        "                kill fired at the start of the restore attempt)\n"
        "  --ckpt-mode M full|readonly|delta|lossy|delta-lossy checkpoint\n"
        "                mode for every scenario (default delta). Lossy\n"
        "                modes classify against the golden result within\n"
        "                --lossy-tol and report iterations-to-reconverge\n"
        "  --lossy-eb X  absolute error bound for the lossy codec\n"
        "                (default 0 = lossless compression only)\n"
        "  --lossy-tol X golden tolerance for lossy-restored runs\n"
        "                (default 1e-3)\n"
        "  --tol X       divergence tolerance (default 1e-6)\n"
        "  --backend B   simulated | threads execution backend for the\n"
        "                scenario runs (default simulated). The golden\n"
        "                oracle always runs simulated; with threads the\n"
        "                --jobs fan-out is clamped to the machine's thread\n"
        "                budget (RGML_JOBS overrides)\n"
        "  --jobs N      worker threads (default: hardware threads; the\n"
        "                report is byte-identical at any job count)\n"
        "  --out FILE    JSON report path (default chaos_report.json)\n"
        "  --bench-out FILE  wall-clock/throughput artifact\n"
        "                (default BENCH_sweep.json; 'none' to skip)\n"
        "  --trace-out FILE  capture per-scenario span traces and write a\n"
        "                Chrome trace-event JSON (open in Perfetto or\n"
        "                chrome://tracing); also attaches trace tails to\n"
        "                divergence entries in the report\n"
        "  --metrics-out FILE  write folded counters/histograms JSON\n"
        "                (implies trace capture)\n"
        "  --flight-out FILE  write the flight-recorder forensic bundle\n"
        "                (threads backend only: one entry per failed or\n"
        "                unrecoverable scenario with its last-N events per\n"
        "                thread, queue-depth series and stall verdicts;\n"
        "                analyze with tools/flight_report)\n"
        "  --no-shrink   skip minimal-reproducer shrinking\n";
}

std::vector<std::string> splitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opt;
  opt.jobs = rgml::harness::defaultJobCount();
  std::string outPath = "chaos_report.json";
  std::string benchOutPath = "BENCH_sweep.json";
  std::string traceOutPath;
  std::string metricsOutPath;
  std::string flightOutPath;

  auto needValue = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires a value\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--app") {
      const std::string v = needValue(i);
      opt.apps.clear();
      if (v == "all") {
        opt.apps = rgml::harness::allAppKinds();
      } else {
        for (const std::string& name : splitCommas(v)) {
          AppKind kind;
          if (!rgml::harness::parseAppKind(name, kind)) {
            std::cerr << "unknown app: " << name << '\n';
            return 2;
          }
          opt.apps.push_back(kind);
        }
      }
    } else if (arg == "--modes") {
      const std::string v = needValue(i);
      if (v != "all") {
        opt.modes.clear();
        for (const std::string& name : splitCommas(v)) {
          rgml::framework::RestoreMode mode;
          if (!rgml::harness::parseRestoreMode(name, mode)) {
            std::cerr << "unknown mode: " << name << '\n';
            return 2;
          }
          opt.modes.push_back(mode);
        }
      }
    } else if (arg == "--iters") {
      opt.iterations = cli::requireLong("--iters", needValue(i));
    } else if (arg == "--places") {
      opt.places =
          static_cast<std::size_t>(cli::requireLong("--places", needValue(i)));
    } else if (arg == "--spares") {
      opt.spares =
          static_cast<std::size_t>(cli::requireLong("--spares", needValue(i)));
    } else if (arg == "--interval") {
      opt.checkpointInterval = cli::requireLong("--interval", needValue(i));
    } else if (arg == "--victims") {
      opt.allVictims = std::string(needValue(i)) == "all";
    } else if (arg == "--midstep") {
      opt.midStepKills = true;
    } else if (arg == "--pairs") {
      opt.pairKills = true;
    } else if (arg == "--replication") {
      const long k = cli::requireLong("--replication", needValue(i));
      if (k < 1) {
        std::cerr << "--replication must be >= 1\n";
        return 2;
      }
      opt.replication = static_cast<int>(k);
    } else if (arg == "--simul") {
      const long m = cli::requireLong("--simul", needValue(i));
      if (m < 2) {
        std::cerr << "--simul must be >= 2\n";
        return 2;
      }
      opt.simultaneousKills = static_cast<std::size_t>(m);
    } else if (arg == "--ckpt-mode") {
      const std::string v = needValue(i);
      if (v == "full") {
        opt.checkpointMode = rgml::resilient::CheckpointMode::Full;
      } else if (v == "readonly") {
        opt.checkpointMode = rgml::resilient::CheckpointMode::ReadOnlyReuse;
      } else if (v == "delta") {
        opt.checkpointMode = rgml::resilient::CheckpointMode::Delta;
      } else if (v == "lossy") {
        opt.checkpointMode = rgml::resilient::CheckpointMode::Lossy;
      } else if (v == "delta-lossy") {
        opt.checkpointMode = rgml::resilient::CheckpointMode::DeltaLossy;
      } else {
        std::cerr << "unknown checkpoint mode: " << v << '\n';
        return 2;
      }
    } else if (arg == "--lossy-eb") {
      opt.lossyErrorBound = cli::requireDouble("--lossy-eb", needValue(i));
    } else if (arg == "--lossy-tol") {
      opt.lossyTolerance = cli::requireDouble("--lossy-tol", needValue(i));
    } else if (arg == "--restore-kills") {
      opt.restoreKills = true;
    } else if (arg == "--tol") {
      opt.tolerance = cli::requireDouble("--tol", needValue(i));
    } else if (arg == "--backend") {
      const std::string v = needValue(i);
      if (!rgml::apgas::parseBackend(v, opt.backend)) {
        std::cerr << "unknown backend: " << v << '\n';
        return 2;
      }
    } else if (arg == "--jobs") {
      const long jobs = cli::requireLong("--jobs", needValue(i));
      if (jobs < 1) {
        std::cerr << "--jobs must be >= 1\n";
        return 2;
      }
      opt.jobs = static_cast<std::size_t>(jobs);
    } else if (arg == "--out") {
      outPath = needValue(i);
    } else if (arg == "--bench-out") {
      benchOutPath = needValue(i);
    } else if (arg == "--trace-out") {
      traceOutPath = needValue(i);
      opt.captureTraces = true;
    } else if (arg == "--metrics-out") {
      metricsOutPath = needValue(i);
      opt.captureTraces = true;
    } else if (arg == "--flight-out") {
      flightOutPath = needValue(i);
    } else if (arg == "--no-shrink") {
      opt.shrinkFailures = false;
    } else {
      std::cerr << "unknown argument: " << arg << "\n\n";
      usage(std::cerr);
      return 2;
    }
  }
  if (opt.iterations <= opt.checkpointInterval) {
    std::cerr << "--iters must exceed --interval (no recoverable kill "
                 "points otherwise)\n";
    return 2;
  }
  if (!flightOutPath.empty() &&
      opt.backend != rgml::apgas::Backend::Threads) {
    std::cerr << "--flight-out requires --backend threads (the simulated "
                 "backend has no flight recorder)\n";
    return 2;
  }

  // Open the report file before sweeping: a mistyped path should fail in
  // milliseconds, not after a multi-thousand-scenario run.
  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "cannot write " << outPath << '\n';
    return 2;
  }

  ChaosSweeper sweeper(opt);
  const rgml::harness::SweepResult result = sweeper.run();
  rgml::harness::writeJsonReport(result, out);

  if (!traceOutPath.empty()) {
    std::ofstream trace(traceOutPath);
    if (!trace) {
      std::cerr << "cannot write " << traceOutPath << '\n';
      return 2;
    }
    rgml::harness::writeChromeTrace(result, trace);
  }
  if (!metricsOutPath.empty()) {
    std::ofstream metrics(metricsOutPath);
    if (!metrics) {
      std::cerr << "cannot write " << metricsOutPath << '\n';
      return 2;
    }
    rgml::harness::writeMetricsJson(result, metrics);
  }
  if (!flightOutPath.empty()) {
    std::ofstream flight(flightOutPath);
    if (!flight) {
      std::cerr << "cannot write " << flightOutPath << '\n';
      return 2;
    }
    rgml::harness::writeFlightReport(result, flight);
  }

  // Perf trajectory artifact: a "deterministic" section (simulated facts
  // the perf gate diffs exactly) plus a "wall" section (the only
  // machine-dependent values; the gate's tolerances ignore them).
  if (benchOutPath != "none") {
    std::ofstream bench(benchOutPath);
    if (!bench) {
      std::cerr << "cannot write " << benchOutPath << '\n';
      return 2;
    }
    rgml::harness::writeBenchSummary(result, bench);
  }

  std::cout << rgml::harness::summarize(result) << '\n'
            << result.scenariosRun << " scenario(s) in " << result.wallSeconds
            << " s with " << result.jobsUsed << " job(s): "
            << result.scenariosPerSec << " scenarios/sec\n"
            << "report: " << outPath << '\n';
  return result.allOk() ? 0 : 1;
}
