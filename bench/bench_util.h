// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each figN_*/tableN_* binary replays one experiment of the paper's §VII
// and prints the same rows/series the paper reports. Times are simulated
// milliseconds from the APGAS cost model (see DESIGN.md §2); the
// reproduction target is the curve *shape*, not absolute numbers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apgas/cost_model.h"
#include "apgas/fault_injector.h"
#include "apgas/place_group.h"
#include "apgas/runtime.h"
#include "apps/workloads.h"
#include "framework/resilient_executor.h"
#include "harness/cli.h"
#include "harness/job_pool.h"
#include "harness/report.h"
#include "obs/chrome_trace.h"
#include "obs/trace_sink.h"

namespace rgml::bench {

// ---- multi-core sweep plumbing -------------------------------------------
// Every fig/table/ablation driver sweeps *independent* configurations
// (place counts, modes, intervals): each data point re-initialises its
// own simulated world, so with thread-local runtimes the points can run
// on all cores. Rows are computed into index slots and printed in order —
// output is byte-identical to the serial loop at any job count.

/// Worker threads for a bench driver: `--jobs N` argument, else the
/// RGML_JOBS environment variable, else all hardware threads. A `--jobs`
/// value that is missing, not a whole number or below 1 exits 2 with a
/// message naming the flag.
inline std::size_t benchJobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) continue;
    const long n =
        harness::cli::requireLong("--jobs", i + 1 < argc ? argv[i + 1] : "");
    if (n < 1) {
      std::fprintf(stderr, "--jobs must be >= 1\n");
      std::exit(2);
    }
    return static_cast<std::size_t>(n);
  }
  if (const char* env = std::getenv("RGML_JOBS")) {
    const long n = std::atol(env);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  return harness::defaultJobCount();
}

/// The host's MemAvailable from /proc/meminfo in bytes, or 0 when it
/// cannot be read.
inline std::uint64_t availableMemoryBytes() {
  std::ifstream in("/proc/meminfo");
  std::string line;
  constexpr std::string_view kKey = "MemAvailable:";
  while (std::getline(in, line)) {
    if (line.rfind(kKey, 0) == 0) {
      return std::strtoull(line.c_str() + kKey.size(), nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// `jobs` capped for sweep rows that each hold up to `rowBytes` at once:
/// as many of the largest rows as fit in half the host's available memory
/// run together, leaving the other half to the rest of the host. At least
/// one; exactly one when the available memory cannot be read.
inline std::size_t jobsWithinMemory(std::size_t jobs,
                                    std::uint64_t rowBytes) {
  const std::uint64_t fit =
      availableMemoryBytes() / 2 / std::max<std::uint64_t>(rowBytes, 1);
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(fit, 1, jobs));
}

/// The argument after `flag` (e.g. "--bench-out"), or `dflt` when the
/// flag is absent.
inline std::string benchFlag(int argc, char** argv, const char* flag,
                             std::string dflt) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return dflt;
}

/// --trace-out FILE argument for a bench driver; empty = tracing off.
inline std::string benchTraceOut(int argc, char** argv) {
  return benchFlag(argc, argv, "--trace-out", {});
}

/// --metrics-out FILE argument; empty = metrics export off.
inline std::string benchMetricsOut(int argc, char** argv) {
  return benchFlag(argc, argv, "--metrics-out", {});
}

/// --bench-out FILE argument, else `dflt`; the value "none" means the
/// driver writes no BENCH file.
inline std::string benchOut(int argc, char** argv, std::string dflt) {
  return benchFlag(argc, argv, "--bench-out", std::move(dflt));
}

/// Write the BENCH_*.json artifact `path` (harness::writeBenchJson's
/// {"<name>": {"deterministic": {...}, "wall": {...}}} wrapper). Prints
/// "cannot write PATH" and returns false when the file cannot be opened.
inline bool writeBenchFile(const std::string& path, std::string_view name,
                           const harness::JsonMembers& deterministic,
                           const harness::JsonMembers& wall) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  harness::writeBenchJson(os, name, deterministic, wall);
  return true;
}

/// Per-driver capture for --trace-out / --metrics-out: each traced() call
/// installs a fresh TraceSink around one measured run and banks the
/// captured spans as one Chrome-trace lane plus the run's metrics
/// registry. Runs may execute concurrently on sweepRows workers (the
/// banks are mutex-guarded); write() sorts lanes by name and folds the
/// registries in that same order, so both exported files are identical
/// at any job count — give each run a unique, sortable name (e.g.
/// "linreg p08 shrink").
class BenchTracer {
 public:
  explicit BenchTracer(std::string tracePath, std::string metricsPath = {})
      : tracePath_(std::move(tracePath)),
        metricsPath_(std::move(metricsPath)) {}

  [[nodiscard]] bool enabled() const noexcept {
    return !tracePath_.empty() || !metricsPath_.empty();
  }

  /// Run `fn` (returning non-void) with capture installed and bank the
  /// spans/metrics under `name`; with capture disabled, just runs `fn`.
  template <typename Fn>
  auto traced(const std::string& name, Fn&& fn) {
    if (!enabled()) return fn();
    obs::TraceSink sink;
    obs::SinkScope scope(&sink);
    auto result = fn();
    sink.abandonOpen(
        apgas::Runtime::initialized() ? apgas::Runtime::world().time() : 0.0);
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(obs::TraceLane{0, name, sink.takeSpans()});
    registries_.emplace_back(name, std::move(sink.metrics()));
    return result;
  }

  /// Write the banked capture — Chrome trace-event JSON when --trace-out
  /// was given, the folded MetricsRegistry JSON when --metrics-out was.
  /// Returns false when a file cannot be written.
  bool write() {
    if (!enabled()) return true;
    std::sort(lanes_.begin(), lanes_.end(),
              [](const obs::TraceLane& a, const obs::TraceLane& b) {
                return a.name < b.name;
              });
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i].pid = static_cast<int>(i) + 1;
    }
    if (!tracePath_.empty()) {
      std::ofstream os(tracePath_);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", tracePath_.c_str());
        return false;
      }
      obs::writeChromeTrace(lanes_, os);
      std::printf("# trace: %s (%zu lanes)\n", tracePath_.c_str(),
                  lanes_.size());
    }
    if (!metricsPath_.empty()) {
      std::sort(registries_.begin(), registries_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      obs::MetricsRegistry folded;
      for (const auto& [name, registry] : registries_) {
        folded.merge(registry);
      }
      std::ofstream os(metricsPath_);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", metricsPath_.c_str());
        return false;
      }
      folded.writeJson(os);
      std::printf("# metrics: %s (%zu runs folded)\n", metricsPath_.c_str(),
                  registries_.size());
    }
    return true;
  }

 private:
  std::string tracePath_;
  std::string metricsPath_;
  std::mutex mutex_;
  std::vector<obs::TraceLane> lanes_;
  std::vector<std::pair<std::string, obs::MetricsRegistry>> registries_;
};

/// Wall-clock milliseconds since `t0`.
inline double wallMs(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// printf into a std::string (rows are formatted off-thread, then printed
/// in index order by sweepRows).
inline std::string rowf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// Compute `n` independent rows — fn(i) returns the formatted row — on
/// `jobs` workers, each inside a private WorldGuard, and print them to
/// stdout in index order.
template <typename RowFn>
void sweepRows(std::size_t jobs, std::size_t n, RowFn&& fn) {
  std::vector<std::string> rows(n);
  harness::parallelFor(jobs, n, [&](std::size_t i) {
    apgas::WorldGuard guard;
    rows[i] = fn(i);
  });
  for (const std::string& row : rows) std::fputs(row.c_str(), stdout);
}

/// Time per iteration (simulated ms) of `makeAndRun` over `iterations`
/// steps, under the given finish mode.
template <typename App, typename Config>
double timePerIterationMs(const Config& config, int places,
                          bool resilientFinish) {
  apgas::Runtime::init(places, apgas::paperCalibratedCostModel(),
                       resilientFinish);
  App app(config, apgas::PlaceGroup::world());
  app.init();
  apgas::Runtime& rt = apgas::Runtime::world();
  const double t0 = rt.time();
  long iterations = 0;
  while (!app.isFinished()) {
    app.step();
    ++iterations;
  }
  return (rt.time() - t0) / static_cast<double>(iterations) * 1e3;
}

/// One run of the paper's restore experiment: `iterations` steps with a
/// checkpoint every `interval`, one place killed at iteration 15, under
/// the given restoration mode. Returns the executor stats.
template <typename ResilientApp, typename Config>
framework::RunStats runWithFailure(const Config& config, int places,
                                   framework::RestoreMode mode,
                                   long interval = 10,
                                   long failAtIteration = 15) {
  // Two spare places beyond the working group for replace-redundant.
  apgas::Runtime::init(places + 2, apgas::paperCalibratedCostModel(), true);
  auto pg = apgas::PlaceGroup::firstPlaces(static_cast<std::size_t>(places));
  ResilientApp app(config, pg);
  app.init();

  apgas::FaultInjector injector;
  // Kill a mid-group place (never place 0; paper assumes it immortal).
  injector.killOnIteration(failAtIteration, places / 2);

  framework::ExecutorConfig cfg;
  cfg.places = pg;
  cfg.spares = {places, places + 1};
  cfg.checkpointInterval = interval;
  cfg.mode = mode;
  framework::ResilientExecutor executor(cfg);
  return executor.run(app, &injector);
}

/// Total (simulated) seconds of a non-resilient, failure-free run — the
/// baseline series of Figs. 5-7.
template <typename App, typename Config>
double nonResilientTotalSeconds(const Config& config, int places) {
  apgas::Runtime::init(places, apgas::paperCalibratedCostModel(), false);
  App app(config, apgas::PlaceGroup::world());
  app.init();
  apgas::Runtime& rt = apgas::Runtime::world();
  const double t0 = rt.time();
  while (!app.isFinished()) app.step();
  return rt.time() - t0;
}

}  // namespace rgml::bench
