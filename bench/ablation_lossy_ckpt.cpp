// Ablation: lossy/compressed checkpointing (CheckpointMode::Lossy).
//
// The paper's store ships every snapshot entry raw; the lossy modes
// quantize mutable state to a configurable absolute error bound and
// varint-compress the quanta, trading checkpoint volume for a bounded
// restart error the solver must iterate away. This ablation sweeps the
// four checkpoint modes (full / delta / lossy / delta+lossy) on linreg
// and pagerank and reports the price and the payoff of the codec:
//
//   * fresh MB/checkpoint — steady-state wire bytes shipped per
//     checkpoint (checkpoints after the first, with real steps between,
//     so the delta carry and the codec both engage);
//   * stored MB           — committed snapshot footprint;
//   * checkpoint ms       — steady-state simulated checkpoint time;
//   * reconverge          — extra iterations after a mid-run kill and
//     restart for the convergence metric to return to the failure-free
//     run's final level (0 for the exact modes by construction);
//   * recovered           — the killed run completed every iteration.
//
// Emits BENCH_lossy.json for tools/perf_gate: the "deterministic"
// section holds simulated facts the gate diffs exactly (reconvergence
// counts live under their own "reconverge" subtree so the tolerance
// file can bound their drift); "wall" holds the machine-dependent
// fields its tolerances ignore. The codec's wall-clock timing
// (snapshot.codec_seconds) is deliberately NOT exported here — it is
// nondeterministic and would break the exact diff.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "apgas/fault_injector.h"
#include "apps/linreg_resilient.h"
#include "apps/pagerank_resilient.h"
#include "apps/workloads.h"
#include "bench_util.h"
#include "resilient/app_resilient_store.h"

namespace {

using rgml::apgas::FaultInjector;
using rgml::apgas::PlaceGroup;
using rgml::apgas::Runtime;
using rgml::framework::ExecutorConfig;
using rgml::framework::ResilientExecutor;
using rgml::framework::RestoreMode;
using rgml::resilient::AppResilientStore;
using rgml::resilient::CheckpointMode;
using rgml::resilient::LossyConfig;

constexpr int kPlaces = 6;
constexpr long kIterations = 12;
constexpr long kInterval = 4;
constexpr long kCheckpoints = 3;
constexpr long kStepsBetween = 2;
constexpr double kErrorBound = 1e-6;
/// Relative slack on the golden convergence metric the restarted run
/// must get back under (mirrors the chaos sweeper's lossy tolerance).
constexpr double kReconvergeTol = 1e-8;

const CheckpointMode kModes[] = {CheckpointMode::Full, CheckpointMode::Delta,
                                 CheckpointMode::Lossy,
                                 CheckpointMode::DeltaLossy};

struct Cell {
  std::string app;
  CheckpointMode mode = CheckpointMode::Full;
  double freshMBPerCkpt = 0.0;  ///< steady-state wire bytes shipped
  double storedMB = 0.0;        ///< committed snapshot footprint
  double checkpointMs = 0.0;    ///< steady-state simulated checkpoint time
  long reconverge = -1;         ///< extra iterations back to golden level
  int recovered = 0;            ///< killed run completed all iterations
};

LossyConfig lossyConfigFor(CheckpointMode mode) {
  LossyConfig cfg;
  cfg.errorBound = rgml::resilient::usesLossy(mode) ? kErrorBound : 0.0;
  return cfg;
}

/// Checkpoint-cost leg: kCheckpoints checkpoints with real steps in
/// between; the steady-state columns average the checkpoints after the
/// first, where the delta carry-forward and the codec both engage.
template <typename ResilientApp, typename Config>
void measureCheckpointCost(const Config& config, CheckpointMode mode,
                           Cell& cell) {
  Runtime::init(kPlaces, rgml::apgas::paperCalibratedCostModel(), true);
  ResilientApp app(config, PlaceGroup::world());
  app.init();
  Runtime& rt = Runtime::world();
  AppResilientStore store;
  store.setMode(mode);
  store.setLossyConfig(lossyConfigFor(mode));

  double steadyMs = 0.0;
  std::uint64_t steadyFresh = 0;
  for (long c = 1; c <= kCheckpoints; ++c) {
    for (long s = 0; s < kStepsBetween; ++s) app.step();
    const double t0 = rt.time();
    store.setIteration(c * kStepsBetween);
    app.checkpoint(store);
    if (c > 1) {
      steadyMs += (rt.time() - t0) * 1e3;
      steadyFresh += store.lastCheckpointStats().freshBytes;
    }
  }
  const double steadyCkpts = static_cast<double>(kCheckpoints - 1);
  cell.freshMBPerCkpt = static_cast<double>(steadyFresh) / 1e6 / steadyCkpts;
  cell.storedMB = static_cast<double>(store.committedBytes()) / 1e6;
  cell.checkpointMs = steadyMs / steadyCkpts;
}

/// Reconvergence leg: a failure-free run fixes the golden convergence
/// level, then the same run is killed mid-interval and restarted from
/// the (possibly lossy) snapshot. After the executor completes, count
/// the extra iterations needed to get the convergence metric back under
/// golden + tolerance. Exact modes restore bit-identical state, so they
/// reconverge in 0 extra iterations by construction.
template <typename ResilientApp, typename Config>
void measureReconvergence(Config config, CheckpointMode mode, Cell& cell) {
  config.iterations = kIterations;

  Runtime::init(kPlaces, rgml::apgas::paperCalibratedCostModel(), true);
  ResilientApp golden(config, PlaceGroup::world());
  golden.init();
  while (!golden.isFinished()) golden.step();
  const double goldenMetric = golden.convergenceMetric();

  Runtime::init(kPlaces, rgml::apgas::paperCalibratedCostModel(), true);
  ResilientApp app(config, PlaceGroup::world());
  app.init();

  FaultInjector injector;
  injector.killOnIteration(kInterval + 2, 1);

  ExecutorConfig cfg;
  cfg.places = PlaceGroup::world();
  cfg.checkpointInterval = kInterval;
  cfg.mode = RestoreMode::Shrink;
  cfg.checkpointMode = mode;
  cfg.lossy = lossyConfigFor(mode);
  ResilientExecutor executor(cfg);
  const auto stats = executor.run(app, &injector);
  if (stats.iterationsCompleted != kIterations) return;
  cell.recovered = 1;

  const double target =
      goldenMetric + kReconvergeTol * std::max(1.0, std::abs(goldenMetric));
  const long budget = 4 * kIterations + 64;
  long extra = 0;
  while (app.convergenceMetric() > target && extra < budget) {
    app.step();
    ++extra;
  }
  if (app.convergenceMetric() <= target) cell.reconverge = extra;
}

template <typename ResilientApp, typename Config>
Cell measureCell(const char* name, const Config& config, CheckpointMode mode) {
  Cell cell;
  cell.app = name;
  cell.mode = mode;
  measureCheckpointCost<ResilientApp>(config, mode, cell);
  measureReconvergence<ResilientApp>(config, mode, cell);
  return cell;
}

std::string cellKey(const Cell& c) {
  return c.app + "." + rgml::resilient::toString(c.mode);
}

bool writeBench(const std::string& path, const std::vector<Cell>& cells,
                std::size_t jobs, double wallSeconds) {
  using Layout = rgml::obs::JsonWriter::Layout;
  return rgml::bench::writeBenchFile(
      path, "lossy_ablation",
      [&](rgml::obs::JsonWriter& w) {
        for (const Cell& c : cells) {
          w.key(cellKey(c))
              .beginObject(Layout::Lines)
              .member("fresh_mb_per_checkpoint", c.freshMBPerCkpt)
              .member("stored_mb", c.storedMB)
              .member("checkpoint_ms", c.checkpointMs)
              .member("recovered", c.recovered)
              .end();
        }
        w.key("reconverge").beginObject(Layout::Lines);
        for (const Cell& c : cells) w.member(cellKey(c), c.reconverge);
        w.end();
      },
      [&](rgml::obs::JsonWriter& w) {
        w.member("jobs", jobs).member("wall_seconds", wallSeconds);
      });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rgml;
  const auto wall0 = std::chrono::steady_clock::now();
  const std::size_t jobs = bench::benchJobs(argc, argv);

  auto linreg = apps::benchLinRegConfig();
  linreg.features = 50;
  linreg.rowsPerPlace = 2000;
  auto pagerank = apps::benchPageRankConfig();
  pagerank.pagesPerPlace = 2000;

  constexpr std::size_t kModeCount = std::size(kModes);
  std::vector<Cell> cells(2 * kModeCount);
  harness::parallelFor(jobs, cells.size(), [&](std::size_t i) {
    apgas::WorldGuard guard;
    const CheckpointMode mode = kModes[i % kModeCount];
    if (i < kModeCount) {
      cells[i] = measureCell<apps::LinRegResilient>("linreg", linreg, mode);
    } else {
      cells[i] =
          measureCell<apps::PageRankResilient>("pagerank", pagerank, mode);
    }
  });

  std::printf("# Lossy-checkpoint ablation, %d places, interval %ld, "
              "%ld checkpoints, error bound %g\n",
              kPlaces, kInterval, kCheckpoints, kErrorBound);
  std::printf("%-9s %-11s %9s %10s %8s %9s %9s\n", "app", "mode", "fresh-MB",
              "stored-MB", "ckpt-ms", "reconv", "recovered");
  for (const Cell& c : cells) {
    std::printf("%-9s %-11s %9.3f %10.3f %8.2f %9ld %9s\n", c.app.c_str(),
                resilient::toString(c.mode), c.freshMBPerCkpt, c.storedMB,
                c.checkpointMs, c.reconverge, c.recovered ? "yes" : "NO");
  }
  std::printf("# acceptance: every killed run recovers and reconverges; "
              "lossy or delta+lossy ships fewer steady-state fresh bytes "
              "than delta alone on at least one app\n");

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const std::string out = bench::benchOut(argc, argv, "BENCH_lossy.json");
  if (out != "none" && !writeBench(out, cells, jobs, wallSeconds)) return 1;

  bool lossyWinsSomewhere = false;
  for (std::size_t base = 0; base < cells.size(); base += kModeCount) {
    const double delta = cells[base + 1].freshMBPerCkpt;
    const double bestLossy = std::min(cells[base + 2].freshMBPerCkpt,
                                      cells[base + 3].freshMBPerCkpt);
    lossyWinsSomewhere = lossyWinsSomewhere || bestLossy < delta;
  }
  bool ok = lossyWinsSomewhere;
  for (const Cell& c : cells) {
    if (!c.recovered || c.reconverge < 0) ok = false;
  }
  return ok ? 0 : 1;
}
