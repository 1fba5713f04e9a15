// Ablation: snapshot replication factor k.
//
// The paper's store keeps exactly two in-memory copies of every snapshot
// entry (primary + next place), which survives any single failure but
// loses data when a place and its ring neighbour die together. This
// ablation sweeps k in {2, 3, 4} on linreg and pagerank and reports the
// price and the payoff of each extra copy:
//
//   * replica MB/checkpoint — backup traffic fanned out per checkpoint
//     (the snapshot.replica_bytes counter: k-1 remote copies per entry);
//   * checkpoint ms         — steady-state simulated checkpoint time;
//   * survives k-1 kills    — an adjacent run of k-1 places killed in the
//     same instant, the worst case for ring placement: must recover;
//   * fatal at k kills      — one more simultaneous victim wipes every
//     replica of some entry: must fail cleanly (UnrecoverableError).
//
// Emits BENCH_replication.json for tools/perf_gate: the "deterministic"
// section holds simulated facts the gate diffs exactly; "wall" holds the
// machine-dependent fields its tolerances ignore.
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "apgas/exceptions.h"
#include "apgas/fault_injector.h"
#include "apps/linreg_resilient.h"
#include "apps/pagerank_resilient.h"
#include "apps/workloads.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
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

constexpr int kPlaces = 6;
constexpr long kIterations = 12;
constexpr long kInterval = 4;
constexpr long kCheckpoints = 3;
constexpr long kStepsBetween = 2;

struct Cell {
  std::string app;
  int k = 2;
  double replicaMBPerCkpt = 0.0;  ///< backup bytes fanned out per checkpoint
  double payloadMBPerCkpt = 0.0;  ///< fresh payload (k-independent control)
  double checkpointMs = 0.0;      ///< mean simulated checkpoint time
  int survivesKMinus1 = 0;        ///< adjacent run of k-1 simultaneous kills
  int fatalAtK = 0;               ///< run of k kills fails cleanly
};

/// Checkpoint-cost leg: three full-mode checkpoints with real steps in
/// between (full mode isolates the replication overhead — the delta path
/// would hide it behind carried entries).
template <typename ResilientApp, typename Config>
void measureCheckpointCost(const Config& config, int k, Cell& cell) {
  Runtime::init(kPlaces, rgml::apgas::paperCalibratedCostModel(), true);
  ResilientApp app(config, PlaceGroup::world());
  app.init();
  Runtime& rt = Runtime::world();
  AppResilientStore store;
  store.setMode(CheckpointMode::Full);
  store.setReplication(k);

  rgml::obs::TraceSink sink;
  rgml::obs::SinkScope scope(&sink);
  double totalMs = 0.0;
  std::uint64_t payload = 0;
  for (long c = 1; c <= kCheckpoints; ++c) {
    for (long s = 0; s < kStepsBetween; ++s) app.step();
    const double t0 = rt.time();
    store.setIteration(c * kStepsBetween);
    app.checkpoint(store);
    totalMs += (rt.time() - t0) * 1e3;
    payload += store.lastCheckpointStats().freshBytes;
  }
  const auto replicaBytes = sink.metrics().counter("snapshot.replica_bytes");
  cell.replicaMBPerCkpt =
      static_cast<double>(replicaBytes) / 1e6 / kCheckpoints;
  cell.payloadMBPerCkpt = static_cast<double>(payload) / 1e6 / kCheckpoints;
  cell.checkpointMs = totalMs / kCheckpoints;
}

/// Survival leg: `kills` adjacent places die in the same instant, one
/// checkpoint interval into the run. Returns whether the executor
/// recovered and completed every iteration; a clean UnrecoverableError
/// counts as not-survived (anything else propagates — a divergence or
/// hang here is a bug, not a data point).
template <typename ResilientApp, typename Config>
bool runWithSimultaneousKills(Config config, int k, int kills) {
  config.iterations = kIterations;
  Runtime::init(kPlaces, rgml::apgas::paperCalibratedCostModel(), true);
  ResilientApp app(config, PlaceGroup::world());
  app.init();

  FaultInjector injector;
  for (int d = 0; d < kills; ++d) {
    injector.killOnIteration(kInterval + 2, 1 + d);
  }

  ExecutorConfig cfg;
  cfg.places = PlaceGroup::world();
  cfg.checkpointInterval = kInterval;
  cfg.mode = RestoreMode::Shrink;
  cfg.replication = k;
  ResilientExecutor executor(cfg);
  try {
    const auto stats = executor.run(app, &injector);
    return stats.iterationsCompleted == kIterations;
  } catch (const rgml::apgas::UnrecoverableError&) {
    return false;
  }
}

template <typename ResilientApp, typename Config>
Cell measureCell(const char* name, const Config& config, int k) {
  Cell cell;
  cell.app = name;
  cell.k = k;
  measureCheckpointCost<ResilientApp>(config, k, cell);
  cell.survivesKMinus1 =
      runWithSimultaneousKills<ResilientApp>(config, k, k - 1) ? 1 : 0;
  cell.fatalAtK =
      runWithSimultaneousKills<ResilientApp>(config, k, k) ? 0 : 1;
  return cell;
}

bool writeBench(const std::string& path, const std::vector<Cell>& cells,
                std::size_t jobs, double wallSeconds) {
  return rgml::bench::writeBenchFile(
      path, "replication_ablation",
      [&](rgml::obs::JsonWriter& w) {
        for (const Cell& c : cells) {
          w.key(c.app + ".k" + std::to_string(c.k))
              .beginObject(rgml::obs::JsonWriter::Layout::Lines)
              .member("replica_mb_per_checkpoint", c.replicaMBPerCkpt)
              .member("payload_mb_per_checkpoint", c.payloadMBPerCkpt)
              .member("checkpoint_ms", c.checkpointMs)
              .member("survives_k_minus_1_simultaneous_kills",
                      c.survivesKMinus1)
              .member("fatal_at_k_simultaneous_kills", c.fatalAtK)
              .end();
        }
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

  const int ks[] = {2, 3, 4};
  std::vector<Cell> cells(6);
  harness::parallelFor(jobs, cells.size(), [&](std::size_t i) {
    apgas::WorldGuard guard;
    const int k = ks[i % 3];
    if (i < 3) {
      cells[i] = measureCell<apps::LinRegResilient>("linreg", linreg, k);
    } else {
      cells[i] =
          measureCell<apps::PageRankResilient>("pagerank", pagerank, k);
    }
  });

  std::printf("# Replication-factor ablation, %d places, interval %ld, "
              "%ld checkpoints (full mode)\n",
              kPlaces, kInterval, kCheckpoints);
  std::printf("%-9s %3s %11s %11s %8s %10s %8s\n", "app", "k", "replica-MB",
              "payload-MB", "ckpt-ms", "lives(k-1)", "dies(k)");
  for (const Cell& c : cells) {
    std::printf("%-9s %3d %11.2f %11.2f %8.2f %10s %8s\n", c.app.c_str(),
                c.k, c.replicaMBPerCkpt, c.payloadMBPerCkpt, c.checkpointMs,
                c.survivesKMinus1 ? "yes" : "NO",
                c.fatalAtK ? "yes" : "NO");
  }
  std::printf("# acceptance: every row survives k-1 adjacent simultaneous "
              "kills and dies cleanly at k; replica bytes grow ~(k-1)x the "
              "payload\n");

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const std::string out =
      bench::benchOut(argc, argv, "BENCH_replication.json");
  if (out != "none" && !writeBench(out, cells, jobs, wallSeconds)) return 1;

  for (const Cell& c : cells) {
    if (!c.survivesKMinus1 || !c.fatalAtK) return 1;
  }
  return 0;
}
