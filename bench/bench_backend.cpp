// bench_backend: wall-clock facts for the real-threads APGAS backend,
// checked against the simulator oracle and perf-gated.
//
// Writes BENCH_backend.json (--bench-out, default ./BENCH_backend.json):
//
// {"backend_bench": {
//    "deterministic": {            // gated exactly
//      "bookkeeping_per_finish_p<P>.simulated" / ".threads" / ".match",
//      "gemm_scaling_ok", "spmm_scaling_ok",   // >=1.5x from 1->4 place
//                                              // threads OR hw_threads<4
//      "restore.outcome", "restore.failures_handled",
//      "restore.restored_to", "restore.reconverge_bucket" },
//    "wall": {                     // machine-dependent; gate ignores it
//      "hw_threads", "gemm_ms_p1/2/4", "gemm_speedup_p2/4",
//      "gemm_median_ms_p1/4", "gemm_median_speedup_p4",
//      "spmm_ms_p1/2/4", "spmm_speedup_p2/4",
//      "spmm_median_ms_p1/4", "spmm_median_speedup_p4",
//      "finish_us_p<P>.plain" / ".resilient"  for P in {1,2,4,8},
//      "restore_ms", "total_ms" }}}
//
// Three experiments:
//  1. Kernel scaling — a row-partitioned gemm / spmm fanned out with
//     ateach over 1/2/4 places on the Threads backend. Real worker
//     threads, disjoint output slices; wall time should drop as places
//     are added when the hardware has the cores (the deterministic flag
//     encodes "speedup >= 1.5 OR hardware_concurrency < 4" so single-core
//     CI boxes gate the *facts*, multi-core boxes also gate the scaling).
//     Each world first runs about a second of untimed fan-outs; the
//     gemm_ms/spmm_ms fields and the gated speedups then use the fastest
//     of 20 timed fan-outs, and the *_median_* fields their median.
//  2. Finish overhead — repeated empty-task fan-outs per place count,
//     resilient on/off. The paper's Figs 2-4 bottleneck: in resilient
//     mode every finish routes Register/Spawn/Terminate/Ack bookkeeping
//     through one control point. The per-finish bookkeeping message count
//     must be identical on both backends (1 + 2*tasks + 1).
//  3. Fig5-style restore — LinReg, kill one place at iteration 12 of 20
//     (checkpoint interval 5) on the Threads backend, classified by the
//     chaos sweeper against its simulated golden run: the outcome facts
//     are deterministic, the restore/total wall times are the fig5
//     analogue measured on real threads.
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apgas/runtime.h"
#include "bench_util.h"
#include "harness/report.h"
#include "harness/sweeper.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace {

using namespace rgml;
using apgas::Backend;
using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::RuntimeConfig;

struct FanOutMs {
  double best = 0.0;    ///< the scaling verdict's estimator
  double median = 0.0;  ///< reported next to it, so typical drift shows
};

/// Wall ms of `reps` timed fan-outs of `body` over the first `places`
/// places of the current world, after about a second of untimed ones.
/// Fresh place threads start on their creator's vCPU and the guest takes
/// about that long to spread them, so a new world's first fan-outs time
/// thread placement, not kernel scaling. The fastest fan-out is the one
/// no other tenant of a shared host delayed: on a 4-vCPU guest with 5-7%
/// steal, the median 4-place gemm fan-out swung 1.7-4.2 ms across runs
/// while the fastest stayed at 1.6-1.8 ms.
FanOutMs fanOutMs(int places, int reps,
                  const std::function<void(Place)>& body) {
  const PlaceGroup pg =
      PlaceGroup::firstPlaces(static_cast<std::size_t>(places));
  const auto warm = std::chrono::steady_clock::now();
  while (bench::wallMs(warm) < 1000.0) apgas::ateach(pg, body);
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    apgas::ateach(pg, body);
    ms.push_back(bench::wallMs(t0));
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2]};
}

/// Row-partitioned C = A * B over `places` worker threads: place i owns
/// rows [i*m/P, (i+1)*m/P) of A and C; B is shared read-only. Output
/// slices are disjoint, so the fan-out is race-free by construction.
FanOutMs gemmWallMs(int places, int reps) {
  RuntimeConfig cfg;
  cfg.numPlaces = places;
  cfg.backend = Backend::Threads;
  apgas::WorldGuard guard(cfg);
  const long m = 512, k = 384, n = 48;
  const la::DenseMatrix b = la::makeUniformDense(k, n, 7);
  std::vector<la::DenseMatrix> aBlocks;
  std::vector<la::DenseMatrix> cBlocks;
  for (int p = 0; p < places; ++p) {
    const long r0 = m * p / places;
    const long rows = m * (p + 1) / places - r0;
    aBlocks.push_back(la::makeUniformDense(rows, k, 100 + p));
    cBlocks.emplace_back(rows, n);
  }
  return fanOutMs(places, reps, [&](Place p) {
    const auto i = static_cast<std::size_t>(p.id());
    la::gemm(aBlocks[i], b, cBlocks[i]);
  });
}

/// Row-partitioned sparse C = A * B, same shape as gemmWallMs.
FanOutMs spmmWallMs(int places, int reps) {
  RuntimeConfig cfg;
  cfg.numPlaces = places;
  cfg.backend = Backend::Threads;
  apgas::WorldGuard guard(cfg);
  const long n = 20000, cols = 16;
  const la::DenseMatrix b = la::makeUniformDense(n, cols, 9);
  std::vector<la::SparseCSR> aBlocks;
  std::vector<la::DenseMatrix> cBlocks;
  for (int p = 0; p < places; ++p) {
    const long r0 = n * p / places;
    const long rows = n * (p + 1) / places - r0;
    aBlocks.push_back(la::makeUniformSparse(rows, n, 8, 200 + p));
    cBlocks.emplace_back(rows, cols);
  }
  return fanOutMs(places, reps, [&](Place p) {
    const auto i = static_cast<std::size_t>(p.id());
    la::spmm(aBlocks[i], b, cBlocks[i]);
  });
}

struct FinishProbe {
  double usPerFinish = 0.0;
  long bookkeepingPerFinish = 0;
};

/// `reps` empty-task fan-outs (one task per place) on `backend`.
FinishProbe finishProbe(Backend backend, int places, bool resilient,
                        int reps) {
  RuntimeConfig cfg;
  cfg.numPlaces = places;
  cfg.resilientFinish = resilient;
  cfg.backend = backend;
  apgas::WorldGuard guard(cfg);
  Runtime& rt = Runtime::world();
  const PlaceGroup pg = PlaceGroup::firstPlaces(static_cast<std::size_t>(places));
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    apgas::ateach(pg, [](Place) {});
  }
  FinishProbe probe;
  probe.usPerFinish = bench::wallMs(t0) * 1000.0 / reps;
  probe.bookkeepingPerFinish = rt.stats().bookkeepingMsgs / reps;
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchOut = "BENCH_backend.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-out" && i + 1 < argc) {
      benchOut = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "bench_backend [--bench-out FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << '\n';
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();

  // 1. Kernel scaling over place threads.
  const int kGemmReps = 20, kSpmmReps = 20;
  const FanOutMs gemm1 = gemmWallMs(1, kGemmReps);
  const FanOutMs gemm2 = gemmWallMs(2, kGemmReps);
  const FanOutMs gemm4 = gemmWallMs(4, kGemmReps);
  const FanOutMs spmm1 = spmmWallMs(1, kSpmmReps);
  const FanOutMs spmm2 = spmmWallMs(2, kSpmmReps);
  const FanOutMs spmm4 = spmmWallMs(4, kSpmmReps);
  auto speedup = [](double one, double many) {
    return many > 0 ? one / many : 0.0;
  };
  const double gemmSpeedup2 = speedup(gemm1.best, gemm2.best);
  const double gemmSpeedup4 = speedup(gemm1.best, gemm4.best);
  const double spmmSpeedup2 = speedup(spmm1.best, spmm2.best);
  const double spmmSpeedup4 = speedup(spmm1.best, spmm4.best);
  const bool gemmOk = gemmSpeedup4 >= 1.5 || hw < 4;
  const bool spmmOk = spmmSpeedup4 >= 1.5 || hw < 4;

  // 2. Finish overhead curves + cross-backend bookkeeping counts.
  const int kFinishReps = 200;
  struct Curve {
    int places;
    FinishProbe plain, resilient, simulatedResilient;
  };
  std::vector<Curve> curves;
  for (int p : {1, 2, 4, 8}) {
    Curve c;
    c.places = p;
    c.plain = finishProbe(Backend::Threads, p, false, kFinishReps);
    c.resilient = finishProbe(Backend::Threads, p, true, kFinishReps);
    c.simulatedResilient =
        finishProbe(Backend::Simulated, p, true, kFinishReps);
    curves.push_back(c);
  }

  // 3. Fig5-style restore on the Threads backend, classified against the
  // simulated golden run.
  harness::SweepOptions opt;
  opt.apps = {harness::AppKind::LinReg};
  opt.modes = {framework::RestoreMode::Shrink};
  opt.iterations = 20;
  opt.checkpointInterval = 5;
  opt.places = 4;
  opt.spares = 1;
  opt.backend = Backend::Threads;
  opt.shrinkFailures = false;
  harness::ChaosSweeper sweeper(opt);
  harness::FaultSchedule schedule;
  schedule.mode = framework::RestoreMode::Shrink;
  schedule.kills.push_back(harness::KillEvent{
      harness::KillEvent::Trigger::Iteration, 12, 2});
  apgas::WorldGuard restoreGuard;
  const harness::ScenarioOutcome restore =
      sweeper.runScenario(harness::AppKind::LinReg, schedule);

  const bool written = bench::writeBenchFile(
      benchOut, "backend_bench",
      [&](obs::JsonWriter& w) {
        for (const Curve& c : curves) {
          const std::string key =
              "bookkeeping_per_finish_p" + std::to_string(c.places);
          const long sim = c.simulatedResilient.bookkeepingPerFinish;
          const long threads = c.resilient.bookkeepingPerFinish;
          w.member(key + ".simulated", sim)
              .member(key + ".threads", threads)
              .member(key + ".match", threads == sim ? 1 : 0);
        }
        w.member("gemm_scaling_ok", gemmOk ? 1 : 0)
            .member("spmm_scaling_ok", spmmOk ? 1 : 0)
            .member("restore.outcome", harness::toString(restore.kind))
            .member("restore.failures_handled", restore.failuresHandled)
            .member("restore.restored_to", restore.restoredTo)
            .member("restore.reconverge_bucket",
                    harness::reconvergenceBucket(restore.reconvergeIterations));
      },
      [&](obs::JsonWriter& w) {
        w.member("hw_threads", hw)
            .member("gemm_ms_p1", gemm1.best)
            .member("gemm_ms_p2", gemm2.best)
            .member("gemm_ms_p4", gemm4.best)
            .member("gemm_speedup_p2", gemmSpeedup2)
            .member("gemm_speedup_p4", gemmSpeedup4)
            .member("gemm_median_ms_p1", gemm1.median)
            .member("gemm_median_ms_p4", gemm4.median)
            .member("gemm_median_speedup_p4",
                    speedup(gemm1.median, gemm4.median))
            .member("spmm_ms_p1", spmm1.best)
            .member("spmm_ms_p2", spmm2.best)
            .member("spmm_ms_p4", spmm4.best)
            .member("spmm_speedup_p2", spmmSpeedup2)
            .member("spmm_speedup_p4", spmmSpeedup4)
            .member("spmm_median_ms_p1", spmm1.median)
            .member("spmm_median_ms_p4", spmm4.median)
            .member("spmm_median_speedup_p4",
                    speedup(spmm1.median, spmm4.median));
        for (const Curve& c : curves) {
          const std::string key = "finish_us_p" + std::to_string(c.places);
          w.member(key + ".plain", c.plain.usPerFinish)
              .member(key + ".resilient", c.resilient.usPerFinish);
        }
        w.member("restore_ms", restore.restoreMs)
            .member("total_ms", restore.totalMs);
      });
  if (!written) return 2;

  std::cout << "gemm 1->4 places: " << gemmSpeedup4 << "x, spmm: "
            << spmmSpeedup4 << "x (hw_threads=" << hw << ")\n"
            << "restore: " << harness::toString(restore.kind)
            << ", restored_to=" << restore.restoredTo << ", "
            << restore.restoreMs << " ms of " << restore.totalMs
            << " ms total\nwrote " << benchOut << '\n';
  const bool restoreOk = restore.kind == harness::OutcomeKind::Ok &&
                         restore.failuresHandled == 1;
  return (gemmOk && spmmOk && restoreOk) ? 0 : 1;
}
