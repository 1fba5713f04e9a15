// perfbench runner: one workload of the repository's wall-clock benchmark,
// on the Threads backend with resilient finish (perfbench/README.md has
// the metric table and why each workload was chosen).
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//
// Load model: a closed loop with one client. This thread — place 0 of
// every world — runs solves back to back, each in a fresh 3-place world;
// threads are never pinned. Everything is measured from outside src/:
// TimedApp times the app's four methods as ResilientExecutor calls them,
// kills arrive through ExecutorConfig::iterationHook + Runtime::kill, and
// the per-layer probes call public la / gml / apgas functions on the
// workload's own shapes. The last stdout line is the JSON result; the
// run's story (reference, parity, sample counts, host witnesses) goes to
// stderr.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apgas/runtime.h"
#include "apps/gmres_resilient.h"
#include "apps/linreg_resilient.h"
#include "apps/pagerank_resilient.h"
#include "bench_stats.h"
#include "framework/resilient_executor.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "harness/golden.h"
#include "harness/schedule.h"
#include "la/ilu0.h"
#include "la/kernels.h"
#include "la/rand.h"
#include "obs/analysis/attribution.h"
#include "obs/analysis/flight_report.h"
#include "obs/analysis/json.h"
#include "obs/flight/flight_recorder.h"
#include "obs/trace_sink.h"

namespace {

using namespace rgml;
using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using harness::AppKind;
using perfbench::Op;
using perfbench::percentile;

constexpr int kPlaces = 3;
/// Mixed absolute/relative tolerance every Threads solve's answer must
/// meet against the simulated reference.
constexpr double kDigestTolerance = 1e-9;
/// Flight-ring slots per thread lane in the traced solve: enough for the
/// recorder to keep the whole solve (obs.flight_events_dropped == 0).
constexpr std::size_t kTracedRingCapacity = std::size_t{1} << 17;
/// Steal share up to which a timed solve always counts (see main).
constexpr double kStealFloor = 0.01;

// Per-place problem shapes; README.md gives the reasons.
constexpr long kLinRegRowsPerPlace = 20000;
constexpr long kLinRegFeatures = 100;
constexpr long kLinRegBlocksPerPlace = 4;
constexpr long kGmresPerPlace = 2000;
constexpr long kGmresBand = 2;
constexpr long kGmresRestart = 10;
constexpr long kGmresBlocksPerPlace = 2;
constexpr long kPageRankPerPlace = 50000;
constexpr long kPageRankLinks = 20;
constexpr long kPageRankBlocksPerPlace = 2;

struct Workload {
  const char* name;
  AppKind app;
  long iterations;
  long checkpointInterval;
  resilient::CheckpointMode checkpointMode;
  long killPeriod;
  long killPhase;
};

const Workload kWorkloads[] = {
    {"linreg-dense", AppKind::LinReg, 75, 10,
     resilient::CheckpointMode::Delta, 30, 15},
    {"gmres-finish", AppKind::Gmres, 140, 20,
     resilient::CheckpointMode::Delta, 60, 10},
    {"pagerank-ckpt", AppKind::PageRank, 45, 1,
     resilient::CheckpointMode::ReadOnlyReuse, 15, 0},
};

/// Keeps probe results observable so no call is optimised away.
double g_sink = 0.0;

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long minorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// ---- the three apps behind one shape -------------------------------------

class BenchApp {
 public:
  virtual ~BenchApp() = default;
  virtual void init() = 0;
  [[nodiscard]] virtual framework::ResilientIterativeApp& app() = 0;
  /// The converged state; call on place 0 after the run.
  [[nodiscard]] virtual harness::ResultDigest digest() const = 0;
};

/// `State` is the app's accessor for its duplicated result vector.
template <typename App, auto State>
class Adapter final : public BenchApp {
 public:
  template <typename Config>
  Adapter(const Config& config, const PlaceGroup& pg) : app_(config, pg) {}

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] harness::ResultDigest digest() const override {
    harness::ResultDigest d;
    const auto values = (app_.*State)().local().span();
    d.dense.assign(values.begin(), values.end());
    d.iterations = app_.iteration();
    return d;
  }

 private:
  App app_;
};

std::unique_ptr<BenchApp> makeBenchApp(const Workload& w, std::uint64_t seed,
                                       const PlaceGroup& pg) {
  switch (w.app) {
    case AppKind::LinReg: {
      apps::LinRegConfig c;
      c.features = kLinRegFeatures;
      c.rowsPerPlace = kLinRegRowsPerPlace;
      c.blocksPerPlace = kLinRegBlocksPerPlace;
      c.iterations = w.iterations;
      c.seed = seed;
      return std::make_unique<
          Adapter<apps::LinRegResilient, &apps::LinRegResilient::weights>>(
          c, pg);
    }
    case AppKind::Gmres: {
      apps::GmresResilientConfig c;
      c.nPerPlace = kGmresPerPlace;
      c.band = kGmresBand;
      c.blocksPerPlace = kGmresBlocksPerPlace;
      c.restart = kGmresRestart;
      c.cycles = w.iterations;
      c.seed = seed;
      return std::make_unique<
          Adapter<apps::GmresResilient, &apps::GmresResilient::solution>>(
          c, pg);
    }
    case AppKind::PageRank: {
      apps::PageRankConfig c;
      c.pagesPerPlace = kPageRankPerPlace;
      c.linksPerPage = kPageRankLinks;
      c.blocksPerPlace = kPageRankBlocksPerPlace;
      c.iterations = w.iterations;
      c.seed = seed;
      return std::make_unique<
          Adapter<apps::PageRankResilient, &apps::PageRankResilient::ranks>>(
          c, pg);
    }
    default:
      break;
  }
  throw std::invalid_argument("perfbench: workload has no app");
}

// ---- one solve -----------------------------------------------------------

struct TraceCapture {
  std::vector<obs::Span> spans;
  std::uint64_t flightRecorded = 0;
  std::uint64_t flightDropped = 0;
  obs::analysis::FlightAnalysis flight;
};

struct SolveRecord {
  double setupSeconds = 0.0;  ///< world + app construction + init()
  double solveSeconds = 0.0;  ///< one ResilientExecutor::run
  std::vector<Op> ops;
  long stepFaults = 0;        ///< minor faults inside successful steps
  long checkpointFaults = 0;  ///< minor faults inside committed checkpoints
  std::vector<double> freshBytes;    ///< per committed checkpoint
  std::vector<double> carriedBytes;  ///< per committed checkpoint
  std::vector<double> replicaBytes;  ///< per committed checkpoint (traced)
  /// Runtime::stats() deltas summed over the steps of the failure-free
  /// stretch (iterations 1 .. first scheduled kill), first pass only.
  apgas::RuntimeStats stretch;
  long stretchSteps = 0;
  long failuresHandled = 0;
  long killsFired = 0;
  harness::ResultDigest digest;
  std::string error;  ///< non-empty: the solve threw
  TraceCapture trace;  ///< traced solves only
};

void addDelta(apgas::RuntimeStats& into, const apgas::RuntimeStats& before,
              const apgas::RuntimeStats& after) {
  into.asyncsSpawned += after.asyncsSpawned - before.asyncsSpawned;
  into.finishes += after.finishes - before.finishes;
  into.bookkeepingMsgs += after.bookkeepingMsgs - before.bookkeepingMsgs;
  into.dataMsgs += after.dataMsgs - before.dataMsgs;
  into.bytesSent += after.bytesSent - before.bytesSent;
}

/// Times the app's step/checkpoint/restore exactly as the executor calls
/// them and logs each call, failed ones with their throw time.
class TimedApp final : public framework::ResilientIterativeApp {
 public:
  TimedApp(framework::ResilientIterativeApp& inner, SolveRecord& rec,
           long stretchEnd)
      : inner_(inner), rec_(rec), stretchEnd_(stretchEnd) {}

  [[nodiscard]] bool isFinished() override { return inner_.isFinished(); }
  [[nodiscard]] double convergenceMetric() override {
    return inner_.convergenceMetric();
  }
  [[nodiscard]] bool supportsAlgorithmRecovery() const override {
    return inner_.supportsAlgorithmRecovery();
  }

  void step() override {
    justRestored_ = false;
    const bool counted = !restored_ && iter_ < stretchEnd_;
    apgas::RuntimeStats before;
    if (counted) before = Runtime::world().stats();
    const long faults = minorFaults();
    Op op{Op::Kind::Step, iter_ + 1, nowS()};
    timed(op, [&] { inner_.step(); });
    rec_.stepFaults += minorFaults() - faults;
    if (counted) {
      addDelta(rec_.stretch, before, Runtime::world().stats());
      ++rec_.stretchSteps;
    }
    iter_ = op.iteration;
  }

  void checkpoint(resilient::AppResilientStore& store) override {
    // Between iterations no worker records, so reading the traced sink's
    // counters around the call is race-free.
    obs::TraceSink* sink = obs::TraceSink::current();
    const std::uint64_t replicas0 = replicaBytes(sink);
    const long faults = minorFaults();
    Op op{justRestored_ ? Op::Kind::RestoreCheckpoint : Op::Kind::Checkpoint,
          iter_, nowS()};
    timed(op, [&] { inner_.checkpoint(store); });
    if (op.kind == Op::Kind::RestoreCheckpoint) return;
    rec_.checkpointFaults += minorFaults() - faults;
    const auto& stats = store.lastCheckpointStats();
    rec_.freshBytes.push_back(static_cast<double>(stats.freshBytes));
    rec_.carriedBytes.push_back(static_cast<double>(stats.carriedBytes));
    if (sink != nullptr) {
      rec_.replicaBytes.push_back(
          static_cast<double>(replicaBytes(sink) - replicas0));
    }
  }

  void restore(const PlaceGroup& newPlaces,
               resilient::AppResilientStore& store, long snapshotIter,
               framework::RestoreMode mode) override {
    Op op{Op::Kind::Restore, snapshotIter, nowS()};
    timed(op, [&] { inner_.restore(newPlaces, store, snapshotIter, mode); });
    iter_ = snapshotIter;
    restored_ = true;
    justRestored_ = true;
  }

 private:
  static std::uint64_t replicaBytes(const obs::TraceSink* sink) {
    return sink == nullptr
               ? 0
               : sink->metrics().counter("snapshot.replica_bytes");
  }

  template <typename Body>
  void timed(Op& op, const Body& body) {
    try {
      body();
    } catch (...) {
      op.end = nowS();
      op.failed = true;
      rec_.ops.push_back(op);
      throw;
    }
    op.end = nowS();
    rec_.ops.push_back(op);
  }

  framework::ResilientIterativeApp& inner_;
  SolveRecord& rec_;
  const long stretchEnd_;
  long iter_ = 0;
  bool restored_ = false;      ///< any rollback so far in this solve
  bool justRestored_ = false;  ///< no step since the last rollback
};

std::vector<long> killSchedule(const Workload& w) {
  return perfbench::killIterations(w.iterations, w.killPeriod, w.killPhase,
                                   w.checkpointInterval);
}

void captureTrace(obs::TraceSink& sink, TraceCapture& out) {
  const Runtime& rt = Runtime::world();
  out.spans = sink.takeSpans();
  if (const auto* recorder = rt.flightRecorder()) {
    for (const auto& lane : recorder->snapshotLanes()) {
      out.flightRecorded += lane.recorded;
      out.flightDropped += lane.dropped;
    }
    out.flight = obs::analysis::analyzeFlight(
        obs::analysis::JsonValue::parse(rt.flightDump()));
  }
}

struct SolveOptions {
  apgas::Backend backend = apgas::Backend::Threads;
  bool kills = true;
  bool traced = false;
};

/// One solve in a fresh world. `victimSeed` drives victim selection, so
/// a run's solves spread their kills over every killable slot.
SolveRecord runSolve(const Workload& w, std::uint64_t seed,
                     std::uint64_t victimSeed, const SolveOptions& opt) {
  SolveRecord rec;
  const std::vector<long> schedule = killSchedule(w);
  const long stretchEnd = schedule.empty() ? w.iterations : schedule.front();
  obs::TraceSink sink;  // outlives the world, whose workers record into it

  const double t0 = nowS();
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = kPlaces;
  cfg.resilientFinish = true;
  cfg.backend = opt.backend;
  if (opt.traced) cfg.flightRingCapacity = kTracedRingCapacity;
  apgas::WorldGuard world(cfg);
  const PlaceGroup pg = PlaceGroup::firstPlaces(kPlaces);
  const std::unique_ptr<BenchApp> bench = makeBenchApp(w, seed, pg);
  bench->init();
  rec.setupSeconds = nowS() - t0;

  framework::ExecutorConfig ec;
  ec.places = pg;
  ec.checkpointInterval = w.checkpointInterval;
  ec.mode = framework::RestoreMode::ReplaceElastic;
  ec.checkpointMode = w.checkpointMode;
  // Read-only snapshots keep the copies of their first save; without a
  // fresh checkpoint after each restore, a second kill can take the last
  // copy of an entry (snapshot data lost at k = 2).
  ec.checkpointAfterRestore = true;
  ec.maxSteps = 3 * w.iterations;
  la::SplitMix64 victims(victimSeed);
  const framework::ResilientExecutor* executor = nullptr;
  ec.iterationHook = [&](long iteration) {
    // Each scheduled kill fires once, the first time the solve reaches
    // its iteration; iterations re-executed after a rollback pass by.
    const auto fired = static_cast<std::size_t>(rec.killsFired);
    if (opt.kills && fired < schedule.size() &&
        iteration == schedule[fired]) {
      Runtime::world().kill(perfbench::pickVictim(
          executor->currentPlaces().ids(), victims));
      ++rec.killsFired;
    }
  };
  framework::ResilientExecutor exec(ec);
  executor = &exec;
  TimedApp timed(bench->app(), rec, stretchEnd);
  try {
    std::optional<obs::SinkScope> scope;
    if (opt.traced) scope.emplace(&sink);
    const double s0 = nowS();
    const framework::RunStats stats = exec.run(timed);
    rec.solveSeconds = nowS() - s0;
    rec.failuresHandled = stats.failuresHandled;
    rec.digest = bench->digest();
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  if (opt.traced && rec.error.empty()) captureTrace(sink, rec.trace);
  return rec;
}

/// Why `rec` is not a correct solve; empty when it is. The answer must
/// match the simulated reference, every scheduled kill must have been
/// survived, and the failure-free stretch must show exactly the
/// simulator's finish / async / bookkeeping counts.
std::string verify(const SolveRecord& rec, const SolveRecord& ref,
                   long expectedKills) {
  if (!rec.error.empty()) return rec.error;
  const std::string diff =
      harness::compareDigests(ref.digest, rec.digest, kDigestTolerance);
  if (!diff.empty()) return "answer differs from the reference: " + diff;
  if (rec.killsFired != expectedKills ||
      rec.failuresHandled != expectedKills) {
    return "kills fired " + std::to_string(rec.killsFired) + ", failures " +
           "handled " + std::to_string(rec.failuresHandled) +
           ", scheduled " + std::to_string(expectedKills);
  }
  if (rec.stretchSteps != ref.stretchSteps ||
      rec.stretch.finishes != ref.stretch.finishes ||
      rec.stretch.asyncsSpawned != ref.stretch.asyncsSpawned ||
      rec.stretch.bookkeepingMsgs != ref.stretch.bookkeepingMsgs) {
    return "bookkeeping parity: threads " +
           std::to_string(rec.stretch.finishes) + " finishes / " +
           std::to_string(rec.stretch.asyncsSpawned) + " asyncs / " +
           std::to_string(rec.stretch.bookkeepingMsgs) +
           " bookkeeping msgs over " + std::to_string(rec.stretchSteps) +
           " steps, simulator " + std::to_string(ref.stretch.finishes) +
           " / " + std::to_string(ref.stretch.asyncsSpawned) + " / " +
           std::to_string(ref.stretch.bookkeepingMsgs) + " over " +
           std::to_string(ref.stretchSteps);
  }
  return {};
}

// ---- samples over a run's solves ---------------------------------------

struct Samples {
  std::vector<double> solve, setup, steps, checkpoints, restores, lost;
  std::vector<double> freshBytes, carriedBytes;
  long failures = 0;
  long reexecutedSteps = 0;
  long stepFaults = 0;
  long checkpointFaults = 0;
};

void collect(const SolveRecord& rec, Samples& s) {
  s.solve.push_back(rec.solveSeconds);
  s.setup.push_back(rec.setupSeconds);
  for (const Op& op : rec.ops) {
    if (op.failed) continue;
    const double d = op.end - op.start;
    switch (op.kind) {
      case Op::Kind::Step:
        s.steps.push_back(d);
        break;
      case Op::Kind::Checkpoint:
        s.checkpoints.push_back(d);
        break;
      case Op::Kind::Restore:
        s.restores.push_back(d);
        break;
      case Op::Kind::RestoreCheckpoint:  // part of the failure's time lost
        break;
    }
  }
  // One time-lost sample per solve, its mean over the solve's failures:
  // a solve's failures differ systematically (the first and the second
  // kill), so a median over single failures flips between their modes.
  const std::vector<perfbench::FailureCost> failures =
      perfbench::accountFailures(rec.ops);
  double lost = 0.0;
  for (const perfbench::FailureCost& f : failures) {
    lost += f.lostSeconds();
    s.reexecutedSteps += f.reexecutedSteps;
  }
  if (!failures.empty()) {
    s.lost.push_back(lost / static_cast<double>(failures.size()));
    s.failures += static_cast<long>(failures.size());
  }
  s.freshBytes.insert(s.freshBytes.end(), rec.freshBytes.begin(),
                      rec.freshBytes.end());
  s.carriedBytes.insert(s.carriedBytes.end(), rec.carriedBytes.begin(),
                        rec.carriedBytes.end());
  s.stepFaults += rec.stepFaults;
  s.checkpointFaults += rec.checkpointFaults;
}

double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5).value;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- probes: timed calls into public la / gml / apgas functions ----------

/// Wall seconds per call of `fn`: two warm-up calls, then at least
/// `minCalls` calls and about `budget` seconds of them.
std::vector<double> callSeconds(const std::function<void()>& fn,
                                double budget, std::size_t minCalls) {
  fn();
  fn();
  std::vector<double> xs;
  const double until = nowS() + budget;
  while (xs.size() < minCalls || nowS() < until) {
    const double t0 = nowS();
    fn();
    xs.push_back(nowS() - t0);
  }
  return xs;
}

double medianCall(const std::function<void()>& fn) {
  return median(callSeconds(fn, 0.15, 20));
}

/// gmres-finish's nonsymmetric, diagonally dominant band system (the
/// values apps/gmres_resilient.cpp builds), for the ILU(0) and spmv probes.
la::SparseCSR bandMatrix(long n, long band) {
  std::vector<long> rowPtr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<long> colIdx;
  std::vector<double> values;
  for (long i = 0; i < n; ++i) {
    for (long j = std::max(0L, i - band); j <= std::min(n - 1, i + band);
         ++j) {
      colIdx.push_back(j);
      const double d = static_cast<double>(std::labs(i - j));
      if (j == i) {
        values.push_back(2.0 * static_cast<double>(band) + 1.8 +
                         0.2 * static_cast<double>(i % 5));
      } else {
        values.push_back((j < i ? -1.0 : -0.6) / (1.0 + d));
      }
    }
    rowPtr[static_cast<std::size_t>(i) + 1] =
        static_cast<long>(colIdx.size());
  }
  return {n, n, std::move(rowPtr), std::move(colIdx), std::move(values)};
}

/// Single-threaded kernel timings on the workload's block shapes. Flops
/// and bytes are computed from the shapes, not measured.
struct LaProbe {
  double gemvS = 0.0, gemvTransS = 0.0, spmvS = 0.0, iluS = 0.0, dotS = 0.0;
  double gemvFlops = 0.0, spmvFlops = 0.0;
  double gemvBytes = 0.0, spmvBytes = 0.0;
  long dotN = 0;
};

LaProbe laProbe(const Workload& w, std::uint64_t seed) {
  LaProbe p;
  // Dense: one block of LinReg's X (the only dense workload; the others
  // time the same shape so the number stays comparable).
  const long rows = kLinRegRowsPerPlace / kLinRegBlocksPerPlace;
  const long cols = kLinRegFeatures;
  const la::DenseMatrix a = la::makeUniformDense(rows, cols, seed);
  la::Vector x = la::makeUniformVector(cols, seed + 1);
  la::Vector y = la::makeUniformVector(rows, seed + 2);
  p.gemvS = medianCall([&] { la::gemv(a, x.span(), y.span(), 1.0); });
  p.gemvTransS =
      medianCall([&] { la::gemvTrans(a, y.span(), x.span(), 1.0); });
  p.gemvFlops = 2.0 * static_cast<double>(rows * cols);
  p.gemvBytes = 8.0 * static_cast<double>(rows * cols + 2 * rows + cols);

  // Sparse: one block of the workload's matrix (gmres: its band rows;
  // otherwise PageRank's random link block).
  const long gmresN = kGmresPerPlace * kPlaces;
  la::SparseCSR block;
  if (w.app == AppKind::Gmres) {
    block = bandMatrix(gmresN, kGmresBand)
                .subMatrix(0, 0, gmresN / (kGmresBlocksPerPlace * kPlaces),
                           gmresN);
  } else {
    const long n = kPageRankPerPlace * kPlaces;
    block = la::makeUniformSparse(n / (kPageRankBlocksPerPlace * kPlaces), n,
                                  kPageRankLinks, seed, 0.0,
                                  1.0 / kPageRankLinks);
  }
  la::Vector sx = la::makeUniformVector(block.cols(), seed + 3);
  la::Vector sy(block.rows());
  p.spmvS = medianCall([&] { la::spmv(block, sx.span(), sy.span(), 1.0); });
  const auto nnz = static_cast<double>(block.nnz());
  p.spmvFlops = 2.0 * nnz;
  p.spmvBytes = nnz * 24.0 + 24.0 * static_cast<double>(block.rows());

  // ILU(0) apply on gmres-finish's whole system (applied replicated).
  const la::Ilu0 factors = la::ilu0Factor(bandMatrix(gmresN, kGmresBand));
  const la::Vector r = la::makeUniformVector(gmresN, seed + 4);
  la::Vector z(gmresN);
  p.iluS = medianCall([&] { la::ilu0Solve(factors, r, z); });

  // Dot at the workload's dominant reduction length.
  p.dotN = w.app == AppKind::LinReg  ? kLinRegFeatures
           : w.app == AppKind::Gmres ? gmresN
                                     : kPageRankPerPlace;
  const la::Vector u = la::makeUniformVector(p.dotN, seed + 5);
  const la::Vector v = la::makeUniformVector(p.dotN, seed + 6);
  p.dotS = medianCall([&] { g_sink += la::dot(u.span(), v.span()); });
  g_sink += y[0] + x[0] + sy[0] + z[0];
  return p;
}

/// The la probe time of one step's kernels on one place.
double stepKernelSeconds(const Workload& w, const LaProbe& p) {
  switch (w.app) {
    case AppKind::LinReg:
      return static_cast<double>(kLinRegBlocksPerPlace) *
             (p.gemvS + p.gemvTransS);
    case AppKind::Gmres:
      // m+1 preconditioned mat-vecs plus the MGS dot/axpy pairs.
      return static_cast<double>(kGmresRestart + 1) *
                 (static_cast<double>(kGmresBlocksPerPlace) * p.spmvS +
                  p.iluS) +
             static_cast<double>(kGmresRestart * (kGmresRestart + 1)) *
                 p.dotS;
    default:
      return static_cast<double>(kPageRankBlocksPerPlace) * p.spmvS +
             p.dotS;
  }
}

apgas::RuntimeConfig threadsConfig() {
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = kPlaces;
  cfg.resilientFinish = true;
  cfg.backend = apgas::Backend::Threads;
  return cfg;
}

/// gml operations on same-shape objects in a fresh world.
struct GmlProbe {
  double multS = 0.0, transMultS = 0.0, syncS = 0.0, dotS = 0.0;
};

GmlProbe gmlProbe(const Workload& w, std::uint64_t seed) {
  apgas::WorldGuard world(threadsConfig());
  const PlaceGroup pg = PlaceGroup::firstPlaces(kPlaces);
  gml::DistBlockMatrix a;
  switch (w.app) {
    case AppKind::LinReg:
      a = gml::DistBlockMatrix::makeDense(
          kLinRegRowsPerPlace * kPlaces, kLinRegFeatures,
          kLinRegBlocksPerPlace * kPlaces, 1, kPlaces, 1, pg);
      a.initRandom(seed);
      break;
    case AppKind::Gmres: {
      const long n = kGmresPerPlace * kPlaces;
      a = gml::DistBlockMatrix::makeSparse(n, n,
                                           kGmresBlocksPerPlace * kPlaces, 1,
                                           kPlaces, 1, 2 * kGmresBand + 1, pg);
      a.initFromCSR(bandMatrix(n, kGmresBand));
      break;
    }
    default: {
      const long n = kPageRankPerPlace * kPlaces;
      a = gml::DistBlockMatrix::makeSparse(
          n, n, kPageRankBlocksPerPlace * kPlaces, 1, kPlaces, 1,
          kPageRankLinks, pg);
      a.initRandom(seed, 0.0, 1.0 / kPageRankLinks);
      break;
    }
  }
  gml::DupVector x = gml::DupVector::make(a.cols(), pg);
  x.initRandom(seed);
  gml::DistVector y = gml::DistVector::make(a.rows(), pg);
  y.initRandom(seed + 1);
  gml::DupVector q = gml::DupVector::make(a.cols(), pg);
  GmlProbe p;
  p.multS = medianCall([&] { y.mult(a, x); });
  p.transMultS = medianCall([&] { q.transMult(a, y); });
  p.syncS = medianCall([&] { x.sync(); });
  // PageRank reduces a distributed vector against the ranks; LinReg and
  // GMRES reduce duplicated vectors locally.
  if (w.app == AppKind::PageRank) {
    p.dotS = medianCall([&] { g_sink += y.dot(x); });
  } else {
    p.dotS = medianCall([&] { g_sink += x.dot(q); });
  }
  return p;
}

/// An empty resilient ateach over the workload's places, and a bare at().
struct ApgasProbe {
  perfbench::Percentile finishP50, finishP99, atP50;
};

ApgasProbe apgasProbe() {
  apgas::WorldGuard world(threadsConfig());
  const PlaceGroup pg = PlaceGroup::firstPlaces(kPlaces);
  const std::vector<double> finishes =
      callSeconds([&] { apgas::ateach(pg, [](Place) {}); }, 0.3, 2000);
  const std::vector<double> ats =
      callSeconds([] { apgas::at(Place(1), [] {}); }, 0.2, 1000);
  return {percentile(finishes, 0.5), percentile(finishes, 0.99),
          percentile(ats, 0.5)};
}

// ---- host witnesses --------------------------------------------------------

struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTimes readCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string label;
  unsigned long long field[8] = {};  // user .. steal
  if (stat >> label) {
    for (unsigned long long& f : field) stat >> f;
  }
  for (unsigned long long f : field) t.total += f;
  t.steal = field[7];
  return t;
}

/// Share of all vCPU time between two readings that the hypervisor stole.
double stealShare(const CpuTimes& before, const CpuTimes& after) {
  return ratio(static_cast<double>(after.steal - before.steal),
               static_cast<double>(after.total - before.total));
}

/// Million iterations per second of a fixed single-thread integer and
/// floating-point loop: a host-speed witness that runs no repository code.
double calibrationMops() {
  constexpr long kIterations = 1L << 24;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    double acc = 0.0;
    const double t0 = nowS();
    for (long i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xFFFF);
    }
    rates.push_back(static_cast<double>(kIterations) / (nowS() - t0) / 1e6);
    g_sink += acc;
  }
  return median(rates);
}

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Resets the resident high-water mark; false where the kernel refuses,
/// in which case peak_rss_mb also covers the set-up before the timed loop.
bool resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"correct\": "
     << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

bool parseArgs(int argc, char** argv, Args& out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (value.empty()) return false;
    if (flag == "--workload") {
      out.workload = value;
    } else if (flag == "--seed") {
      out.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      out.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(out.seconds > 0.0 && out.seconds <= 120.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      out.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *found;
  const double calibBefore = calibrationMops();
  const CpuTimes cpuBefore = readCpuTimes();

  long attempted = 0;
  long failed = 0;
  auto tally = [&](const std::string& why, const char* what) {
    ++attempted;
    if (!why.empty()) {
      ++failed;
      std::cerr << "perfbench: " << what << " failed: " << why << '\n';
    }
  };

  // 1. The reference: one failure-free solve on the simulated backend
  // (one host thread, same seed). Every timed solve must match its answer
  // and its bookkeeping counts; its wall time is apps.sim_solve_s.
  SolveOptions simulated;
  simulated.backend = apgas::Backend::Simulated;
  simulated.kills = false;
  const SolveRecord ref = runSolve(w, args.seed, 0, simulated);
  tally(ref.error, "simulated reference");
  if (!ref.error.empty()) {
    printResult(false, attempted, failed, {});
    return 1;
  }
  const long scheduledKills = static_cast<long>(killSchedule(w).size());
  std::uint64_t solveIndex = 0;
  auto solve = [&](const SolveOptions& opt, const char* what) {
    ++solveIndex;
    SolveRecord rec = runSolve(w, args.seed, args.seed * 7919 + solveIndex,
                               opt);
    tally(verify(rec, ref, opt.kills ? scheduledKills : 0), what);
    return rec;
  };

  // 2. One discarded warm-up solve: a process's first solve runs while
  // the guest is still spreading its fresh threads over the vCPUs.
  (void)solve(SolveOptions{}, "warm-up solve");

  // 3. Timed solves, back to back, for --seconds, sampling the CPU steal
  // the guest saw around each one.
  const bool rssReset = resetPeakRss();
  std::vector<SolveRecord> timed;
  std::vector<double> solveSteal;
  const double deadline = nowS() + args.seconds;
  do {
    const CpuTimes c0 = readCpuTimes();
    timed.push_back(solve(SolveOptions{}, "timed solve"));
    solveSteal.push_back(stealShare(c0, readCpuTimes()));
  } while (nowS() < deadline);
  const double peakMb = peakRssMb();
  // On a shared host, bursts of CPU stolen by the hypervisor, not the
  // program, make the slow tail. The end-to-end metrics therefore skip
  // solves that lost more than 1% of the vCPU time to steal, keeping at
  // least the quieter half.
  const std::vector<std::size_t> quiet =
      perfbench::quietSamples(solveSteal, kStealFloor);
  Samples s;
  for (std::size_t i : quiet) collect(timed[i], s);

  const double stepP50 = median(s.steps);
  const std::vector<Metric> endToEnd{
      {"time_to_solution_s", median(s.solve), "s"},
      {"step_s.p50", stepP50, "s"},
      {"checkpoint_s.p50", median(s.checkpoints), "s"},
      {"time_lost_per_failure_s", median(s.lost), "s"},
      {"setup_s", median(s.setup), "s"},
      {"peak_rss_mb", peakMb, "MB"},
  };
  bool correct = failed == 0;
  for (const Metric& m : endToEnd) {
    if (!(m.value > 0.0)) {
      correct = false;
      std::cerr << "perfbench: no samples for " << m.name << '\n';
    }
  }
  std::vector<double> quietSteal;
  for (std::size_t i : quiet) quietSteal.push_back(solveSteal[i]);
  std::cerr << "perfbench: " << w.name << " seed " << args.seed << ": "
            << s.solve.size() << " of " << timed.size()
            << " timed solves kept (steal share up to "
            << percentile(quietSteal, 1.0).value << ", all up to "
            << percentile(solveSteal, 1.0).value << "), " << s.steps.size()
            << " steps, " << s.checkpoints.size() << " checkpoints, "
            << s.failures << " failures"
            << (rssReset ? "" : " (peak RSS not reset)") << '\n';
  auto quartiles = [](const char* name, const std::vector<double>& xs) {
    std::cerr << std::setprecision(4) << "perfbench:   " << name
              << " q1/median/q3 " << percentile(xs, 0.25).value << " / "
              << percentile(xs, 0.5).value << " / "
              << percentile(xs, 0.75).value << " (n=" << xs.size() << ")\n";
  };
  quartiles("solve s", s.solve);
  quartiles("step s", s.steps);
  quartiles("checkpoint s", s.checkpoints);
  quartiles("time lost per failure (solve mean) s", s.lost);
  quartiles("setup s", s.setup);

  std::vector<Metric> perLayer;
  if (args.trace) {
    // 4. One traced solve: a sink through SinkScope and a flight ring
    // large enough to keep the whole solve.
    SolveOptions tracedOpt;
    tracedOpt.traced = true;
    const SolveRecord traced = solve(tracedOpt, "traced solve");
    // 5. Failure-free Threads solves for the parallel efficiency.
    SolveOptions clean;
    clean.kills = false;
    std::vector<double> cleanSeconds;
    for (int i = 0; i < 3; ++i) {
      cleanSeconds.push_back(solve(clean, "failure-free solve").solveSeconds);
    }
    // 6. Outside probes on the workload's shapes.
    const LaProbe la = laProbe(w, args.seed);
    const GmlProbe gml = gmlProbe(w, args.seed);
    const ApgasProbe ap = apgasProbe();

    Samples t;
    collect(traced, t);
    const obs::analysis::AttributionReport phases =
        obs::analysis::attributeSelfTime(traced.trace.spans);
    auto phaseShare = [&](const std::string& key) {
      for (const auto& bucket : phases.byPhase) {
        if (bucket.key == key) return bucket.pct / 100.0;
      }
      return 0.0;
    };
    // Store spans, in emission order on place 0: saves accumulate until
    // the commit instant (a cancel drops them).
    std::vector<double> saves, commitTails, storeRestores;
    double saveSum = 0.0, lastSaveEnd = 0.0;
    for (const obs::Span& span : traced.trace.spans) {
      if (span.name == "store.save" || span.name == "store.save-readonly") {
        saveSum += span.duration();
        lastSaveEnd = span.endTime;
      } else if (span.name == "store.commit") {
        saves.push_back(saveSum);
        commitTails.push_back(span.startTime - lastSaveEnd);
        saveSum = 0.0;
      } else if (span.name == "store.cancel") {
        saveSum = 0.0;
      } else if (span.name == "store.restore" &&
                 span.arg("aborted") != "true") {
        storeRestores.push_back(span.duration());
      }
    }
    perfbench::Percentile ackP50, ackP99, deqP50, deqP99;
    for (const auto& st : traced.trace.flight.ackWait) {
      if (st.queue == 0) {
        ackP50 = {st.p50Us, static_cast<std::size_t>(st.count)};
        ackP99 = {st.p99Us, static_cast<std::size_t>(st.count)};
      }
    }
    for (const auto& st : traced.trace.flight.dequeueLatency) {
      if (st.queue < 0) continue;
      deqP50.value = std::max(deqP50.value, st.p50Us);
      deqP99.value = std::max(deqP99.value, st.p99Us);
      deqP50.samples += static_cast<std::size_t>(st.count);
    }

    const double steps = static_cast<double>(ref.stretchSteps);
    const double finishesPerStep =
        static_cast<double>(ref.stretch.finishes) / steps;
    // Byte counts are medians: the steady state, not the first checkpoint
    // of a solve, which saves the read-only inputs.
    const double freshPerCkpt = median(s.freshBytes);
    const double replicaPerCkpt = median(traced.replicaBytes);
    const double ckptP50 = median(s.checkpoints);
    const perfbench::Percentile stepP99 = percentile(s.steps, 0.99);
    const perfbench::Percentile ckptP99 = percentile(s.checkpoints, 0.99);
    const double tracedSteps = static_cast<double>(t.steps.size());

    perLayer = {
        {"la.gemv_gflops", ratio(la.gemvFlops, la.gemvS) / 1e9, "GFLOP/s"},
        {"la.gemv_trans_gflops", ratio(la.gemvFlops, la.gemvTransS) / 1e9,
         "GFLOP/s"},
        {"la.spmv_gflops", ratio(la.spmvFlops, la.spmvS) / 1e9, "GFLOP/s"},
        {"la.ilu0_apply_us", la.iluS * 1e6, "us"},
        {"la.dot_ns_per_elem", la.dotS * 1e9 / static_cast<double>(la.dotN),
         "ns"},
        {"la.step_kernel_share", ratio(stepKernelSeconds(w, la), stepP50),
         "ratio"},
        {"gml.mult_s.p50", gml.multS, "s"},
        {"gml.transmult_s.p50", gml.transMultS, "s"},
        {"gml.sync_s.p50", gml.syncS, "s"},
        {"gml.dot_s.p50", gml.dotS, "s"},
        {"gml.minor_faults_per_step",
         ratio(static_cast<double>(s.stepFaults),
               static_cast<double>(s.steps.size())),
         "count"},
        {"apgas.finishes_per_step", finishesPerStep, "count"},
        {"apgas.asyncs_per_step",
         static_cast<double>(ref.stretch.asyncsSpawned) / steps, "count"},
        {"apgas.bookkeeping_msgs_per_step",
         static_cast<double>(ref.stretch.bookkeepingMsgs) / steps, "count"},
        {"apgas.data_msgs_per_step",
         static_cast<double>(ref.stretch.dataMsgs) / steps, "count"},
        {"apgas.bytes_per_step",
         static_cast<double>(ref.stretch.bytesSent) / steps, "B"},
        {"apgas.finish_us.p50", ap.finishP50.value * 1e6, "us"},
        {"apgas.finish_us.p99", ap.finishP99.value * 1e6, "us"},
        {"apgas.at_us.p50", ap.atP50.value * 1e6, "us"},
        {"apgas.ack_wait_us.p50", ackP50.value, "us"},
        {"apgas.ack_wait_us.p99", ackP99.value, "us"},
        {"apgas.dequeue_us.p50", deqP50.value, "us"},
        {"apgas.dequeue_us.p99", deqP99.value, "us"},
        {"apgas.finish_share_of_step",
         ratio(finishesPerStep * ap.finishP50.value, stepP50), "ratio"},
        {"resilient.fresh_bytes_per_checkpoint", freshPerCkpt, "B"},
        {"resilient.carried_bytes_per_checkpoint", median(s.carriedBytes),
         "B"},
        {"resilient.replica_bytes_per_checkpoint", replicaPerCkpt, "B"},
        {"resilient.save_s.p50", median(saves), "s"},
        {"resilient.commit_s.p50", median(commitTails), "s"},
        {"resilient.restore_s.p50", median(storeRestores), "s"},
        {"resilient.checkpoint_gbs",
         ratio(freshPerCkpt + replicaPerCkpt, ckptP50) / 1e9, "GB/s"},
        {"resilient.minor_faults_per_checkpoint",
         ratio(static_cast<double>(s.checkpointFaults),
               static_cast<double>(s.checkpoints.size())),
         "count"},
        {"framework.step_s.p99", stepP99.value, "s"},
        {"framework.step_s.samples", static_cast<double>(stepP99.samples),
         "count"},
        {"framework.checkpoint_s.p99", ckptP99.value, "s"},
        {"framework.checkpoint_s.samples",
         static_cast<double>(ckptP99.samples), "count"},
        {"framework.restore_s.p50", median(s.restores), "s"},
        {"framework.failures", static_cast<double>(s.failures), "count"},
        {"framework.reexecuted_steps_per_failure",
         ratio(static_cast<double>(s.reexecutedSteps),
               static_cast<double>(s.failures)),
         "count"},
        {"framework.phase_share.step", phaseShare("step"), "ratio"},
        {"framework.phase_share.checkpoint", phaseShare("checkpoint"),
         "ratio"},
        {"framework.phase_share.restore", phaseShare("restore"), "ratio"},
        {"framework.phase_share.finish_bookkeeping",
         phaseShare(obs::analysis::kFinishPhase), "ratio"},
        {"obs.trace_overhead", ratio(median(t.steps), stepP50), "ratio"},
        {"obs.flight_events_per_step",
         ratio(static_cast<double>(traced.trace.flightRecorded),
               tracedSteps),
         "count"},
        {"obs.flight_events_dropped",
         static_cast<double>(traced.trace.flightDropped), "count"},
        {"apps.sim_solve_s", ref.solveSeconds, "s"},
        {"apps.parallel_efficiency",
         ratio(ref.solveSeconds, kPlaces * median(cleanSeconds)), "ratio"},
        {"apps.solves", static_cast<double>(s.solve.size()), "count"},
    };
    correct = correct && failed == 0;
  }

  const double runSteal = stealShare(cpuBefore, readCpuTimes());
  const double calibAfter = calibrationMops();
  std::cerr << std::setprecision(4) << "perfbench: host: nproc "
            << usableCpus() << ", steal share " << runSteal
            << ", calibration " << calibBefore << " -> " << calibAfter
            << " Mops/s\n";
  if (args.trace) {
    perLayer.push_back({"host.nproc", static_cast<double>(usableCpus()),
                        "count"});
    perLayer.push_back({"host.steal_share", runSteal, "ratio"});
    perLayer.push_back({"host.calibration_mops_before", calibBefore,
                        "Mop/s"});
    perLayer.push_back({"host.calibration_mops_after", calibAfter, "Mop/s"});
  }
  if (g_sink == 42.0) std::cerr << '\n';  // keeps probe results live
  printResult(correct, attempted, failed, args.trace ? perLayer : endToEnd);
  return correct ? 0 : 1;
}
