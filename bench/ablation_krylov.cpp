// Ablation: algorithm-based partition recovery for the Krylov suite.
//
// Leg 1 (fig5-style): time lost per failure as a function of the
// checkpoint interval, for PCG and GMRES(m) under checkpoint-restore
// (shrink: roll back to the last commit and re-execute) versus
// algorithm-based recovery (reconstruct the lost partition from the
// Krylov recurrence and the replicated read-only inputs, resume at the
// interrupted iteration). Rollback loses restore time PLUS
// (kill - floor(kill/interval)*interval) re-executed iterations, so its
// cost grows with the interval; algorithm-based recovery pays a
// near-constant reconstruction cost at every interval — the crossover is
// the whole point of the technique (checkpoints can be sparse without
// inflating the failure bill).
//
// Leg 2: chaos corpora — single boundary kills, simultaneous adjacent
// double kills at replication 2 and 3, kill-during-restore at 3, and a
// lossy-restart rollback corpus — each classified on the deterministic
// simulator AND the real-threads backend; the classification reports
// must match byte-for-byte.
//
// Emits BENCH_krylov.json for tools/perf_gate: "deterministic" holds the
// simulated time-lost table and the corpus classification counts (exact
// diff), "wall" the machine-dependent fields its tolerances ignore.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apgas/fault_injector.h"
#include "apps/cg_resilient.h"
#include "apps/gmres_resilient.h"
#include "bench_util.h"
#include "harness/report.h"
#include "harness/sweeper.h"

namespace {

using rgml::apgas::Backend;
using rgml::apgas::FaultInjector;
using rgml::apgas::PlaceGroup;
using rgml::apgas::Runtime;
using rgml::framework::ExecutorConfig;
using rgml::framework::ResilientExecutor;
using rgml::framework::RestoreMode;
using rgml::harness::AppKind;
using rgml::harness::ChaosSweeper;
using rgml::harness::OutcomeKind;
using rgml::harness::ScenarioOutcome;
using rgml::harness::SweepOptions;
using rgml::harness::SweepResult;

constexpr int kPlaces = 6;
constexpr long kIterations = 16;
constexpr long kKillAt = 15;  ///< worst case: one short of the end
constexpr rgml::apgas::PlaceId kVictim = 3;
const long kIntervals[] = {2, 4, 8};
const RestoreMode kModes[] = {RestoreMode::Shrink,
                              RestoreMode::AlgorithmBased};

struct LostCell {
  std::string app;
  long interval = 0;
  RestoreMode mode = RestoreMode::Shrink;
  double timeLostMs = 0.0;  ///< simulated: failed run minus failure-free
  long restoredTo = -1;
  int recovered = 0;
};

template <typename ResilientApp, typename Config>
double totalSimulatedMs(const Config& config, long interval,
                        RestoreMode mode, bool withKill, long& restoredTo) {
  Runtime::init(kPlaces, rgml::apgas::paperCalibratedCostModel(), true);
  ResilientApp app(config, PlaceGroup::world());
  app.init();

  FaultInjector injector;
  if (withKill) injector.killOnIteration(kKillAt, kVictim);

  ExecutorConfig cfg;
  cfg.places = PlaceGroup::world();
  cfg.checkpointInterval = interval;
  cfg.mode = mode;
  ResilientExecutor executor(cfg);
  Runtime& rt = Runtime::world();
  const double t0 = rt.time();
  const auto stats = executor.run(app, withKill ? &injector : nullptr);
  restoredTo = stats.lastRestoredTo;
  if (stats.iterationsCompleted != kIterations) return -1.0;
  return (rt.time() - t0) * 1e3;
}

template <typename ResilientApp, typename Config>
LostCell measureLost(const char* name, const Config& config, long interval,
                     RestoreMode mode) {
  LostCell cell;
  cell.app = name;
  cell.interval = interval;
  cell.mode = mode;
  long ignored = -1;
  const double base = totalSimulatedMs<ResilientApp>(config, interval, mode,
                                                     false, ignored);
  const double failed = totalSimulatedMs<ResilientApp>(config, interval, mode,
                                                       true, cell.restoredTo);
  if (base >= 0.0 && failed >= 0.0) {
    cell.recovered = 1;
    cell.timeLostMs = failed - base;
  }
  return cell;
}

// ---- chaos corpora -------------------------------------------------------

struct Corpus {
  std::string name;
  SweepOptions options;
};

struct CorpusResult {
  std::string name;
  std::map<std::string, long> kinds;  ///< toString(kind) -> count (Sim)
  long scenarios = 0;
  int backendMatch = 0;  ///< Threads classification byte-identical to Sim
  int allOk = 0;
};

SweepOptions corpusBase() {
  SweepOptions opt;
  opt.apps = {AppKind::Cg};
  opt.modes = {RestoreMode::AlgorithmBased};
  opt.iterations = 8;
  opt.places = 4;
  opt.spares = 1;
  opt.checkpointInterval = 3;
  opt.allVictims = false;
  opt.shrinkFailures = false;
  opt.jobs = 2;
  return opt;
}

std::vector<Corpus> buildCorpora() {
  std::vector<Corpus> corpora;

  Corpus boundary{"boundary", corpusBase()};
  boundary.options.apps = {AppKind::Cg, AppKind::Gmres};
  corpora.push_back(boundary);

  Corpus multi2{"multikill_k2", corpusBase()};
  multi2.options.apps = {AppKind::Gmres};
  multi2.options.simultaneousKills = 2;
  multi2.options.replication = 2;
  corpora.push_back(multi2);

  Corpus multi3{"multikill_k3", corpusBase()};
  multi3.options.apps = {AppKind::Gmres};
  multi3.options.simultaneousKills = 2;
  multi3.options.replication = 3;
  corpora.push_back(multi3);

  Corpus restoreKills{"restore_kills_k3", corpusBase()};
  restoreKills.options.restoreKills = true;
  restoreKills.options.replication = 3;
  corpora.push_back(restoreKills);

  // Lossy restart under classic rollback: the codec's bounded restart
  // error must still classify Ok (within the sweeper's lossy tolerance)
  // for the Krylov apps, exactly as for the original five.
  Corpus lossy{"lossy_restart", corpusBase()};
  lossy.options.modes = {RestoreMode::Shrink};
  lossy.options.checkpointMode = rgml::resilient::CheckpointMode::Lossy;
  lossy.options.lossyErrorBound = 1e-9;
  corpora.push_back(lossy);

  return corpora;
}

CorpusResult runCorpus(const Corpus& corpus) {
  CorpusResult result;
  result.name = corpus.name;

  SweepOptions opt = corpus.options;
  opt.backend = Backend::Simulated;
  const SweepResult sim = ChaosSweeper(opt).run();
  opt.backend = Backend::Threads;
  const SweepResult threads = ChaosSweeper(opt).run();

  result.scenarios = sim.scenariosRun;
  result.allOk = sim.allOk() && threads.allOk() ? 1 : 0;
  for (const ScenarioOutcome& o : sim.outcomes) {
    ++result.kinds[toString(o.kind)];
  }
  result.backendMatch = rgml::harness::classificationReport(sim) ==
                                rgml::harness::classificationReport(threads)
                            ? 1
                            : 0;
  return result;
}

// ---- output --------------------------------------------------------------

std::string lostKey(const LostCell& c) {
  return c.app + ".i" + std::to_string(c.interval) + "." +
         rgml::framework::toString(c.mode);
}

bool writeBench(const std::string& path, const std::vector<LostCell>& lost,
                const std::vector<CorpusResult>& corpora, std::size_t jobs,
                double wallSeconds) {
  using Layout = rgml::obs::JsonWriter::Layout;
  return rgml::bench::writeBenchFile(
      path, "krylov_ablation",
      [&](rgml::obs::JsonWriter& w) {
        w.key("time_lost_ms").beginObject(Layout::Lines);
        for (const LostCell& c : lost) {
          w.key(lostKey(c))
              .beginObject()
              .member("lost", c.timeLostMs)
              .member("restored_to", c.restoredTo)
              .member("recovered", c.recovered)
              .end();
        }
        w.end().key("corpus").beginObject(Layout::Lines);
        for (const CorpusResult& r : corpora) {
          w.key(r.name)
              .beginObject()
              .member("scenarios", r.scenarios)
              .member("all_ok", r.allOk)
              .member("backend_match", r.backendMatch);
          for (const auto& [kind, count] : r.kinds) w.member(kind, count);
          w.end();
        }
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
  const std::string benchOut =
      bench::benchOut(argc, argv, "BENCH_krylov.json");

  apps::CgResilientConfig cg;
  cg.iterations = kIterations;
  apps::GmresResilientConfig gmres;
  gmres.cycles = kIterations;

  constexpr std::size_t kIntervalCount = std::size(kIntervals);
  constexpr std::size_t kModeCount = std::size(kModes);
  std::vector<LostCell> lost(2 * kIntervalCount * kModeCount);
  const std::vector<Corpus> corpora = buildCorpora();
  std::vector<CorpusResult> corpusResults(corpora.size());

  // Every cell and corpus re-initialises its own world: fan them all out
  // together (the corpora dominate the wall time).
  const std::size_t lostCount = lost.size();
  harness::parallelFor(jobs, lostCount + corpora.size(), [&](std::size_t i) {
    apgas::WorldGuard guard;
    if (i >= lostCount) {
      corpusResults[i - lostCount] = runCorpus(corpora[i - lostCount]);
      return;
    }
    const long interval = kIntervals[(i / kModeCount) % kIntervalCount];
    const RestoreMode mode = kModes[i % kModeCount];
    if (i < kIntervalCount * kModeCount) {
      lost[i] = measureLost<apps::CgResilient>("cg", cg, interval, mode);
    } else {
      lost[i] =
          measureLost<apps::GmresResilient>("gmres", gmres, interval, mode);
    }
  });

  std::printf("# Krylov recovery ablation: %d places, %ld iterations, kill "
              "at %ld, victim %d\n",
              kPlaces, kIterations, kKillAt, static_cast<int>(kVictim));
  std::printf("%-7s %-9s %-16s %12s %11s %9s\n", "app", "interval", "mode",
              "lost-ms", "restored-to", "recovered");
  for (const LostCell& c : lost) {
    std::printf("%-7s %-9ld %-16s %12.3f %11ld %9s\n", c.app.c_str(),
                c.interval, framework::toString(c.mode), c.timeLostMs,
                c.restoredTo, c.recovered ? "yes" : "NO");
  }
  std::printf("%-18s %9s %6s %13s  kinds\n", "corpus", "scenarios", "ok",
              "backend-match");
  for (const CorpusResult& r : corpusResults) {
    std::printf("%-18s %9ld %6s %13s ", r.name.c_str(), r.scenarios,
                r.allOk ? "yes" : "NO", r.backendMatch ? "yes" : "NO");
    for (const auto& [kind, count] : r.kinds) {
      std::printf(" %s=%ld", kind.c_str(), count);
    }
    std::printf("\n");
  }
  std::printf("# acceptance: algorithm-based loses less time per failure "
              "than shrink for at least one (app, interval) cell; every "
              "corpus classifies identically on Sim and Threads\n");

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (benchOut != "none" &&
      !writeBench(benchOut, lost, corpusResults, jobs, wallSeconds)) {
    return 1;
  }

  bool algoWinsSomewhere = false;
  bool allRecovered = true;
  for (std::size_t i = 0; i + 1 < lost.size(); i += kModeCount) {
    const LostCell& shrink = lost[i];      // kModes[0]
    const LostCell& algo = lost[i + 1];    // kModes[1]
    allRecovered = allRecovered && shrink.recovered && algo.recovered;
    algoWinsSomewhere = algoWinsSomewhere || algo.timeLostMs < shrink.timeLostMs;
  }
  bool corporaOk = true;
  for (const CorpusResult& r : corpusResults) {
    if (r.scenarios == 0 || !r.allOk || !r.backendMatch) corporaOk = false;
  }
  return algoWinsSomewhere && allRecovered && corporaOk ? 0 : 1;
}
