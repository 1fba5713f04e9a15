#include "framework/resilient_executor.h"

#include <string>

#include "apgas/runtime.h"
#include "obs/trace_sink.h"

namespace rgml::framework {

using apgas::PlaceGroup;
using apgas::Runtime;

const char* toString(RestoreMode mode) {
  switch (mode) {
    case RestoreMode::Shrink:
      return "shrink";
    case RestoreMode::ShrinkRebalance:
      return "shrink-rebalance";
    case RestoreMode::ReplaceRedundant:
      return "replace-redundant";
    case RestoreMode::ReplaceElastic:
      return "replace-elastic";
    case RestoreMode::AlgorithmBased:
      return "algorithm-based";
  }
  return "?";
}

namespace {
/// True if `ep` is (or contains) a dead-place failure — the recoverable
/// kind. Everything else propagates to the caller.
bool isDeadPlaceFailure(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const apgas::DeadPlaceException&) {
    return true;
  } catch (const apgas::MultipleExceptions& me) {
    return me.containsDeadPlace();
  } catch (...) {
    return false;
  }
}

/// The failing place named by the exception (for the failure span).
apgas::PlaceId firstDeadPlaceOf(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const apgas::DeadPlaceException& dpe) {
    return dpe.place();
  } catch (const apgas::MultipleExceptions& me) {
    return me.firstDeadPlace();
  } catch (...) {
    return apgas::kInvalidPlace;
  }
}

/// True if `ep` is (or contains) a SnapshotLostException: the committed
/// checkpoint itself lost data, so retrying the restore cannot help.
bool isSnapshotLoss(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const apgas::SnapshotLostException&) {
    return true;
  } catch (const apgas::MultipleExceptions& me) {
    return me.containsSnapshotLoss();
  } catch (...) {
    return false;
  }
}
}  // namespace

ResilientExecutor::ResilientExecutor(ExecutorConfig config)
    : config_(std::move(config)),
      places_(config_.places),
      spares_(config_.spares) {
  if (places_.empty()) {
    throw apgas::ApgasError("ResilientExecutor: empty place group");
  }
  if (config_.checkpointInterval < 1) {
    throw apgas::ApgasError("ResilientExecutor: checkpointInterval < 1");
  }
  if (config_.replication < 1) {
    throw apgas::ApgasError("ResilientExecutor: replication < 1");
  }
  store_.setReplication(config_.replication);
  store_.setMode(config_.checkpointMode);
  store_.setLossyConfig(config_.lossy);
}

RunStats ResilientExecutor::run(ResilientIterativeApp& app,
                                apgas::FaultInjector* injector) {
  Runtime& rt = Runtime::world();
  if (!rt.resilientFinish()) {
    throw apgas::ApgasError(
        "ResilientExecutor requires resilient finish (Runtime::init with "
        "resilientFinish=true): non-resilient X10 cannot survive failures");
  }

  RunStats stats;
  const double t0 = rt.time();
  long iter = 0;  // completed logical iterations
  restoreAttempts_ = 0;

  obs::TraceSink* sink = obs::TraceSink::current();
  const char* modeName = toString(config_.mode);
  // Step/checkpoint durations in the paper's range: 0.1 ms .. 10 s.
  const std::vector<double> kSecondsBuckets{1e-4, 1e-3, 1e-2, 0.1, 1.0,
                                            10.0};

  while (!app.isFinished()) {
    std::size_t stepSpan = 0;
    try {
      if (config_.maxSteps > 0 && stats.stepsExecuted >= config_.maxSteps) {
        throw StepBudgetExceeded(config_.maxSteps, iter);
      }
      const double s0 = rt.time();
      {
        // Phase tag: every span emitted beneath app.step() — comms, finish
        // acks — attributes to the "step" phase in the analysis layer.
        obs::PhaseScope phase("step");
        if (sink != nullptr) {
          stepSpan = sink->open(obs::Category::Step, "step", iter + 1,
                                rt.here().id(), s0);
        }
        app.step();
        if (sink != nullptr) {
          sink->close(stepSpan, rt.time(), 0, {{"mode", modeName}});
          // Locked helpers: Threads-backend workers may be recording into
          // the same sink concurrently.
          sink->addMetric("executor.steps");
          sink->observeMetric("executor.step_seconds", kSecondsBuckets,
                              rt.time() - s0);
        }
      }
      ++stats.stepsExecuted;
      ++iter;
      if (config_.iterationHook) {
        config_.iterationHook(iter);
      }
      if (injector != nullptr) {
        // Cooperative kills armed for this iteration fire here; the failure
        // is then observed by the next step or checkpoint, exactly like a
        // crash between iterations on a real cluster.
        injector->onIterationCompleted(iter);
      }
      if (iter % config_.checkpointInterval == 0) {
        const double c0 = rt.time();
        std::size_t ckptSpan = 0;
        obs::PhaseScope phase("checkpoint");
        if (sink != nullptr) {
          ckptSpan = sink->open(obs::Category::CheckpointSave, "checkpoint",
                                iter, rt.here().id(), c0);
        }
        store_.setIteration(iter);
        app.checkpoint(store_);
        if (store_.inProgress()) {
          throw apgas::ApgasError(
              "checkpoint() returned without commit() or cancelSnapshot()");
        }
        if (sink != nullptr) {
          sink->close(ckptSpan, rt.time(), 0, {{"mode", modeName}});
          sink->addMetric("executor.checkpoints");
          sink->observeMetric("executor.checkpoint_seconds",
                              kSecondsBuckets, rt.time() - c0);
        }
        stats.checkpointTime += rt.time() - c0;
        ++stats.checkpointsTaken;
      }
    } catch (...) {
      const std::exception_ptr ep = std::current_exception();
      if (!isDeadPlaceFailure(ep)) {
        if (sink != nullptr) sink->abandonOpen(rt.time());
        std::rethrow_exception(ep);
      }
      const double r0 = rt.time();
      const apgas::PlaceId victim = firstDeadPlaceOf(ep);
      std::size_t restoreSpan = 0;
      {
        obs::PhaseScope phase("restore");
        if (sink != nullptr) {
          // The failure interrupted whichever step/checkpoint spans were
          // open; close them before recording the recovery work.
          sink->abandonOpen(r0);
          sink->instant(obs::Category::Kill, "failure", iter,
                        static_cast<int>(victim), r0, 0,
                        {{"victim", std::to_string(victim)},
                         {"mode", modeName}});
          restoreSpan = sink->open(obs::Category::Restore, "restore", iter,
                                   rt.here().id(), r0);
        }
        iter = handleFailure(app, injector, iter);
        stats.lastRestoredTo = iter;
        if (sink != nullptr) {
          sink->close(restoreSpan, rt.time(), 0,
                      {{"mode", modeName},
                       {"victim", std::to_string(victim)},
                       {"restored_to", std::to_string(iter)}});
          sink->addMetric("executor.failures");
          sink->observeMetric("executor.restore_seconds", kSecondsBuckets,
                              rt.time() - r0);
        }
      }
      stats.restoreTime += rt.time() - r0;
      ++stats.failuresHandled;
      if (config_.checkpointAfterRestore) {
        // Re-establish full double-storage redundancy (including the
        // read-only snapshots, re-saved over the new group).
        const double c0 = rt.time();
        obs::PhaseScope phase("checkpoint");
        store_ = resilient::AppResilientStore{};
        // The fresh store must inherit the *whole* checkpoint
        // configuration, not just k: resetting it used to silently drop a
        // non-default mode (and the codec config), so every
        // post-restore checkpoint of a Lossy/Delta run degraded to the
        // default mode for the rest of the run.
        store_.setReplication(config_.replication);
        store_.setMode(config_.checkpointMode);
        store_.setLossyConfig(config_.lossy);
        store_.setIteration(iter);
        app.checkpoint(store_);
        if (store_.inProgress()) {
          throw apgas::ApgasError(
              "checkpoint() returned without commit() or cancelSnapshot()");
        }
        stats.checkpointTime += rt.time() - c0;
        ++stats.checkpointsTaken;
      }
    }
  }

  stats.iterationsCompleted = iter;
  stats.totalTime = rt.time() - t0;
  stats.finalPlaces = places_;
  return stats;
}

long ResilientExecutor::handleFailure(ResilientIterativeApp& app,
                                      apgas::FaultInjector* injector,
                                      long currentIter) {
  Runtime& rt = Runtime::world();
  store_.cancelSnapshot();  // discard any half-taken checkpoint
  // Even AlgorithmBased recovery needs a committed snapshot: the app's
  // read-only inputs (A, b) are reloaded from the replicated store while
  // the iterate is reconstructed from surviving replicas.
  if (!store_.hasCommitted()) {
    throw apgas::UnrecoverableError(
        "ResilientExecutor: place failure before the first committed "
        "checkpoint; cannot recover");
  }

  // Elastic places created by earlier attempts of *this* recovery whose
  // restore was interrupted by a cascading failure: reused before new
  // places are allocated, so every created place ends up adopted into the
  // final group (no leaked places when a kill lands mid-restore).
  std::vector<apgas::PlaceId> elasticPool;

  for (long attempt = 0; attempt < config_.maxRestoreAttempts; ++attempt) {
    PlaceGroup newPlaces;
    RestoreMode effectiveMode = config_.mode;
    switch (config_.mode) {
      case RestoreMode::Shrink:
      case RestoreMode::ShrinkRebalance:
        newPlaces = places_.filterDead();
        break;
      case RestoreMode::ReplaceRedundant: {
        newPlaces = places_.replaceDead(spares_);
        // Spares consumed by replaceDead can no longer be offered again.
        std::erase_if(spares_, [&](apgas::PlaceId s) {
          return newPlaces.contains(apgas::Place(s)) ||
                 rt.isDead(s);
        });
        if (newPlaces.size() < places_.size()) {
          // Out of spares: the paper falls back to shrink semantics.
          effectiveMode = RestoreMode::Shrink;
        }
        break;
      }
      case RestoreMode::AlgorithmBased:
        newPlaces = places_.filterDead();
        if (!app.supportsAlgorithmRecovery()) {
          // The app cannot rebuild the lost partition from its recurrence;
          // fall back to rollback semantics (mirrors the out-of-spares
          // fallback of ReplaceRedundant).
          effectiveMode = RestoreMode::Shrink;
        }
        break;
      case RestoreMode::ReplaceElastic: {
        const auto dead = places_.deadPlaces();
        std::vector<apgas::PlaceId> replacements;
        for (apgas::PlaceId p : elasticPool) {
          if (!rt.isDead(p)) replacements.push_back(p);
        }
        if (replacements.size() < dead.size()) {
          const auto fresh = rt.addPlaces(
              static_cast<int>(dead.size() - replacements.size()));
          elasticPool.insert(elasticPool.end(), fresh.begin(), fresh.end());
          replacements.insert(replacements.end(), fresh.begin(), fresh.end());
        }
        newPlaces = places_.replaceDead(replacements);
        break;
      }
    }
    if (newPlaces.empty()) {
      throw apgas::ApgasError("ResilientExecutor: no live places remain");
    }

    if (injector != nullptr) {
      // Cooperative kill-during-restore faults fire after the recovery
      // group is computed, so the death is discovered *while* app.restore
      // redistributes data — a place lost with restore traffic in flight.
      injector->onRestoreAttempt(++restoreAttempts_);
    }

    try {
      app.restore(newPlaces, store_, store_.latestCommittedIteration(),
                  effectiveMode);
      places_ = newPlaces;
      // Algorithm-based recovery rebuilt the live state in place: no
      // rollback happened, so the run resumes at the current iteration
      // instead of re-executing from the checkpoint.
      return effectiveMode == RestoreMode::AlgorithmBased
                 ? currentIter
                 : store_.latestCommittedIteration();
    } catch (...) {
      const std::exception_ptr ep = std::current_exception();
      if (isSnapshotLoss(ep)) {
        // Overlapping failures wiped out every replica of some entry:
        // retrying cannot recreate the data. Fatal by design — at
        // replication k this takes k overlapping kills.
        throw apgas::UnrecoverableError(
            "ResilientExecutor: snapshot data lost — overlapping failures "
            "exceeded the replication factor (k=" +
            std::to_string(config_.replication) + "); cannot recover");
      }
      if (!isDeadPlaceFailure(ep)) std::rethrow_exception(ep);
      // Another place died during the restore: loop and try again with the
      // further-shrunk group.
    }
  }
  throw apgas::ApgasError(
      "ResilientExecutor: restore failed after maxRestoreAttempts cascading "
      "failures");
}

}  // namespace rgml::framework
