// The resilient iterative application framework (paper §V).
//
// Applications implement the four-method programming model
// (isFinished / step / checkpoint / restore); the executor runs step() in a
// loop, checkpoints every `checkpointInterval` iterations through an
// AppResilientStore, and on a DeadPlaceException rolls the application back
// to the latest committed checkpoint using one of the restoration modes:
//
//   * Shrink            — continue on the surviving places; DistBlockMatrix
//                         keeps its grid (cheap block-by-block restore,
//                         load imbalance).
//   * ShrinkRebalance   — continue on the surviving places with a
//                         recalculated grid (expensive overlapping-region
//                         restore, even load).
//   * ReplaceRedundant  — a pre-allocated spare place stands in for the
//                         dead one (same distribution, cheapest restore;
//                         falls back to shrink when spares run out).
//   * ReplaceElastic    — (the paper's future work, implemented here) a
//                         brand-new place is created on demand to replace
//                         the dead one.
//   * AlgorithmBased    — no rollback at all: the app reconstructs the
//                         lost partition from the algorithm's own
//                         recurrence plus surviving replicas (read-only
//                         inputs come from the replicated store), and the
//                         run continues from the CURRENT iteration. Only
//                         apps that opt in via supportsAlgorithmRecovery()
//                         use it; others fall back to Shrink, mirroring
//                         the out-of-spares fallback of ReplaceRedundant.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "apgas/fault_injector.h"
#include "apgas/place_group.h"
#include "resilient/app_resilient_store.h"

namespace rgml::framework {

enum class RestoreMode {
  Shrink,
  ShrinkRebalance,
  ReplaceRedundant,
  ReplaceElastic,
  AlgorithmBased,
};

[[nodiscard]] const char* toString(RestoreMode mode);

/// Thrown by ResilientExecutor::run when ExecutorConfig::maxSteps is
/// exhausted: the run was aborted as non-terminating, not completed.
class StepBudgetExceeded : public apgas::ApgasError {
 public:
  StepBudgetExceeded(long budget, long iterationsCompleted)
      : apgas::ApgasError("ResilientExecutor: step budget exceeded"),
        budget_(budget),
        iterationsCompleted_(iterationsCompleted) {}

  [[nodiscard]] long budget() const noexcept { return budget_; }
  [[nodiscard]] long iterationsCompleted() const noexcept {
    return iterationsCompleted_;
  }

 private:
  long budget_;
  long iterationsCompleted_;
};

/// The programming model applications implement (paper §V-A2).
class ResilientIterativeApp {
 public:
  virtual ~ResilientIterativeApp() = default;

  /// Termination condition (completed iterations, convergence, ...).
  [[nodiscard]] virtual bool isFinished() = 0;

  /// One iteration of the algorithm.
  virtual void step() = 0;

  /// The app's scalar convergence measure after the last step() (residual
  /// norm, inertia, rank delta, ...): smaller = more converged. NaN (the
  /// default) means the app does not expose one. The lossy-checkpoint
  /// harness uses it to measure iterations-to-reconverge after a restart
  /// from a bounded-error snapshot.
  [[nodiscard]] virtual double convergenceMetric() {
    return std::numeric_limits<double>::quiet_NaN();
  }

  /// Save the state-carrying GML objects into `store`
  /// (startNewSnapshot / save / saveReadOnly / commit).
  virtual void checkpoint(resilient::AppResilientStore& store) = 0;

  /// Roll back to the checkpoint of iteration `snapshotIter`: remake the
  /// GML objects over `newPlaces` (honouring `mode` for block matrices),
  /// then store.restore(). Must also rewind the application's own
  /// iteration/convergence state.
  virtual void restore(const apgas::PlaceGroup& newPlaces,
                       resilient::AppResilientStore& store, long snapshotIter,
                       RestoreMode mode) = 0;

  /// True when the app implements RestoreMode::AlgorithmBased in
  /// restore(): reconstructing the lost partition from the algorithm's
  /// recurrence + surviving data WITHOUT rewinding its iteration state
  /// (read-only inputs may be reloaded from `store`). The executor falls
  /// back to Shrink for apps that return false.
  [[nodiscard]] virtual bool supportsAlgorithmRecovery() const {
    return false;
  }
};

struct ExecutorConfig {
  apgas::PlaceGroup places;            ///< initial working group
  std::vector<apgas::PlaceId> spares;  ///< reserve for ReplaceRedundant
  long checkpointInterval = 10;        ///< iterations between checkpoints
  RestoreMode mode = RestoreMode::Shrink;
  long maxRestoreAttempts = 8;  ///< cascading-failure retry bound

  /// What each checkpoint ships (full / readonly-reuse / delta / lossy /
  /// delta+lossy); see resilient::CheckpointMode.
  resilient::CheckpointMode checkpointMode = resilient::CheckpointMode::Delta;

  /// Codec knobs for the lossy checkpoint modes (errorBound <= 0 =
  /// lossless compression only). Ignored unless usesLossy(checkpointMode).
  resilient::LossyConfig lossy;

  /// Snapshot replication factor k: copies kept per store entry, on k
  /// distinct ring places (clamped to each object's group size). Any
  /// k-1 simultaneous failures between checkpoints are survivable; k
  /// overlapping ones are fatal by design (UnrecoverableError). Default
  /// 2 — the paper's double in-memory storage.
  int replication = 2;

  /// Hard bound on total step() calls (including re-executed ones after a
  /// rollback); 0 = unlimited. When exceeded the executor throws
  /// StepBudgetExceeded — the chaos harness uses this to flag a fault
  /// schedule whose recovery never reaches termination (e.g. a restore
  /// that keeps rewinding) instead of hanging the sweep.
  long maxSteps = 0;

  /// Observer invoked after every completed iteration, before fault
  /// injection and checkpointing, with the just-completed logical
  /// iteration number. The chaos harness hangs per-iteration state
  /// digests and dispatch-counter samples off this hook; it may throw to
  /// abort the run (the exception propagates out of run()).
  std::function<void(long iteration)> iterationHook;

  /// Take a fresh checkpoint immediately after every successful restore.
  /// Closes a redundancy hole the paper's design leaves open: a snapshot
  /// saved with saveReadOnly() is reused across checkpoints, so after a
  /// failure its surviving copy is no longer doubled — a second failure
  /// hitting that copy's holder loses the data even though the application
  /// recovered in between. Costs one extra checkpoint per failure.
  bool checkpointAfterRestore = false;
};

/// Outcome of one executor run. Times are in the backend's clock domain:
/// simulated seconds on the Simulated backend, wall seconds on Threads.
struct RunStats {
  long stepsExecuted = 0;        ///< total step() calls (incl. re-executed)
  long iterationsCompleted = 0;  ///< logical iterations at termination
  long checkpointsTaken = 0;
  long failuresHandled = 0;
  /// Checkpoint iteration the most recent successful restore rolled back
  /// to; -1 when the run handled no failure. Backend-independent — the
  /// equivalence harness asserts it matches across Simulated and Threads.
  long lastRestoredTo = -1;
  double totalTime = 0.0;
  double checkpointTime = 0.0;
  double restoreTime = 0.0;
  apgas::PlaceGroup finalPlaces;
};

class ResilientExecutor {
 public:
  explicit ResilientExecutor(ExecutorConfig config);

  /// Runs `app` to completion, surviving place failures. An optional
  /// fault injector is consulted after every completed iteration
  /// (cooperative kills); failures raised mid-step are handled
  /// identically. Throws if recovery is impossible (no committed
  /// checkpoint, place 0 involved, snapshot data lost, or too many
  /// cascading failures).
  ///
  /// With an obs::TraceSink installed on the calling thread, the run's
  /// event record is its top-level (depth-0) spans: one "step" (category
  /// Step) per step() call and one "checkpoint" (CheckpointSave) per
  /// checkpoint, each annotated with the mode; a step or checkpoint that
  /// a failure interrupts is closed with {"aborted", "true"}. Each
  /// handled failure adds a "failure" instant (Kill) at the victim place
  /// with "victim" and "mode", then a "restore" span (Restore) with
  /// "mode", "victim" and "restored_to" (the iteration the run resumes
  /// from).
  RunStats run(ResilientIterativeApp& app,
               apgas::FaultInjector* injector = nullptr);

  [[nodiscard]] const resilient::AppResilientStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] const apgas::PlaceGroup& currentPlaces() const noexcept {
    return places_;
  }

 private:
  /// Computes the post-failure group per the configured mode and tells the
  /// app to roll back. Returns the iteration the run continues from: the
  /// checkpoint iteration restored to, or `currentIter` unchanged when an
  /// AlgorithmBased recovery succeeded (no rollback). `injector` (may be
  /// null) is consulted at the start of every restore attempt so armed
  /// kill-during-restore faults fire mid-recovery.
  long handleFailure(ResilientIterativeApp& app,
                     apgas::FaultInjector* injector, long currentIter);

  ExecutorConfig config_;
  apgas::PlaceGroup places_;
  std::vector<apgas::PlaceId> spares_;
  resilient::AppResilientStore store_;
  long restoreAttempts_ = 0;  ///< cumulative over the current run
};

}  // namespace rgml::framework
