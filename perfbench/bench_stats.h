// Pure helpers of the wall-clock benchmark (perfbench/runner.cpp):
// percentiles that carry their sample count, the kill schedule, victim
// selection, and per-failure time-lost accounting over the operation log
// the runner's timing wrapper records. Nothing here touches the runtime,
// so bench_stats_test drives every helper with synthetic inputs.
#pragma once

#include <cstddef>
#include <vector>

#include "apgas/place.h"
#include "la/rand.h"

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Quantile q in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). An empty sample gives {0, 0}.
[[nodiscard]] Percentile percentile(std::vector<double> xs, double q);

/// Indices, in ascending order, of the entries of `noise` at or below the
/// larger of `floor` and the median: at least half of them, and all of
/// them when no more than half exceed `floor`.
[[nodiscard]] std::vector<std::size_t> quietSamples(
    const std::vector<double>& noise, double floor);

/// Iterations after which a kill fires: phase + k * period for k >= 0,
/// keeping only those after the first checkpoint (a failure before any
/// committed checkpoint is unrecoverable by design) and before the last
/// iteration (no later step or checkpoint would observe the failure).
[[nodiscard]] std::vector<long> killIterations(long iterations, long period,
                                               long phase,
                                               long checkpointInterval);

/// A uniformly drawn member of `group` that is neither slot 0 nor place 0
/// (the paper's immortal place). Throws std::invalid_argument when no
/// member qualifies.
[[nodiscard]] rgml::apgas::PlaceId pickVictim(
    const std::vector<rgml::apgas::PlaceId>& group,
    rgml::la::SplitMix64& rng);

/// One call of the app's step/checkpoint/restore as the executor made it.
struct Op {
  /// RestoreCheckpoint is the fresh checkpoint the executor takes right
  /// after a restore (ExecutorConfig::checkpointAfterRestore) to re-double
  /// snapshots that were saved read-only: recovery work, not progress.
  enum class Kind { Step, Checkpoint, Restore, RestoreCheckpoint };
  Kind kind = Kind::Step;
  /// Step: the iteration it computes. Checkpoint: the iteration saved.
  /// Restore and RestoreCheckpoint: the iteration rolled back to.
  long iteration = 0;
  double start = 0.0;  ///< wall seconds
  double end = 0.0;    ///< wall seconds; the throw time when failed
  bool failed = false;
};

/// The wall time one failure cost: everything that did not advance the
/// solve between the throw and the first iteration beyond the failure.
struct FailureCost {
  double abortedSeconds = 0.0;  ///< the failed step/checkpoint, to its throw
  /// Throw to the end of the successful restore and the checkpoint right
  /// after it: the executor's recovery, elastic place creation, and any
  /// restore attempts a cascade aborted.
  double restoreSeconds = 0.0;
  double reexecutedSeconds = 0.0;  ///< steps recomputing lost iterations
  long reexecutedSteps = 0;
  long iterationAtFailure = 0;  ///< iterations completed when it surfaced
  long restoredTo = 0;

  [[nodiscard]] double lostSeconds() const {
    return abortedSeconds + restoreSeconds + reexecutedSeconds;
  }
};

/// Account every recovered failure in `log` (one solve, in call order).
/// A failure that surfaces a step late — the kill landed on a checkpoint
/// iteration whose checkpoint still committed — rolls back to that very
/// checkpoint and re-executes nothing: it costs the aborted step plus the
/// restore. A failure with no successful restore after it (the solve
/// threw) is not counted.
[[nodiscard]] std::vector<FailureCost> accountFailures(
    const std::vector<Op>& log);

}  // namespace perfbench
