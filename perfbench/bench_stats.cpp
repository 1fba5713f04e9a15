#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> xs, double q) {
  Percentile out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  out.value = xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  return out;
}

std::vector<std::size_t> quietSamples(const std::vector<double>& noise,
                                      double floor) {
  const double limit = std::max(floor, percentile(noise, 0.5).value);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < noise.size(); ++i) {
    if (noise[i] <= limit) out.push_back(i);
  }
  return out;
}

std::vector<long> killIterations(long iterations, long period, long phase,
                                 long checkpointInterval) {
  std::vector<long> out;
  if (period < 1) return out;
  for (long k = phase; k < iterations; k += period) {
    if (k > checkpointInterval) out.push_back(k);
  }
  return out;
}

rgml::apgas::PlaceId pickVictim(const std::vector<rgml::apgas::PlaceId>& group,
                                rgml::la::SplitMix64& rng) {
  std::vector<rgml::apgas::PlaceId> candidates;
  for (std::size_t slot = 1; slot < group.size(); ++slot) {
    if (group[slot] != 0) candidates.push_back(group[slot]);
  }
  if (candidates.empty()) {
    throw std::invalid_argument("pickVictim: no killable place in the group");
  }
  const long pick = rng.nextLong(static_cast<long>(candidates.size()));
  return candidates[static_cast<std::size_t>(pick)];
}

std::vector<FailureCost> accountFailures(const std::vector<Op>& log) {
  std::vector<FailureCost> out;
  std::size_t i = 0;
  while (i < log.size()) {
    const Op& failure = log[i];
    if (!failure.failed || failure.kind == Op::Kind::Restore) {
      ++i;
      continue;
    }
    // Restore attempts a cascade aborted, and anything else between the
    // throw and the successful restore, belong to this failure.
    std::size_t r = i + 1;
    while (r < log.size() &&
           !(log[r].kind == Op::Kind::Restore && !log[r].failed)) {
      ++r;
    }
    if (r == log.size()) break;
    if (r + 1 < log.size() &&
        log[r + 1].kind == Op::Kind::RestoreCheckpoint && !log[r + 1].failed) {
      ++r;
    }

    FailureCost cost;
    cost.abortedSeconds = failure.end - failure.start;
    cost.restoreSeconds = log[r].end - failure.end;
    cost.iterationAtFailure = failure.kind == Op::Kind::Step
                                  ? failure.iteration - 1
                                  : failure.iteration;
    cost.restoredTo = log[r].iteration;
    long next = cost.restoredTo + 1;
    for (std::size_t j = r + 1;
         j < log.size() && next <= cost.iterationAtFailure; ++j) {
      const Op& redo = log[j];
      if (redo.failed) break;  // the next failure accounts from here on
      if (redo.kind == Op::Kind::Step && redo.iteration == next) {
        cost.reexecutedSeconds += redo.end - redo.start;
        ++cost.reexecutedSteps;
        ++next;
      }
    }
    out.push_back(cost);
    i = r + 1;
  }
  return out;
}

}  // namespace perfbench
