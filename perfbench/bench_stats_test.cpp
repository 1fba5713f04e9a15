// Unit tests of the benchmark's own helpers: percentiles with their
// sample counts, the kill schedule, victim selection, and the
// time-lost-per-failure accounting (including a failure that surfaces one
// step after the kill).
#include "bench_stats.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

using rgml::apgas::PlaceId;

Op step(long iteration, double start, double end, bool failed = false) {
  return {Op::Kind::Step, iteration, start, end, failed};
}
Op checkpoint(long iteration, double start, double end, bool failed = false) {
  return {Op::Kind::Checkpoint, iteration, start, end, failed};
}
Op restore(long to, double start, double end, bool failed = false) {
  return {Op::Kind::Restore, to, start, end, failed};
}

TEST(Percentile, CarriesItsSampleCount) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const Percentile p50 = percentile(xs, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  const Percentile p99 = percentile(xs, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 99.01);
  EXPECT_EQ(p99.samples, 100u);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0).value, 100.0);
}

TEST(Percentile, EmptyAndSingleSamples) {
  const Percentile none = percentile({}, 0.5);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0.0);
  const Percentile one = percentile({7.0}, 0.99);
  EXPECT_EQ(one.samples, 1u);
  EXPECT_DOUBLE_EQ(one.value, 7.0);
}

TEST(QuietSamples, DropsOnlyTheNoisyWhenMostAreQuiet) {
  EXPECT_EQ(quietSamples({0.0, 0.0, 0.08, 0.0, 0.005}, 0.01),
            (std::vector<std::size_t>{0, 1, 3, 4}));
  EXPECT_EQ(quietSamples({0.0, 0.0, 0.0, 0.0}, 0.01),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(QuietSamples, KeepsAtLeastTheQuieterHalf) {
  EXPECT_EQ(quietSamples({0.3, 0.05, 0.2, 0.1}, 0.01),
            (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(quietSamples({0.5, 0.1, 0.9}, 0.01),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(quietSamples({0.7}, 0.01), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(quietSamples({}, 0.01).empty());
}

TEST(KillSchedule, SkipsKillsBeforeTheFirstCheckpointAndAtTheEnd) {
  EXPECT_EQ(killIterations(75, 30, 15, 10), (std::vector<long>{15, 45}));
  EXPECT_EQ(killIterations(140, 60, 10, 20), (std::vector<long>{70, 130}));
  EXPECT_EQ(killIterations(45, 15, 0, 1), (std::vector<long>{15, 30}));
  EXPECT_TRUE(killIterations(45, 0, 0, 1).empty());
}

TEST(Victim, NeverPicksPlaceZeroOrSlotZero) {
  rgml::la::SplitMix64 rng(7);
  const std::vector<std::vector<PlaceId>> groups{
      {0, 1, 2}, {0, 4, 2}, {0, 3}, {2, 0, 5}};
  const std::vector<std::set<PlaceId>> reachable{
      {1, 2}, {2, 4}, {3}, {5}};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::set<PlaceId> seen;
    for (int draw = 0; draw < 2000; ++draw) {
      const PlaceId victim = pickVictim(groups[g], rng);
      EXPECT_NE(victim, 0);
      EXPECT_NE(victim, groups[g][0]);
      seen.insert(victim);
    }
    EXPECT_EQ(seen, reachable[g]) << "group " << g;
  }
}

TEST(Victim, ThrowsWhenNoPlaceIsKillable) {
  rgml::la::SplitMix64 rng(1);
  EXPECT_THROW((void)pickVictim({0}, rng), std::invalid_argument);
  EXPECT_THROW((void)pickVictim({3, 0}, rng), std::invalid_argument);
}

TEST(TimeLost, StepFailureCountsAbortedRestoreAndReexecutedSteps) {
  // Checkpoint at 10; the kill after iteration 12 surfaces in step 13.
  const std::vector<Op> log{
      step(10, 0.0, 1.0),   checkpoint(10, 1.0, 1.5), step(11, 1.5, 2.5),
      step(12, 2.5, 3.5),   step(13, 3.5, 3.75, true), restore(10, 4.0, 5.0),
      step(11, 5.0, 6.0),   step(12, 6.0, 7.5),        step(13, 7.5, 8.5)};
  const std::vector<FailureCost> costs = accountFailures(log);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0].abortedSeconds, 0.25);
  EXPECT_DOUBLE_EQ(costs[0].restoreSeconds, 1.25);
  EXPECT_EQ(costs[0].reexecutedSteps, 2);
  EXPECT_DOUBLE_EQ(costs[0].reexecutedSeconds, 2.5);
  EXPECT_DOUBLE_EQ(costs[0].lostSeconds(), 4.0);
  EXPECT_EQ(costs[0].iterationAtFailure, 12);
  EXPECT_EQ(costs[0].restoredTo, 10);
}

TEST(TimeLost, FailureSurfacingOneStepLateReexecutesNothing) {
  // The kill lands after iteration 10, a checkpoint iteration. LinReg's
  // checkpoint touches only surviving replicas, so it commits; the next
  // step throws and the rollback target is iteration 10 itself.
  const std::vector<Op> log{
      step(10, 0.0, 1.0),  checkpoint(10, 1.0, 1.5), step(11, 1.5, 1.75, true),
      restore(10, 2.0, 3.0), step(11, 3.0, 4.0),      step(12, 4.0, 5.0)};
  const std::vector<FailureCost> costs = accountFailures(log);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0].abortedSeconds, 0.25);
  EXPECT_DOUBLE_EQ(costs[0].restoreSeconds, 1.25);
  EXPECT_EQ(costs[0].reexecutedSteps, 0);
  EXPECT_DOUBLE_EQ(costs[0].lostSeconds(), 1.5);
  EXPECT_EQ(costs[0].iterationAtFailure, 10);
  EXPECT_EQ(costs[0].restoredTo, 10);
}

TEST(TimeLost, CheckpointFailureRedoesTheStepSinceTheLastCheckpoint) {
  // A checkpoint every iteration: the kill after step 15 makes checkpoint
  // 15 throw, the solve rolls back to 14 and recomputes step 15.
  const std::vector<Op> log{
      step(14, 0.0, 1.0),      checkpoint(14, 1.0, 2.0),
      step(15, 2.0, 3.0),      checkpoint(15, 3.0, 3.5, true),
      restore(14, 3.75, 4.5),  step(15, 4.5, 5.5),
      checkpoint(15, 5.5, 6.5)};
  const std::vector<FailureCost> costs = accountFailures(log);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0].abortedSeconds, 0.5);
  EXPECT_DOUBLE_EQ(costs[0].restoreSeconds, 1.0);
  EXPECT_EQ(costs[0].reexecutedSteps, 1);
  EXPECT_DOUBLE_EQ(costs[0].lostSeconds(), 2.5);
  EXPECT_EQ(costs[0].iterationAtFailure, 15);
  EXPECT_EQ(costs[0].restoredTo, 14);
}

TEST(TimeLost, CheckpointAfterRestoreIsRecoveryWork) {
  const std::vector<Op> log{
      step(13, 0.0, 0.5, true), restore(10, 1.0, 2.0),
      {Op::Kind::RestoreCheckpoint, 10, 2.0, 2.75, false},
      step(11, 2.75, 3.75),     step(12, 3.75, 4.75),
      step(13, 4.75, 5.75)};
  const std::vector<FailureCost> costs = accountFailures(log);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0].restoreSeconds, 2.25);
  EXPECT_EQ(costs[0].reexecutedSteps, 2);
  EXPECT_DOUBLE_EQ(costs[0].lostSeconds(), 0.5 + 2.25 + 2.0);
}

TEST(TimeLost, KillDuringRestoreIsPartOfTheSameFailure) {
  const std::vector<Op> log{
      step(12, 0.0, 1.0),       step(13, 1.0, 1.5, true),
      restore(10, 2.0, 2.5, true), restore(10, 3.0, 4.0),
      step(11, 4.0, 5.0),       step(12, 5.0, 6.0),
      step(13, 6.0, 7.0)};
  const std::vector<FailureCost> costs = accountFailures(log);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0].restoreSeconds, 2.5);
  EXPECT_EQ(costs[0].reexecutedSteps, 2);
}

TEST(TimeLost, EachFailureIsAccountedOnceAndUnrecoveredOnesNotAtAll) {
  const std::vector<Op> log{
      step(1, 0.0, 1.0),       checkpoint(1, 1.0, 1.5),
      step(2, 1.5, 2.0, true), restore(1, 2.0, 3.0),
      step(2, 3.0, 4.0),       checkpoint(2, 4.0, 4.5),
      step(3, 4.5, 5.0, true), restore(2, 5.0, 6.0),
      step(3, 6.0, 7.0),       step(4, 7.0, 7.5, true)};
  const std::vector<FailureCost> costs = accountFailures(log);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].restoredTo, 1);
  EXPECT_EQ(costs[1].restoredTo, 2);
  EXPECT_EQ(costs[0].reexecutedSteps + costs[1].reexecutedSteps, 0);
}

}  // namespace
}  // namespace perfbench
