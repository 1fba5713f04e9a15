// Tests pinning down the virtual-time model's laws: cost formulas, task
// fan-out accounting, deferred local tasks, control-processor behaviour,
// and the calibrated model's invariants.
#include <gtest/gtest.h>

#include "apgas/cost_model.h"
#include "apgas/runtime.h"
#include "framework/checkpoint_interval.h"

namespace rgml::apgas {
namespace {

TEST(CostModelTest, FormulasScaleWithInputs) {
  CostModel cm;
  EXPECT_GT(cm.commTime(1000), cm.commTime(10));
  EXPECT_DOUBLE_EQ(cm.commTime(0), cm.alpha);
  EXPECT_DOUBLE_EQ(cm.copyTime(1000), 1000 * cm.memcpyPerByte);
  EXPECT_DOUBLE_EQ(cm.serializeTime(1000), 1000 * cm.serializationPerByte);
  EXPECT_DOUBLE_EQ(cm.denseComputeTime(1e6), 1e6 * cm.denseFlop);
  EXPECT_DOUBLE_EQ(cm.sparseComputeTime(1e6), 1e6 * cm.sparseFlop);
}

TEST(CostModelTest, CalibratedModelOrderings) {
  const CostModel cm = paperCalibratedCostModel();
  // Sparse flops cost more than dense (memory bound).
  EXPECT_GT(cm.sparseFlop, cm.denseFlop);
  // Serialisation is slower than memcpy, remote slower than local.
  EXPECT_GT(cm.serializationPerByte, cm.memcpyPerByte);
  EXPECT_GT(cm.betaPerByte, cm.memcpyPerByte);
  // Bookkeeping dominates the per-task fan-out stagger: the place-0
  // control processor queues, which is what makes resilient-finish
  // overhead grow with the place count (Figs. 2-4).
  EXPECT_GT(cm.resilientBookkeeping,
            cm.asyncSpawn + cm.taskSendOverhead);
}

TEST(CheckpointIntervalTest, YoungIterationsNormalRange) {
  // ckpt 0.5s, mttf 100s -> interval 10s; 2s iterations -> 5 of them.
  EXPECT_EQ(rgml::framework::youngIntervalIterations(0.5, 100.0, 2.0), 5);
  // Interval shorter than one iteration rounds up to 1.
  EXPECT_EQ(rgml::framework::youngIntervalIterations(0.5, 100.0, 100.0), 1);
}

TEST(CheckpointIntervalTest, YoungIterationsClampedBeforeCast) {
  // A huge MTTF against a tiny iteration time used to push the
  // double->long cast out of range (undefined behaviour). The ratio is
  // now clamped to a finite ceiling first.
  const long huge =
      rgml::framework::youngIntervalIterations(1e150, 1e300, 1e-300);
  EXPECT_GT(huge, 0);
  EXPECT_LE(huge, 4611686018427387904L);  // 2^62 ceiling

  // Just below vs above the ceiling both stay well-defined and monotone.
  const long below =
      rgml::framework::youngIntervalIterations(0.5, 1e18, 1e-9);
  EXPECT_GT(below, 0);
  EXPECT_LE(below, huge);
}

TEST(CheckpointIntervalTest, YoungIterationsRejectsBadInputs) {
  EXPECT_THROW(static_cast<void>(
                   rgml::framework::youngIntervalIterations(0.5, 100.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(
                   rgml::framework::youngIntervalIterations(0.5, -1.0, 1.0)),
               std::invalid_argument);
}

class TimeModelTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(8); }
};

TEST_F(TimeModelTest, RemoteSpawnChargesSender) {
  Runtime& rt = Runtime::world();
  const CostModel& cm = rt.costModel();
  const double t0 = rt.clock(0);
  finish([&] { asyncAt(Place(1), [] {}); });
  // The sender paid spawn + send overhead (plus finish costs).
  EXPECT_GE(rt.clock(0), t0 + cm.asyncSpawn + cm.taskSendOverhead);
}

TEST_F(TimeModelTest, LocalSpawnCheaperThanRemote) {
  Runtime& rt = Runtime::world();
  const double t0 = rt.clock(0);
  finish([&] { asyncAt(Place(0), [] {}); });
  const double localCost = rt.clock(0) - t0;
  const double t1 = rt.clock(0);
  finish([&] { asyncAt(Place(1), [] {}); });
  const double remoteCost = rt.clock(0) - t1;
  EXPECT_LT(localCost, remoteCost);
}

TEST_F(TimeModelTest, FanOutCostLinearInPlaces) {
  Runtime& rt = Runtime::world();
  auto fanOut = [&](int places) {
    const double t0 = rt.clock(0);
    finish([&] {
      for (int p = 1; p <= places; ++p) asyncAt(Place(p), [] {});
    });
    return rt.clock(0) - t0;
  };
  const double two = fanOut(2);
  const double six = fanOut(6);
  // The marginal cost of each extra remote task is exactly the spawn +
  // send + termination-recv overhead (the wire latency overlaps).
  const CostModel& cm = rt.costModel();
  EXPECT_NEAR((six - two) / 4.0,
              cm.asyncSpawn + cm.taskSendOverhead + cm.taskRecvOverhead,
              1e-9);
}

TEST_F(TimeModelTest, DeferredLocalTaskOverlapsRemoteWork) {
  // One local and one remote task, equal work: the local task starts when
  // the spawner blocks, so the finish ends after ~one unit, not two.
  Runtime& rt = Runtime::world();
  const double t0 = rt.clock(0);
  finish([&] {
    asyncAt(Place(0), [&] { rt.advance(0.050); });
    asyncAt(Place(1), [&] { rt.advance(0.050); });
  });
  const double elapsed = rt.clock(0) - t0;
  EXPECT_GE(elapsed, 0.050);
  EXPECT_LT(elapsed, 0.095);
}

TEST_F(TimeModelTest, DeferredTasksSerializeOnTheirPlace) {
  // Two local tasks on the home place: one worker -> they serialize.
  Runtime& rt = Runtime::world();
  const double t0 = rt.clock(0);
  finish([&] {
    asyncAt(Place(0), [&] { rt.advance(0.050); });
    asyncAt(Place(0), [&] { rt.advance(0.050); });
  });
  EXPECT_GE(rt.clock(0) - t0, 0.100);
}

TEST_F(TimeModelTest, CommChargesOnlySender) {
  Runtime& rt = Runtime::world();
  const double peer0 = rt.clock(2);
  at(Place(1), [&] { rt.chargeComm(Place(2), 1000000); });
  // One-sided: the receiver's worker clock is untouched.
  EXPECT_EQ(rt.clock(2), peer0);
  EXPECT_GT(rt.clock(1), 0.0);
}

TEST_F(TimeModelTest, SelfCommIsLocalCopy) {
  Runtime& rt = Runtime::world();
  const CostModel& cm = rt.costModel();
  at(Place(1), [&] {
    const double t0 = rt.clock(1);
    rt.chargeComm(Place(1), 1000000);
    EXPECT_DOUBLE_EQ(rt.clock(1) - t0, cm.copyTime(1000000));
  });
}

TEST_F(TimeModelTest, ChargesToDeadPlaceAreDropped) {
  Runtime& rt = Runtime::world();
  // A place that dies mid-task stops accumulating time; the enclosing
  // finish reports the death.
  EXPECT_THROW(finish([&] {
                 asyncAt(Place(3), [&] {
                   rt.advance(0.010);
                   const double frozen = rt.clock(3);
                   rt.kill(3);
                   rt.advance(1.000);  // lost work: clock must not move
                   rt.chargeDenseFlops(1e9);
                   rt.chargeSerialization(1000000);
                   EXPECT_EQ(rt.clock(3), frozen);
                 });
               }),
               DeadPlaceException);
}

TEST_F(TimeModelTest, ResilientAckWaitsForControlProcessor) {
  // With a huge bookkeeping cost, the finish cannot end before the control
  // processor has drained 2+2P messages.
  CostModel cm;
  cm.resilientBookkeeping = 10e-3;
  Runtime::init(4, cm, true);
  Runtime& rt = Runtime::world();
  const double t0 = rt.clock(0);
  finish([&] {
    for (int p = 0; p < 4; ++p) asyncAt(Place(p), [] {});
  });
  // 1 registration + 4 spawns + 4 terminations + 1 ack = 10 messages.
  EXPECT_GE(rt.clock(0) - t0, 10 * cm.resilientBookkeeping);
}

TEST_F(TimeModelTest, DispatchHookSurvivesSelfDisarm) {
  Runtime& rt = Runtime::world();
  int fired = 0;
  rt.setDispatchHook([&](long) {
    ++fired;
    rt.setDispatchHook({});  // self-disarm must not crash
  });
  finish([&] {
    asyncAt(Place(1), [] {});
    asyncAt(Place(2), [] {});
  });
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace rgml::apgas
