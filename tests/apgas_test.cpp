// Unit tests for the APGAS runtime simulator: task semantics, virtual
// clocks, resilient-finish bookkeeping, failure injection, heaps,
// GlobalRef and PlaceLocalHandle.
#include <gtest/gtest.h>

#include "apgas/fault_injector.h"
#include "apgas/global_ref.h"
#include "apgas/place_local_handle.h"
#include "apgas/runtime.h"

namespace rgml::apgas {
namespace {

class ApgasTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }
};

TEST_F(ApgasTest, WorldHasRequestedPlaces) {
  EXPECT_EQ(Runtime::world().numPlaces(), 4);
  EXPECT_EQ(Runtime::world().numLivePlaces(), 4);
  EXPECT_EQ(here().id(), 0);
}

TEST_F(ApgasTest, InitRequiresAtLeastOnePlace) {
  EXPECT_THROW(Runtime::init(0), ApgasError);
}

TEST_F(ApgasTest, FinishRunsAllTasks) {
  int count = 0;
  finish([&] {
    for (int p = 0; p < 4; ++p) {
      asyncAt(Place(p), [&] { ++count; });
    }
  });
  EXPECT_EQ(count, 4);
}

TEST_F(ApgasTest, HereTracksTaskPlace) {
  std::vector<PlaceId> seen;
  finish([&] {
    for (int p = 0; p < 4; ++p) {
      asyncAt(Place(p), [&] { seen.push_back(here().id()); });
    }
  });
  // Remote tasks run eagerly in spawn order; the same-place task is
  // deferred until the spawner blocks at the finish (one worker/place).
  EXPECT_EQ(seen, (std::vector<PlaceId>{1, 2, 3, 0}));
}

TEST_F(ApgasTest, NestedAtRestoresHere) {
  at(Place(2), [&] {
    EXPECT_EQ(here().id(), 2);
    at(Place(1), [&] { EXPECT_EQ(here().id(), 1); });
    EXPECT_EQ(here().id(), 2);
  });
  EXPECT_EQ(here().id(), 0);
}

TEST_F(ApgasTest, AtReturningYieldsValue) {
  const int v = Runtime::world().atReturning<int>(
      Place(3), [] { return here().id() * 10; });
  EXPECT_EQ(v, 30);
}

TEST_F(ApgasTest, AsyncOutsideFinishThrows) {
  EXPECT_THROW(async([] {}), ApgasError);
}

TEST_F(ApgasTest, NestedFinishCollectsInnerTasks) {
  int count = 0;
  finish([&] {
    asyncAt(Place(1), [&] {
      finish([&] {
        asyncAt(Place(2), [&] { ++count; });
        asyncAt(Place(3), [&] { ++count; });
      });
      ++count;
    });
  });
  EXPECT_EQ(count, 3);
}

// ---- virtual time --------------------------------------------------------

TEST_F(ApgasTest, ClocksAdvanceWithWork) {
  const double t0 = Runtime::world().time();
  finish([&] {
    asyncAt(Place(1), [&] { Runtime::world().chargeDenseFlops(1e6); });
  });
  EXPECT_GT(Runtime::world().time(), t0);
}

TEST_F(ApgasTest, FinishWaitsForSlowestTask) {
  Runtime& rt = Runtime::world();
  const double t0 = rt.time();
  finish([&] {
    asyncAt(Place(1), [&] { rt.advance(0.010); });
    asyncAt(Place(2), [&] { rt.advance(0.100); });
    asyncAt(Place(3), [&] { rt.advance(0.020); });
  });
  // Tasks run concurrently in virtual time: the finish ends after the
  // slowest (0.1 s), not after the sum (0.13 s).
  const double elapsed = rt.time() - t0;
  EXPECT_GE(elapsed, 0.100);
  EXPECT_LT(elapsed, 0.130);
}

TEST_F(ApgasTest, SequentialTasksOnOnePlaceSerialize) {
  Runtime& rt = Runtime::world();
  const double t0 = rt.time();
  finish([&] {
    asyncAt(Place(1), [&] { rt.advance(0.050); });
    asyncAt(Place(1), [&] { rt.advance(0.050); });
  });
  // Same place, one worker thread: the two tasks serialize.
  EXPECT_GE(rt.time() - t0, 0.100);
}

TEST_F(ApgasTest, CommCostScalesWithBytes) {
  Runtime& rt = Runtime::world();
  const double t0 = rt.time();
  rt.chargeComm(Place(1), 1000);
  const double small = rt.time() - t0;
  const double t1 = rt.time();
  rt.chargeComm(Place(1), 1000000);
  const double large = rt.time() - t1;
  EXPECT_GT(large, small);
}

TEST_F(ApgasTest, ResilientFinishCostsMore) {
  auto runOnce = [](bool resilient) {
    Runtime::init(4, CostModel{}, resilient);
    Runtime& rt = Runtime::world();
    const double t0 = rt.time();
    for (int i = 0; i < 10; ++i) {
      finish([&] {
        for (int p = 0; p < 4; ++p) {
          asyncAt(Place(p), [&] { rt.advance(0.001); });
        }
      });
    }
    return rt.time() - t0;
  };
  const double plain = runOnce(false);
  const double resilient = runOnce(true);
  EXPECT_GT(resilient, plain);
}

TEST_F(ApgasTest, ResilientOverheadGrowsWithPlaces) {
  auto overhead = [](int places) {
    auto runOnce = [places](bool resilient) {
      Runtime::init(places, CostModel{}, resilient);
      Runtime& rt = Runtime::world();
      const double t0 = rt.time();
      finish([&] {
        for (int p = 0; p < places; ++p) {
          asyncAt(Place(p), [&] { rt.advance(0.001); });
        }
      });
      return rt.time() - t0;
    };
    return runOnce(true) - runOnce(false);
  };
  // Place-0 bookkeeping serialises per-task messages: overhead is
  // increasing in the number of tasks == places.
  EXPECT_GT(overhead(16), overhead(4));
  EXPECT_GT(overhead(44), overhead(16));
}

TEST_F(ApgasTest, BookkeepingMessagesCounted) {
  Runtime::init(4, CostModel{}, true);
  Runtime& rt = Runtime::world();
  rt.resetStats();
  finish([&] {
    for (int p = 0; p < 4; ++p) asyncAt(Place(p), [] {});
  });
  // 1 finish registration + 1 completion ack + per task (spawn + term).
  EXPECT_EQ(rt.stats().bookkeepingMsgs, 2 + 4 * 2);
  EXPECT_EQ(rt.stats().finishes, 1);
  EXPECT_EQ(rt.stats().asyncsSpawned, 4);
}

TEST_F(ApgasTest, NonResilientHasNoBookkeeping) {
  Runtime& rt = Runtime::world();
  rt.resetStats();
  finish([&] {
    for (int p = 0; p < 4; ++p) asyncAt(Place(p), [] {});
  });
  EXPECT_EQ(rt.stats().bookkeepingMsgs, 0);
}

TEST_F(ApgasTest, DataMessagesCountedExactlyOncePerPayload) {
  // The message-complexity invariant: dataMsgs/bytesSent count each
  // application payload exactly once — task envelopes and resilient-finish
  // bookkeeping must never re-charge them.
  Runtime& rt = Runtime::world();
  rt.resetStats();
  finish([&] {
    for (int p = 1; p < 4; ++p) {
      asyncAt(Place(p), [&] { rt.chargeComm(Place(0), 1000); });
    }
  });
  EXPECT_EQ(rt.stats().dataMsgs, 3);
  EXPECT_EQ(rt.stats().bytesSent, 3000u);
}

TEST_F(ApgasTest, ResilientFinishDoesNotRechargeDataMessages) {
  // The same payload traffic under resilient finish: bookkeeping messages
  // appear, but the data counters are identical to the non-resilient run.
  auto run = [](bool resilient) {
    Runtime::init(4, CostModel{}, resilient);
    Runtime& rt = Runtime::world();
    rt.resetStats();
    finish([&] {
      for (int p = 1; p < 4; ++p) {
        asyncAt(Place(p), [&] { rt.chargeComm(Place(0), 512); });
      }
    });
    return rt.stats();
  };
  const RuntimeStats plain = run(false);
  const RuntimeStats resilient = run(true);
  EXPECT_EQ(resilient.dataMsgs, plain.dataMsgs);
  EXPECT_EQ(resilient.bytesSent, plain.bytesSent);
  EXPECT_EQ(plain.bookkeepingMsgs, 0);
  EXPECT_GT(resilient.bookkeepingMsgs, 0);
}

TEST_F(ApgasTest, SelfCommCountsNoDataMessage) {
  Runtime& rt = Runtime::world();
  rt.resetStats();
  rt.chargeComm(Place(0), 4096);  // self: local copy, not a message
  EXPECT_EQ(rt.stats().dataMsgs, 0);
  EXPECT_EQ(rt.stats().bytesSent, 0u);
}

TEST_F(ApgasTest, NoteDataTransferCountsWithoutClockAdvance) {
  Runtime& rt = Runtime::world();
  rt.resetStats();
  const double t0 = rt.clock(0);
  rt.noteDataTransfer(2048);
  EXPECT_EQ(rt.stats().dataMsgs, 1);
  EXPECT_EQ(rt.stats().bytesSent, 2048u);
  EXPECT_DOUBLE_EQ(rt.clock(0), t0);
}

// ---- failure semantics ----------------------------------------------------

TEST_F(ApgasTest, KillMarksDead) {
  Runtime::world().kill(2);
  EXPECT_TRUE(Runtime::world().isDead(2));
  EXPECT_EQ(Runtime::world().numLivePlaces(), 3);
  EXPECT_TRUE(Place(2).isDead());
}

TEST_F(ApgasTest, PlaceZeroIsImmortal) {
  EXPECT_THROW(Runtime::world().kill(0), ApgasError);
}

TEST_F(ApgasTest, KillIsIdempotent) {
  Runtime::world().kill(2);
  Runtime::world().kill(2);
  EXPECT_EQ(Runtime::world().stats().placesKilled, 1);
}

TEST_F(ApgasTest, AsyncAtDeadPlaceRaisesInFinish) {
  Runtime::world().kill(2);
  bool ran = false;
  EXPECT_THROW(finish([&] {
                 asyncAt(Place(2), [&] { ran = true; });
               }),
               DeadPlaceException);
  EXPECT_FALSE(ran);
}

TEST_F(ApgasTest, AtDeadPlaceThrowsImmediately) {
  Runtime::world().kill(1);
  EXPECT_THROW(at(Place(1), [] {}), DeadPlaceException);
}

TEST_F(ApgasTest, SurvivingTasksStillRunWhenSiblingDies) {
  Runtime::world().kill(3);
  int survivors = 0;
  try {
    finish([&] {
      for (int p = 0; p < 4; ++p) {
        asyncAt(Place(p), [&] { ++survivors; });
      }
    });
    FAIL() << "finish should have thrown";
  } catch (const DeadPlaceException& e) {
    EXPECT_EQ(e.place(), 3);
  }
  EXPECT_EQ(survivors, 3);
}

TEST_F(ApgasTest, MultipleFailuresAggregated) {
  Runtime::world().kill(2);
  Runtime::world().kill(3);
  try {
    finish([&] {
      for (int p = 0; p < 4; ++p) asyncAt(Place(p), [] {});
    });
    FAIL() << "finish should have thrown";
  } catch (const MultipleExceptions& me) {
    EXPECT_EQ(me.exceptions().size(), 2u);
    EXPECT_TRUE(me.containsDeadPlace());
  }
}

TEST_F(ApgasTest, PlaceDyingDuringTaskLosesItsWork) {
  // The victim dies mid-body (dispatch-triggered): the finish must observe
  // a DeadPlaceException even though the body started running.
  FaultInjector injector;
  bool bodyStarted = false;
  try {
    finish([&] {
      asyncAt(Place(1), [&] {
        bodyStarted = true;
        Runtime::world().kill(1);  // simulated crash inside the task
      });
    });
    FAIL() << "finish should have thrown";
  } catch (const DeadPlaceException& e) {
    EXPECT_EQ(e.place(), 1);
  }
  EXPECT_TRUE(bodyStarted);
}

TEST_F(ApgasTest, KillListenerNotified) {
  Runtime& rt = Runtime::world();
  PlaceId seen = kInvalidPlace;
  const auto token = rt.addKillListener([&](PlaceId p) { seen = p; });
  rt.kill(3);
  EXPECT_EQ(seen, 3);
  rt.removeKillListener(token);
  seen = kInvalidPlace;
  rt.kill(2);
  EXPECT_EQ(seen, kInvalidPlace);
}

TEST_F(ApgasTest, DispatchTriggeredKill) {
  FaultInjector injector;
  injector.killAtDispatch(3, 2);
  int ran = 0;
  try {
    finish([&] {
      for (int p = 0; p < 4; ++p) {
        asyncAt(Place(p), [&] { ++ran; });
      }
    });
    FAIL() << "finish should have thrown";
  } catch (const DeadPlaceException& e) {
    EXPECT_EQ(e.place(), 2);
  }
  // Dispatches 1 and 2 (places 0, 1) ran; dispatch 3's target died first.
  EXPECT_EQ(ran, 3);  // places 0, 1 and 3 ran; place 2 did not
}

TEST_F(ApgasTest, IterationTriggeredKill) {
  FaultInjector injector;
  injector.killOnIteration(15, 3);
  EXPECT_TRUE(injector.onIterationCompleted(14).empty());
  EXPECT_FALSE(Runtime::world().isDead(3));
  const auto victims = injector.onIterationCompleted(15);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 3);
  EXPECT_TRUE(Runtime::world().isDead(3));
}

// ---- elasticity -----------------------------------------------------------

TEST_F(ApgasTest, AddPlacesCreatesFreshIds) {
  Runtime& rt = Runtime::world();
  const auto fresh = rt.addPlaces(2);
  EXPECT_EQ(fresh, (std::vector<PlaceId>{4, 5}));
  EXPECT_EQ(rt.numPlaces(), 6);
  EXPECT_FALSE(rt.isDead(4));
  finish([&] {
    asyncAt(Place(5), [&] { EXPECT_EQ(here().id(), 5); });
  });
}

TEST_F(ApgasTest, NewPlaceClockStartsAtNow) {
  Runtime& rt = Runtime::world();
  at(Place(1), [&] { rt.advance(1.0); });
  const auto fresh = rt.addPlaces(1);
  EXPECT_GE(rt.clock(fresh[0]), 1.0);
}

// ---- heaps / GlobalRef / PlaceLocalHandle ---------------------------------

TEST_F(ApgasTest, GlobalRefAccessibleAtHome) {
  GlobalRef<int> ref;
  at(Place(2), [&] { ref = GlobalRef<int>(std::make_shared<int>(7)); });
  EXPECT_EQ(ref.home().id(), 2);
  at(Place(2), [&] { EXPECT_EQ(ref(), 7); });
}

TEST_F(ApgasTest, GlobalRefRejectsRemoteAccess) {
  GlobalRef<int> ref(std::make_shared<int>(1));
  at(Place(1), [&] { EXPECT_THROW(static_cast<void>(ref()), ApgasError); });
}

TEST_F(ApgasTest, GlobalRefDiesWithItsPlace) {
  GlobalRef<int> ref;
  at(Place(2), [&] { ref = GlobalRef<int>(std::make_shared<int>(7)); });
  Runtime::world().kill(2);
  EXPECT_THROW(at(Place(2), [&] { static_cast<void>(ref()); }),
               DeadPlaceException);
}

TEST_F(ApgasTest, PlaceLocalHandleOnePerPlace) {
  auto pg = PlaceGroup::world();
  auto plh = PlaceLocalHandle<int>::make(
      pg, [](Place p) { return std::make_shared<int>(p.id() * 100); });
  finish([&] {
    for (int p = 0; p < 4; ++p) {
      asyncAt(Place(p), [&] { EXPECT_EQ(plh.local(), here().id() * 100); });
    }
  });
}

TEST_F(ApgasTest, PlaceLocalHandleSubsetGroup) {
  PlaceGroup pg({1, 3});
  auto plh = PlaceLocalHandle<int>::make(
      pg, [](Place) { return std::make_shared<int>(1); });
  at(Place(1), [&] { EXPECT_TRUE(plh.hasLocal()); });
  at(Place(2), [&] { EXPECT_FALSE(plh.hasLocal()); });
  EXPECT_THROW(static_cast<void>(plh.local()),
               ApgasError);  // place 0 not in group
}

TEST_F(ApgasTest, PlaceDeathDestroysLocalObjects) {
  auto pg = PlaceGroup::world();
  auto plh = PlaceLocalHandle<int>::make(
      pg, [](Place) { return std::make_shared<int>(5); });
  Runtime::world().kill(2);
  EXPECT_EQ(plh.atPlace(2), nullptr);
  EXPECT_NE(plh.atPlace(1), nullptr);
}

TEST_F(ApgasTest, DestroyRemovesEverywhere) {
  auto pg = PlaceGroup::world();
  auto plh = PlaceLocalHandle<int>::make(
      pg, [](Place) { return std::make_shared<int>(5); });
  plh.destroy();
  EXPECT_EQ(plh.atPlace(0), nullptr);
  EXPECT_FALSE(plh.valid());
}

}  // namespace
}  // namespace rgml::apgas
