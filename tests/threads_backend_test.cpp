// Unit tests for the real-threads APGAS backend: place-per-thread
// execution, real finish termination detection, kill semantics, stats
// parity with the simulated backend, and sweep-level thread budgeting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apgas/place_local_handle.h"
#include "apgas/runtime.h"
#include "harness/job_pool.h"
#include "obs/trace_sink.h"

namespace {

using namespace rgml::apgas;

RuntimeConfig threadsConfig(int places, bool resilient = false) {
  RuntimeConfig cfg;
  cfg.numPlaces = places;
  cfg.resilientFinish = resilient;
  cfg.backend = Backend::Threads;
  return cfg;
}

TEST(ThreadsBackendTest, BackendConfigParsesAndPrints) {
  Backend b = Backend::Simulated;
  EXPECT_TRUE(parseBackend("threads", b));
  EXPECT_EQ(b, Backend::Threads);
  EXPECT_TRUE(parseBackend("simulated", b));
  EXPECT_EQ(b, Backend::Simulated);
  EXPECT_FALSE(parseBackend("mpi", b));
  EXPECT_STREQ(toString(Backend::Threads), "threads");
  EXPECT_STREQ(toString(Backend::Simulated), "simulated");
}

TEST(ThreadsBackendTest, TopologyAndHere) {
  Runtime::init(threadsConfig(4));
  Runtime& rt = Runtime::world();
  EXPECT_EQ(rt.backend(), Backend::Threads);
  EXPECT_EQ(rt.numPlaces(), 4);
  EXPECT_EQ(rt.numLivePlaces(), 4);
  EXPECT_EQ(rt.here().id(), 0);
}

TEST(ThreadsBackendTest, TasksRunOnTheirTargetPlace) {
  Runtime::init(threadsConfig(4));
  std::vector<int> observedAt(4, -1);
  finish([&] {
    for (int p = 0; p < 4; ++p) {
      asyncAt(Place(p), [&observedAt, p] {
        observedAt[static_cast<std::size_t>(p)] = here().id();
      });
    }
  });
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(observedAt[static_cast<std::size_t>(p)], p);
  }
}

TEST(ThreadsBackendTest, AtShiftsAndReturns) {
  Runtime::init(threadsConfig(3));
  const int where = atReturning<int>(Place(2), [] { return here().id(); });
  EXPECT_EQ(where, 2);
  EXPECT_EQ(here().id(), 0);  // shifted back
}

TEST(ThreadsBackendTest, BlockedFinishDrainsItsOwnInbox) {
  // Help-first scheduling: while place 0 blocks in the finish, a task
  // spawned back at place 0 must still run (on the blocked thread).
  Runtime::init(threadsConfig(2));
  std::atomic<int> ranAt{-1};
  finish([&] {
    asyncAt(Place(1), [&] {
      asyncAt(Place(0), [&] { ranAt.store(here().id()); });
    });
  });
  EXPECT_EQ(ranAt.load(), 0);
}

TEST(ThreadsBackendTest, NestedFinishOnWorker) {
  Runtime::init(threadsConfig(3));
  std::atomic<long> sum{0};
  finish([&] {
    asyncAt(Place(1), [&] {
      finish([&] {
        for (int p = 0; p < 3; ++p) {
          asyncAt(Place(p), [&] { sum.fetch_add(here().id() + 1); });
        }
      });
      sum.fetch_add(100);
    });
  });
  EXPECT_EQ(sum.load(), 106);  // 1 + 2 + 3 + 100
}

TEST(ThreadsBackendTest, ExceptionsPropagateThroughFinish) {
  Runtime::init(threadsConfig(2));
  EXPECT_THROW(finish([&] {
                 asyncAt(Place(1), [] {
                   throw std::runtime_error("task boom");
                 });
               }),
               std::runtime_error);
  // Several failing tasks aggregate.
  try {
    finish([&] {
      for (int i = 0; i < 3; ++i) {
        asyncAt(Place(1), [] { throw std::runtime_error("boom"); });
      }
    });
    FAIL() << "expected MultipleExceptions";
  } catch (const MultipleExceptions& me) {
    EXPECT_EQ(me.exceptions().size(), 3u);
  }
}

TEST(ThreadsBackendTest, KillMarksDeadWipesHeapAndPoisonsInbox) {
  Runtime::init(threadsConfig(3));
  Runtime& rt = Runtime::world();
  auto plh = PlaceLocalHandle<int>::make(
      PlaceGroup::firstPlaces(3),
      [](Place p) { return std::make_shared<int>(p.id() * 10); });
  rt.kill(1);
  EXPECT_TRUE(rt.isDead(1));
  EXPECT_EQ(rt.numLivePlaces(), 2);
  EXPECT_EQ(plh.atPlace(1), nullptr);        // heap really wiped
  EXPECT_NE(plh.atPlace(2), nullptr);        // others untouched
  // New tasks to the dead place classify as DeadPlaceException.
  try {
    finish([&] { asyncAt(Place(1), [] { FAIL() << "ran on dead place"; }); });
    FAIL() << "expected DeadPlaceException";
  } catch (const DeadPlaceException& e) {
    EXPECT_EQ(e.place(), 1);
  }
  EXPECT_THROW(at(Place(1), [] {}), DeadPlaceException);
  EXPECT_THROW(rt.kill(0), ApgasError);  // place 0 immortal
  rt.kill(1);                            // double kill: no-op
  EXPECT_EQ(rt.numLivePlaces(), 2);
}

TEST(ThreadsBackendTest, KillListenersFireOnce) {
  Runtime::init(threadsConfig(3));
  Runtime& rt = Runtime::world();
  std::vector<PlaceId> notified;
  const auto token = rt.addKillListener(
      [&notified](PlaceId p) { notified.push_back(p); });
  rt.kill(2);
  rt.kill(2);  // duplicate is a no-op — no second notification
  EXPECT_EQ(notified, std::vector<PlaceId>{2});
  rt.removeKillListener(token);
  rt.kill(1);
  EXPECT_EQ(notified.size(), 1u);
}

TEST(ThreadsBackendTest, AddPlacesSpinsUpUsableWorkers) {
  Runtime::init(threadsConfig(2));
  Runtime& rt = Runtime::world();
  const auto fresh = rt.addPlaces(2);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(rt.numPlaces(), 4);
  std::atomic<int> ranAt{-1};
  finish([&] {
    asyncAt(Place(fresh[1]), [&] { ranAt.store(here().id()); });
  });
  EXPECT_EQ(ranAt.load(), fresh[1]);
}

TEST(ThreadsBackendTest, WallClockAdvancesMonotonically) {
  Runtime::init(threadsConfig(2));
  Runtime& rt = Runtime::world();
  const double t0 = rt.time();
  EXPECT_GE(t0, 0.0);
  finish([&] { asyncAt(Place(1), [] {}); });
  EXPECT_GE(rt.time(), t0);
  rt.advance(100.0);             // no-op on Threads: wall is the clock
  EXPECT_LT(rt.time(), 50.0);
}

TEST(ThreadsBackendTest, StatsMatchSimulatedBackend) {
  // The cross-backend invariant: identical program => identical counters
  // (asyncs, finishes, resilient bookkeeping, data msgs, bytes, kills)
  // and identical trace metrics.
  struct Run {
    RuntimeStats stats;
    std::map<std::string, std::uint64_t> counters;
    long ackWaits = 0;
  };
  auto program = [] {
    Runtime& rt = Runtime::world();
    rgml::obs::TraceSink sink;
    {
      rgml::obs::SinkScope scope(&sink);
      for (int round = 0; round < 3; ++round) {
        finish([&] {
          for (int p = 0; p < 4; ++p) {
            asyncAt(Place(p), [&rt, p] {
              if (p != 0) rt.chargeComm(Place(0), 128);
            });
          }
        });
      }
      rt.noteDataTransfer(256);
      rt.kill(3);
    }
    Run run{rt.stats(), sink.metrics().counters()};
    const auto& histograms = sink.metrics().histograms();
    if (auto it = histograms.find("finish.ack_wait_seconds");
        it != histograms.end()) {
      run.ackWaits = it->second.count();
    }
    return run;
  };
  Runtime::init(threadsConfig(4, /*resilient=*/true));
  const Run threads = program();
  Runtime::init(4, CostModel{}, /*resilientFinish=*/true);
  const Run simulated = program();
  EXPECT_EQ(threads.stats.asyncsSpawned, simulated.stats.asyncsSpawned);
  EXPECT_EQ(threads.stats.finishes, simulated.stats.finishes);
  EXPECT_EQ(threads.stats.bookkeepingMsgs, simulated.stats.bookkeepingMsgs);
  EXPECT_EQ(threads.stats.dataMsgs, simulated.stats.dataMsgs);
  EXPECT_EQ(threads.stats.bytesSent, simulated.stats.bytesSent);
  EXPECT_EQ(threads.stats.placesKilled, simulated.stats.placesKilled);
  EXPECT_EQ(threads.counters, simulated.counters);
  EXPECT_EQ(threads.ackWaits, simulated.ackWaits);
  EXPECT_EQ(simulated.ackWaits, 3);  // one per resilient finish
}

TEST(ThreadsBackendTest, SpansCarryThreadTagsOnThreadsBackend) {
  Runtime::init(threadsConfig(3));
  rgml::obs::TraceSink sink;
  {
    rgml::obs::SinkScope scope(&sink);
    finish([&] {
      for (int p = 1; p < 3; ++p) {
        asyncAt(Place(p), [p] {
          Runtime::world().chargeComm(Place(0), 64);
        });
      }
    });
  }
  // Worker-emitted comm spans carry a real (>= 0) thread tag; the place
  // field still identifies the emitting place for trace round-trips.
  bool sawTaggedCommSpan = false;
  for (const auto& s : sink.spans()) {
    if (s.category == rgml::obs::Category::Comms && s.tid >= 0) {
      sawTaggedCommSpan = true;
      EXPECT_GE(s.place, 1);
    }
  }
  EXPECT_TRUE(sawTaggedCommSpan);
}

TEST(ThreadsBackendTest, ThreadBudgetedJobsClampsToRgmlJobs) {
  using rgml::harness::threadBudgetedJobs;
  // RGML_JOBS pins the budget regardless of the machine.
  ASSERT_EQ(setenv("RGML_JOBS", "16", 1), 0);
  EXPECT_EQ(threadBudgetedJobs(8, 8), 2u);   // 16 / 8
  EXPECT_EQ(threadBudgetedJobs(8, 4), 4u);   // 16 / 4
  EXPECT_EQ(threadBudgetedJobs(1, 8), 1u);   // never above requested
  EXPECT_EQ(threadBudgetedJobs(8, 64), 1u);  // budget < perJob => 1, not 0
  ASSERT_EQ(setenv("RGML_JOBS", "garbage", 1), 0);
  EXPECT_GE(threadBudgetedJobs(4, 1), 1u);   // bad env falls back
  ASSERT_EQ(unsetenv("RGML_JOBS"), 0);
  EXPECT_GE(threadBudgetedJobs(4, 1000), 1u);
}

TEST(ThreadsBackendTest, OversubscribedWorldsCompleteWithoutDeadlock) {
  // Satellite: --jobs x Threads backend. More concurrent worlds than
  // cores must degrade to slower progress, never to a deadlock — a place
  // thread blocked in finish/at drains its own inbox, so each world is
  // self-sufficient on any scheduler interleaving.
  std::atomic<long> total{0};
  rgml::harness::parallelFor(4, 8, [&](std::size_t) {
    WorldGuard guard(threadsConfig(4, /*resilient=*/true));
    std::atomic<long> local{0};
    for (int round = 0; round < 5; ++round) {
      finish([&] {
        for (int p = 0; p < 4; ++p) {
          asyncAt(Place(p), [&] {
            finish([&] { async([&] { local.fetch_add(1); }); });
          });
        }
      });
    }
    total.fetch_add(local.load());
  });
  EXPECT_EQ(total.load(), 8 * 5 * 4);
}

}  // namespace
