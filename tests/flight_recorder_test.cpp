// Flight-recorder unit tests: seqlock ring wraparound and concurrent
// reader/writer validation (the TSan target), deterministic forensic-dump
// byte-identity regardless of thread interleaving, end-to-end event
// capture on the real Threads backend (including the kill path), and the
// analyzer percentiles tools/flight_report is built on.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "apgas/runtime.h"
#include "fake_queues.h"
#include "obs/analysis/flight_report.h"
#include "obs/analysis/json.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/forensic_dump.h"
#include "obs/flight/stall_watchdog.h"

namespace {

using namespace rgml;
using namespace rgml::obs::flight;

Event makeEvent(double t, EventKind kind, int queue, long depth,
                double value) {
  Event e;
  e.t = t;
  e.kind = kind;
  e.queue = queue;
  e.depth = depth;
  e.value = value;
  return e;
}

TEST(FlightRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRing(1).capacity(), 1u);
  EXPECT_EQ(FlightRing(5).capacity(), 8u);
  EXPECT_EQ(FlightRing(8).capacity(), 8u);
  EXPECT_EQ(FlightRing(0).capacity(), 1u);
}

TEST(FlightRingTest, WraparoundKeepsMostRecentSuffix) {
  FlightRing ring(8);
  for (int i = 0; i < 100; ++i) {
    ring.record(makeEvent(i, EventKind::Enqueue, i % 4, i, 0.0));
  }
  EXPECT_EQ(ring.recorded(), 100u);
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t, 92.0 + i);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].depth, 92 + i);
  }
}

TEST(FlightRingTest, SnapshotBelowCapacityReturnsEverything) {
  FlightRing ring(16);
  for (int i = 0; i < 5; ++i) {
    ring.record(makeEvent(i, EventKind::Dequeue, 1, i, i * 0.5));
  }
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const Event& e = events[static_cast<std::size_t>(i)];
    EXPECT_DOUBLE_EQ(e.t, i);
    EXPECT_EQ(e.kind, EventKind::Dequeue);
    EXPECT_DOUBLE_EQ(e.value, i * 0.5);
  }
}

// The TSan target: one producer hammers the ring while a reader takes
// validated snapshots. Cross-field invariants (value = 2t, depth = t)
// prove the seqlock never yields a torn event — every accepted slot is
// internally consistent, and accepted timestamps ascend.
TEST(FlightRingTest, ConcurrentWriterAndSnapshotsStayConsistent) {
  FlightRing ring(64);
  constexpr int kEvents = 50000;
  std::thread writer([&ring] {
    for (int i = 0; i < kEvents; ++i) {
      ring.record(makeEvent(i, EventKind::Enqueue, i % 7, i, 2.0 * i));
    }
  });
  for (int round = 0; round < 200; ++round) {
    const std::vector<Event> events = ring.snapshot();
    double prev = -1.0;
    for (const Event& e : events) {
      EXPECT_GT(e.t, prev);
      prev = e.t;
      EXPECT_DOUBLE_EQ(e.value, 2.0 * e.t);
      EXPECT_EQ(static_cast<double>(e.depth), e.t);
      EXPECT_EQ(e.queue, static_cast<int>(e.depth) % 7);
    }
  }
  writer.join();
  const std::vector<Event> finalEvents = ring.snapshot();
  ASSERT_EQ(finalEvents.size(), 64u);
  EXPECT_DOUBLE_EQ(finalEvents.back().t, kEvents - 1.0);
}

TEST(FlightRecorderTest, EventKindNamesRoundTrip) {
  for (int k = static_cast<int>(EventKind::Enqueue);
       k <= static_cast<int>(EventKind::Poison); ++k) {
    const auto kind = static_cast<EventKind>(k);
    EventKind parsed = EventKind::Enqueue;
    ASSERT_TRUE(parseEventKind(toString(kind), parsed)) << toString(kind);
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed = EventKind::Enqueue;
  EXPECT_FALSE(parseEventKind("warp_core_breach", parsed));
}

/// Deterministic recorder population: `threads` lanes named p0..pN with
/// synthetic timestamps, plus two manual watchdog samples under a fake
/// clock. When `race` is set the lanes bind from concurrently racing
/// threads — the dump must not depend on registration order.
std::string buildDeterministicDump(int lanes, bool race) {
  rgml_test::FakeQueues queues(lanes);
  FlightRecorder rec(lanes, 8, queues.source());
  auto populate = [&rec, &queues](int lane) {
    rec.bindCurrentThread(queueName(lane), lane);
    for (int i = 0; i < 3; ++i) {
      rec.record(makeEvent(lane * 10.0 + i, EventKind::Enqueue, lane,
                           i + 1, 0.0));
    }
    queues.enqueue(lane, 3);
  };
  if (race) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      threads.emplace_back(populate, lane);
    }
    for (std::thread& t : threads) t.join();
  } else {
    for (int lane = 0; lane < lanes; ++lane) {
      std::thread(populate, lane).join();
    }
  }
  double fakeNow = 1.0;
  StallWatchdog wd(rec, [&fakeNow] { return fakeNow; }, 0.0);
  wd.sampleNow();
  fakeNow = 2.0;
  wd.sampleNow();
  return forensicJson(rec, &wd);
}

// The harness attaches these dumps to chaos reports; classification
// byte-identity across --jobs counts needs the dump itself to be a pure
// function of the recorded facts, not of thread registration races or
// sweep parallelism.
TEST(FlightRecorderTest, ForensicDumpIsByteIdenticalAcrossInterleavings) {
  const std::string serial = buildDeterministicDump(8, /*race=*/false);
  const std::string raced = buildDeterministicDump(8, /*race=*/true);
  EXPECT_EQ(serial, raced);
  // And stable across repeated builds (the --jobs 1 vs 8 contract in
  // miniature: same facts, independent executions, same bytes).
  EXPECT_EQ(serial, buildDeterministicDump(8, /*race=*/true));
}

TEST(FlightRecorderTest, ForensicDumpParsesAndAnalyzes) {
  const std::string dump = buildDeterministicDump(4, /*race=*/false);
  const auto root = obs::analysis::JsonValue::parse(dump);
  const obs::analysis::FlightAnalysis analysis =
      obs::analysis::analyzeFlight(root);
  EXPECT_EQ(analysis.places, 4);
  EXPECT_EQ(analysis.lanes, 4);
  EXPECT_EQ(analysis.eventsRecorded, 12u);
  EXPECT_EQ(analysis.eventsRetained, 12u);
  // Every lane left 3 messages undequeued across both samples, so the
  // watchdog flagged each of the 4 place queues once.
  EXPECT_EQ(analysis.verdicts.size(), 4u);
}

TEST(FlightAnalysisTest, PercentileConvention) {
  using obs::analysis::flightPercentile;
  EXPECT_DOUBLE_EQ(flightPercentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(flightPercentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(flightPercentile({7.0}, 0.99), 7.0);
  const std::vector<double> s{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(flightPercentile(s, 0.5), 3.0);   // floor(0.5*4) = 2
  EXPECT_DOUBLE_EQ(flightPercentile(s, 0.99), 4.0);  // clamped to last
  EXPECT_DOUBLE_EQ(flightPercentile(s, 0.0), 1.0);
}

TEST(FlightAnalysisTest, AckWaitGroupedByHomePlace) {
  rgml_test::FakeQueues queues(2);
  FlightRecorder rec(2, 32, queues.source());
  rec.bindCurrentThread("p0", 0);
  // Three finishes closed at place 0 (1ms, 2ms, 3ms), one at place 1.
  for (int i = 1; i <= 3; ++i) {
    rec.record(makeEvent(i, EventKind::AckWaitEnd, 0, 2, i * 1e-3));
  }
  rec.record(makeEvent(4.0, EventKind::AckWaitEnd, 1, 2, 5e-3));
  const auto root = obs::analysis::JsonValue::parse(
      forensicJson(rec, nullptr));
  const auto analysis = obs::analysis::analyzeFlight(root);
  ASSERT_EQ(analysis.ackWait.size(), 2u);
  EXPECT_EQ(analysis.ackWait[0].queue, 0);
  EXPECT_EQ(analysis.ackWait[0].count, 3);
  EXPECT_DOUBLE_EQ(analysis.ackWait[0].p50Us, 2000.0);
  EXPECT_DOUBLE_EQ(analysis.ackWait[0].maxUs, 3000.0);
  EXPECT_EQ(analysis.ackWait[1].queue, 1);
  EXPECT_DOUBLE_EQ(analysis.ackWait[1].p50Us, 5000.0);
  const auto point = obs::analysis::finishCurvePoint(analysis);
  EXPECT_EQ(point.places, 2);
  EXPECT_EQ(point.place0Count, 3);
  EXPECT_DOUBLE_EQ(point.othersMaxP50Us, 5000.0);
}

// End to end on the real backend: a resilient world records enqueue /
// dequeue / ack-wait events for every place, and the kill path records
// kill + heap-wipe + poison into the killer's lane.
TEST(FlightRecorderTest, ThreadsBackendRecordsLifecycleEvents) {
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = 3;
  cfg.backend = apgas::Backend::Threads;
  cfg.resilientFinish = true;
  cfg.flightRingCapacity = 4096;
  apgas::WorldGuard guard(cfg);
  apgas::Runtime& rt = apgas::Runtime::world();
  ASSERT_NE(rt.flightRecorder(), nullptr);
  apgas::finish([] {
    for (int p = 1; p < 3; ++p) {
      apgas::asyncAt(apgas::Place(p), [] {
        apgas::finish([] { apgas::async([] {}); });
      });
    }
  });
  rt.kill(2);
  const std::string dump = rt.flightDump();
  ASSERT_FALSE(dump.empty());
  const auto root = obs::analysis::JsonValue::parse(dump);
  const auto analysis = obs::analysis::analyzeFlight(root);
  EXPECT_EQ(analysis.places, 3);
  EXPECT_GE(analysis.lanes, 3L);  // p0..p2 workers at least
  // Every place closed at least one resilient finish.
  ASSERT_GE(analysis.ackWait.size(), 3u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(analysis.ackWait[static_cast<std::size_t>(p)].queue, p);
    EXPECT_GE(analysis.ackWait[static_cast<std::size_t>(p)].count, 1);
  }
  // The kill fires kill, heap-wipe and poison events for queue 2, in
  // that order, all in the killing thread's lane (the world-owning "p0"),
  // and marks the progress row dead — scan the raw lanes for the kinds.
  std::vector<std::string> killPath;
  for (const auto& lane : root.at("flight").at("lanes").items()) {
    for (const auto& ev : lane.at("events").items()) {
      const std::string& kind = ev.at("kind").asString();
      if (kind == "kill" || kind == "heap_wipe" || kind == "poison") {
        killPath.push_back(lane.at("label").asString() + ":" + kind + "@" +
                           std::to_string(ev.at("queue").asLong()));
      }
    }
  }
  EXPECT_EQ(killPath, (std::vector<std::string>{"p0:kill@2", "p0:heap_wipe@2",
                                                "p0:poison@2"}));
  for (const auto& q : analysis.queues) {
    if (q.queue == 2) {
      EXPECT_TRUE(q.dead);
    }
  }
}

// The Threads backend is the recorder's progress source: it counts each
// queue under the queue's own lock. After a resilient finish closes,
// every queue it used reads drained; a kill marks the place dead with an
// empty queue; a queue the world does not have reads all-zero.
TEST(FlightRecorderTest, ProgressCountersPerQueue) {
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = 3;
  cfg.backend = apgas::Backend::Threads;
  cfg.resilientFinish = true;
  apgas::WorldGuard guard(cfg);
  apgas::Runtime& rt = apgas::Runtime::world();
  const FlightRecorder* rec = rt.flightRecorder();
  ASSERT_NE(rec, nullptr);
  apgas::finish([] {
    for (int i = 0; i < 3; ++i) apgas::asyncAt(apgas::Place(1), [] {});
  });
  const auto p1 = rec->progress(1);
  EXPECT_EQ(p1.enqueues, 3u);
  EXPECT_EQ(p1.dequeues, 3u);
  EXPECT_EQ(p1.depth, 0);
  EXPECT_FALSE(p1.dead);
  EXPECT_EQ(rec->progress(2).enqueues, 0u);
  // Register, 3 spawns, 3 terminations, then the ack, which the control
  // thread answers only after popping everything queued before it.
  const auto ctrl = rec->progress(kCtrlQueue);
  EXPECT_EQ(ctrl.enqueues, 8u);
  EXPECT_EQ(ctrl.dequeues, 8u);
  EXPECT_EQ(ctrl.depth, 0);
  rt.kill(2);
  const auto p2 = rec->progress(2);
  EXPECT_TRUE(p2.dead);
  EXPECT_EQ(p2.depth, 0);
  const auto none = rec->progress(7);
  EXPECT_EQ(none.enqueues, 0u);
  EXPECT_FALSE(none.dead);
}

// Elastically added places join the recorder's progress view: what the
// watchdog samples and the dump lists (4 places, then the ctrl queue).
TEST(FlightRecorderTest, AddPlacesGrowsProgressTable) {
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = 2;
  cfg.backend = apgas::Backend::Threads;
  apgas::WorldGuard guard(cfg);
  apgas::Runtime& rt = apgas::Runtime::world();
  const FlightRecorder* rec = rt.flightRecorder();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->places(), 2);
  const auto fresh = rt.addPlaces(2);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(rec->places(), 4);
  apgas::finish([&fresh] { apgas::asyncAt(apgas::Place(fresh[1]), [] {}); });
  const auto row = rec->progress(fresh[1]);
  EXPECT_EQ(row.enqueues, 1u);
  EXPECT_EQ(row.dequeues, 1u);
  const auto root = obs::analysis::JsonValue::parse(rt.flightDump());
  EXPECT_EQ(root.at("flight").at("progress").items().size(), 5u);
}

TEST(FlightRecorderTest, DisabledRecorderYieldsEmptyDump) {
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = 2;
  cfg.backend = apgas::Backend::Threads;
  cfg.flightRecorder = false;
  apgas::WorldGuard guard(cfg);
  apgas::Runtime& rt = apgas::Runtime::world();
  EXPECT_EQ(rt.flightRecorder(), nullptr);
  EXPECT_EQ(rt.stallWatchdog(), nullptr);
  apgas::finish([] { apgas::asyncAt(apgas::Place(1), [] {}); });
  EXPECT_TRUE(rt.flightDump().empty());
}

}  // namespace
