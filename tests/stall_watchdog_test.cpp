// Stall-watchdog tests. The manual-sampling half pins the progress-
// counter stall rule (depth non-zero at two consecutive samples with no
// dequeue advance, place not dead) and discriminates it from wall-clock
// heuristics: idle places and slow-but-progressing places are never
// flagged no matter how much fake time elapses. The real-backend half
// replays the observable signature of the PR 8 waitFinish lost-wakeup —
// a message sitting in a non-draining inbox — and asserts the background
// sampler flags it within one sampling period of the stall forming.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apgas/runtime.h"
#include "fake_queues.h"
#include "obs/analysis/json.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/forensic_dump.h"
#include "obs/flight/stall_watchdog.h"

namespace {

using namespace rgml;
using namespace rgml::obs::flight;

/// Hand-driven queues + recorder + fake-clock watchdog, sampled only by
/// sampleNow().
struct ManualWatchdog {
  rgml_test::FakeQueues queues;
  FlightRecorder rec;
  double fakeNow = 0.0;
  StallWatchdog wd;
  explicit ManualWatchdog(int places)
      : queues(places),
        rec(places, 64, queues.source()),
        wd(rec, [this] { return fakeNow; }, /*periodSeconds=*/0.0) {}
  StallWatchdog::Sample tick(double dt = 1.0) {
    fakeNow += dt;
    return wd.sampleNow();
  }
};

TEST(StallWatchdogTest, StallFlaggedAtTheSecondStalledSample) {
  ManualWatchdog m(2);
  m.queues.enqueue(0, 1);  // one message queued, never dequeued
  m.tick();
  EXPECT_TRUE(m.wd.verdicts().empty());  // one sample proves nothing
  m.tick();
  const auto verdicts = m.wd.verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].queue, 0);
  EXPECT_EQ(verdicts[0].depth, 1);
  EXPECT_EQ(verdicts[0].dequeues, 0u);
  EXPECT_EQ(verdicts[0].sampleIndex, 1);
}

TEST(StallWatchdogTest, IdlePlaceIsNeverFlagged) {
  ManualWatchdog m(2);
  // Empty inboxes forever: a wall-clock heuristic would fire here; the
  // progress rule must not, however much fake time passes.
  for (int i = 0; i < 50; ++i) m.tick(60.0);
  EXPECT_TRUE(m.wd.verdicts().empty());
}

TEST(StallWatchdogTest, SlowButProgressingPlaceIsNeverFlagged) {
  ManualWatchdog m(2);
  long depth = 0;
  for (int i = 0; i < 8; ++i) {
    m.queues.enqueue(0, ++depth);
    m.queues.enqueue(0, ++depth);
  }
  for (int i = 0; i < 8; ++i) {
    // Deep queue, but one dequeue per sampling period: progress.
    m.queues.dequeue(0, --depth);
    m.tick(60.0);
  }
  EXPECT_TRUE(m.wd.verdicts().empty());
}

TEST(StallWatchdogTest, OneVerdictPerEpisodeAndReArmAfterProgress) {
  ManualWatchdog m(2);
  m.queues.enqueue(0, 1);
  for (int i = 0; i < 5; ++i) m.tick();
  EXPECT_EQ(m.wd.verdicts().size(), 1u);  // episode dedup
  m.queues.dequeue(0, 0);  // drains: episode ends
  m.tick();
  m.queues.enqueue(0, 1);  // stalls again
  m.tick();
  m.tick();
  const auto verdicts = m.wd.verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[1].queue, 0);
}

TEST(StallWatchdogTest, DeadPlaceIsNeverFlagged) {
  ManualWatchdog m(2);
  m.queues.enqueue(1, 1);
  m.queues.kill(1);  // kill path: depth resets, dead set
  m.tick();
  m.tick();
  EXPECT_TRUE(m.wd.verdicts().empty());
}

TEST(StallWatchdogTest, ControlQueueIsWatchedToo) {
  ManualWatchdog m(2);
  m.queues.enqueue(kCtrlQueue, 3);
  m.tick();
  m.tick();
  const auto verdicts = m.wd.verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].queue, kCtrlQueue);
  EXPECT_EQ(verdicts[0].depth, 3);
}

TEST(StallWatchdogTest, SamplesRecordRowsForAllQueues) {
  ManualWatchdog m(3);
  m.queues.enqueue(1, 2);
  const auto sample = m.tick();
  ASSERT_EQ(sample.rows.size(), 4u);  // places 0..2, then ctrl
  EXPECT_EQ(sample.rows[1].queue, 1);
  EXPECT_EQ(sample.rows[1].depth, 2);
  EXPECT_EQ(sample.rows[3].queue, kCtrlQueue);
  EXPECT_EQ(sample.index, 0);
  EXPECT_EQ(m.tick().index, 1);
}

// The PR 8 regression, watchdog-grade: place 1's worker is stuck in a
// long task while a second message sits in its inbox — exactly what the
// lost-wakeup bug looked like from outside (no dequeue progress on a
// non-empty queue). The always-on sampler must produce a verdict for
// queue 1 while the stall is live, within one period of its second
// sample, and the verdict must surface in the forensic dump.
TEST(StallWatchdogTest, BackgroundSamplerFlagsLostWakeupSignature) {
  apgas::RuntimeConfig cfg;
  cfg.numPlaces = 2;
  cfg.backend = apgas::Backend::Threads;
  cfg.resilientFinish = true;
  cfg.watchdogPeriodMs = 10.0;
  apgas::WorldGuard guard(cfg);
  apgas::Runtime& rt = apgas::Runtime::world();
  auto* wd = rt.stallWatchdog();
  ASSERT_NE(wd, nullptr);
  EXPECT_DOUBLE_EQ(wd->periodSeconds(), 0.010);
  apgas::finish([] {
    apgas::asyncAt(apgas::Place(1), [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    });
    // Second message: queued behind the sleeper, so place 1's inbox is
    // non-empty with a frozen dequeue counter for ~150ms — 15 periods.
    apgas::asyncAt(apgas::Place(1), [] {});
  });
  const auto verdicts = wd->verdicts();
  bool flagged = false;
  for (const auto& v : verdicts) {
    if (v.queue == 1) flagged = true;
  }
  EXPECT_TRUE(flagged) << verdicts.size() << " verdicts, none for queue 1";
  // Within one period of the second stalled sample: the verdict's own
  // timestamps prove the rule fired while the stall was live, not after.
  for (const auto& v : verdicts) {
    if (v.queue != 1) continue;
    EXPECT_EQ(v.depth, 1);
    EXPECT_GE(v.sampleIndex, 1);
    break;
  }
  const std::string dump = rt.flightDump();
  const auto root = obs::analysis::JsonValue::parse(dump);
  const auto& wdJson = root.at("flight").at("watchdog");
  EXPECT_GE(wdJson.at("samples").items().size(), 2u);
  bool dumpHasVerdict = false;
  for (const auto& v : wdJson.at("verdicts").items()) {
    if (v.at("queue").asLong() == 1) dumpHasVerdict = true;
  }
  EXPECT_TRUE(dumpHasVerdict);
}

}  // namespace
