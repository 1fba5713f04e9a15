// Tests for the executor's event record — its top-level spans on an
// obs::TraceSink: event sequences across failure-free and failing runs,
// interval consistency with the executor's stats, the span-to-text
// timeline, and the Chrome-trace export of victim and mode.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "apgas/runtime.h"
#include "framework/resilient_executor.h"
#include "gml/dist_vector.h"
#include "obs/analysis/json.h"
#include "obs/chrome_trace.h"
#include "obs/trace_sink.h"
#include "resilient/snapshottable_scalars.h"

namespace rgml::framework {
namespace {

using apgas::FaultInjector;
using apgas::PlaceGroup;
using apgas::Runtime;
using obs::Category;
using obs::Span;

/// Minimal traced app (same shape as framework_test's CountingApp).
class TracedApp final : public ResilientIterativeApp {
 public:
  explicit TracedApp(const PlaceGroup& pg) : pg_(pg) {
    x_ = gml::DistVector::make(32, pg_);
    x_.init(0.0);
    scalars_ = resilient::SnapshottableScalars(1, pg_);
  }

  bool isFinished() override { return iteration_ >= 30; }

  void step() override {
    x_.map([](double v, long) { return v + 1.0; }, 1.0);
    ++iteration_;
  }

  void checkpoint(resilient::AppResilientStore& store) override {
    scalars_[0] = static_cast<double>(iteration_);
    store.startNewSnapshot();
    store.save(x_);
    store.save(scalars_);
    store.commit();
  }

  void restore(const PlaceGroup& newPlaces,
               resilient::AppResilientStore& store, long,
               RestoreMode) override {
    x_.remake(newPlaces);
    scalars_.remake(newPlaces);
    pg_ = newPlaces;
    store.restore();
    iteration_ = static_cast<long>(scalars_[0]);
  }

 private:
  PlaceGroup pg_;
  gml::DistVector x_;
  resilient::SnapshottableScalars scalars_;
  long iteration_ = 0;
};

/// The executor's event kinds as (category, span name) pairs.
struct EventKind {
  Category category;
  const char* name;
};
constexpr EventKind kStep{Category::Step, "step"};
constexpr EventKind kCheckpoint{Category::CheckpointSave, "checkpoint"};
constexpr EventKind kFailure{Category::Kill, "failure"};
constexpr EventKind kRestore{Category::Restore, "restore"};

bool isKind(const Span& s, const EventKind& kind) {
  return s.category == kind.category && s.name == kind.name;
}

/// A completed executor event: a depth-0 span of one of the four kinds
/// that no failure closed as aborted.
bool isCompletedEvent(const Span& s) {
  return s.depth == 0 && s.arg("aborted").empty() &&
         (isKind(s, kStep) || isKind(s, kCheckpoint) ||
          isKind(s, kFailure) || isKind(s, kRestore));
}

/// The completed executor events of `spans`, in recording order.
std::vector<Span> events(const std::vector<Span>& spans) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (isCompletedEvent(s)) out.push_back(s);
  }
  return out;
}

std::vector<Span> ofKind(const std::vector<Span>& spans,
                         const EventKind& kind) {
  std::vector<Span> out;
  for (const Span& s : events(spans)) {
    if (isKind(s, kind)) out.push_back(s);
  }
  return out;
}

double totalTime(const std::vector<Span>& spans, const EventKind& kind) {
  double total = 0.0;
  for (const Span& s : ofKind(spans, kind)) total += s.duration();
  return total;
}

/// The event record as text, one obs::spanLine per event.
std::string timeline(const std::vector<Span>& events) {
  std::string out;
  for (const Span& s : events) out += obs::spanLine(s) + '\n';
  return out;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Runtime::init(5, apgas::CostModel{}, /*resilientFinish=*/true);
  }

  /// Run TracedApp over places 0..3 with a checkpoint every 10
  /// iterations, killing `victim` after iteration `killAt` (no kill when
  /// victim < 0); returns the spans the run recorded.
  std::vector<Span> tracedRun(long killAt, apgas::PlaceId victim,
                              RunStats* stats = nullptr) {
    auto pg = PlaceGroup::firstPlaces(4);
    TracedApp app(pg);
    FaultInjector injector;
    if (victim >= 0) injector.killOnIteration(killAt, victim);
    ExecutorConfig cfg;
    cfg.places = pg;
    cfg.checkpointInterval = 10;
    ResilientExecutor executor(cfg);
    obs::TraceSink sink;
    {
      obs::SinkScope scope(&sink);
      const RunStats result = executor.run(app, &injector);
      if (stats != nullptr) *stats = result;
    }
    return sink.takeSpans();
  }
};

TEST_F(TraceTest, FailureFreeRunRecordsStepsAndCheckpoints) {
  RunStats stats;
  const std::vector<Span> spans = tracedRun(0, -1, &stats);

  EXPECT_EQ(ofKind(spans, kStep).size(), 30u);
  EXPECT_EQ(ofKind(spans, kCheckpoint).size(), 3u);
  EXPECT_TRUE(ofKind(spans, kFailure).empty());
  EXPECT_TRUE(ofKind(spans, kRestore).empty());
  // Aggregates agree with the executor's own accounting.
  EXPECT_NEAR(totalTime(spans, kCheckpoint), stats.checkpointTime, 1e-12);
}

TEST_F(TraceTest, FailureRunRecordsFailureAndRestore) {
  RunStats stats;
  const std::vector<Span> spans = tracedRun(15, 2, &stats);

  const auto failures = ofKind(spans, kFailure);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].arg("victim"), "2");
  EXPECT_EQ(failures[0].place, 2);
  EXPECT_EQ(failures[0].iteration, 15);

  const auto restores = ofKind(spans, kRestore);
  ASSERT_EQ(restores.size(), 1u);
  EXPECT_EQ(restores[0].arg("restored_to"), "10");  // rollback target
  // The restore is attributed to the failure that triggered it.
  EXPECT_EQ(restores[0].arg("victim"), "2");
  EXPECT_NEAR(totalTime(spans, kRestore), stats.restoreTime, 1e-12);

  // 35 completed steps: 15 + 20 re-executed. The step the failure
  // interrupted is closed as aborted and is not an event.
  EXPECT_EQ(ofKind(spans, kStep).size(), 35u);
  long aborted = 0;
  for (const Span& s : spans) {
    if (s.depth == 0 && isKind(s, kStep) && s.arg("aborted") == "true") {
      ++aborted;
    }
  }
  EXPECT_EQ(aborted, 1);
}

TEST_F(TraceTest, EventsAreChronologicallyOrdered) {
  const std::vector<Span> record = events(tracedRun(12, 1));
  ASSERT_FALSE(record.empty());

  double lastStart = -1.0;
  for (const Span& e : record) {
    EXPECT_GE(e.startTime, lastStart);
    EXPECT_GE(e.endTime, e.startTime);
    lastStart = e.startTime;
  }
}

TEST_F(TraceTest, TimelineRendersEveryEvent) {
  const std::vector<Span> record = events(tracedRun(15, 3));

  const std::string text = timeline(record);
  // One line per event.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, record.size());
  EXPECT_NE(text.find("kill failure"), std::string::npos);
  EXPECT_NE(text.find("restore restore"), std::string::npos);
  EXPECT_NE(text.find("mode=shrink"), std::string::npos);
  EXPECT_NE(text.find("victim=3"), std::string::npos);
  EXPECT_NE(text.find("restored_to=10"), std::string::npos);
}

TEST_F(TraceTest, TimelineSurvivesOversizedLines) {
  // The renderer has no fixed-size line buffer: extreme but representable
  // values, far past 160 characters per line, come out whole.
  Span step;
  step.category = Category::Step;
  step.name = "step";
  step.iteration = std::numeric_limits<long>::max();
  step.place = std::numeric_limits<int>::max();
  step.startTime = -1e300;
  step.endTime = 1e300;
  Span failure = step;
  failure.category = Category::Kill;
  failure.name = "failure";
  failure.args = {{"victim", std::to_string(std::numeric_limits<int>::max())}};
  Span restore = failure;
  restore.category = Category::Restore;
  restore.name = "restore";
  restore.args.emplace_back("mode", toString(RestoreMode::ShrinkRebalance));
  const std::vector<Span> record{step, failure, restore};

  const std::string text = timeline(record);
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, record.size());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // Nothing was truncated: every rendered value survives in full.
  EXPECT_NE(text.find(std::to_string(std::numeric_limits<long>::max())),
            std::string::npos);
  EXPECT_NE(text.find("victim=" +
                      std::to_string(std::numeric_limits<int>::max())),
            std::string::npos);
  EXPECT_NE(text.find("failure"), std::string::npos);
  EXPECT_NE(text.find("mode=shrink-rebalance"), std::string::npos);
}

TEST_F(TraceTest, JsonExportCarriesVictimAndMode) {
  obs::TraceLane lane{1, "traced", tracedRun(15, 3)};
  const auto root =
      obs::analysis::JsonValue::parse(obs::toChromeTraceJson({lane}));

  long failures = 0;
  long restores = 0;
  long steps = 0;
  for (const auto& event : root.at("traceEvents").items()) {
    const std::string& name = event.at("name").asString();
    const auto& args = event.at("args");
    if (name == "failure") {
      ++failures;
      EXPECT_EQ(args.at("victim").asString(), "3");
      EXPECT_EQ(args.at("mode").asString(), "shrink");
    } else if (name == "restore") {
      ++restores;
      EXPECT_EQ(args.at("victim").asString(), "3");
      EXPECT_EQ(args.at("mode").asString(), "shrink");
      EXPECT_EQ(args.at("restored_to").asString(), "10");
    } else if (name == "step") {
      ++steps;
      // Step events carry no victim; completed ones carry the mode.
      EXPECT_EQ(args.find("victim"), nullptr);
      if (args.find("aborted") == nullptr) {
        EXPECT_EQ(args.at("mode").asString(), "shrink");
      }
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(restores, 1);
  EXPECT_EQ(steps, 36);  // 35 completed + the one the failure aborted
}

TEST_F(TraceTest, KindNames) {
  // The four event kinds and their exported category labels.
  const std::vector<Span> spans = tracedRun(15, 3);
  for (const EventKind& kind : {kStep, kCheckpoint, kFailure, kRestore}) {
    EXPECT_FALSE(ofKind(spans, kind).empty()) << kind.name;
  }
  EXPECT_STREQ(obs::toString(kStep.category), "step");
  EXPECT_STREQ(obs::toString(kCheckpoint.category), "checkpoint-save");
  EXPECT_STREQ(obs::toString(kFailure.category), "kill");
  EXPECT_STREQ(obs::toString(kRestore.category), "restore");
}

}  // namespace
}  // namespace rgml::framework
