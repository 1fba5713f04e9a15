// Tests for the trace-analysis layer (src/obs/analysis/): the JSON
// writer and parser, the trace/metrics loaders inverting the exporters
// (including escape round-trips with hostile names), self-time attribution,
// critical-path extraction, the checkpoint-amortization model, and an
// end-to-end pass over a fig7-style PageRank restore scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "framework/checkpoint_interval.h"
#include "harness/sweeper.h"
#include "obs/analysis/amortization.h"
#include "obs/analysis/attribution.h"
#include "obs/analysis/critical_path.h"
#include "obs/analysis/json.h"
#include "obs/analysis/trace_load.h"
#include "obs/analysis/trace_report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rgml::obs::analysis {
namespace {

// ---- JSON parser ----------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const JsonValue v = JsonValue::parse(
      R"({"n": -12.5e1, "i": 42, "t": true, "f": false, "z": null,)"
      R"( "a": [1, "two", {"three": 3}], "s": "text"})");
  ASSERT_TRUE(v.isObject());
  EXPECT_DOUBLE_EQ(v.at("n").asNumber(), -125.0);
  EXPECT_EQ(v.at("i").asLong(), 42);
  EXPECT_TRUE(v.at("t").asBool());
  EXPECT_FALSE(v.at("f").asBool());
  EXPECT_TRUE(v.at("z").isNull());
  ASSERT_EQ(v.at("a").items().size(), 3u);
  EXPECT_EQ(v.at("a").items()[1].asString(), "two");
  EXPECT_EQ(v.at("a").items()[2].at("three").asLong(), 3);
  EXPECT_EQ(v.at("s").asString(), "text");
  EXPECT_DOUBLE_EQ(v.numberOr("missing", 7.0), 7.0);
  EXPECT_EQ(v.stringOr("missing", "dflt"), "dflt");
}

TEST(Json, PreservesMemberOrder) {
  const JsonValue v = JsonValue::parse(R"({"zebra": 1, "alpha": 2})");
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "zebra");
  EXPECT_EQ(v.members()[1].first, "alpha");
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  const JsonValue v = JsonValue::parse(
      R"("q\" b\\ s\/ n\n t\t r\r bs\b ff\f uA eur€ g😀")");
  EXPECT_EQ(v.asString(),
            "q\" b\\ s/ n\n t\t r\r bs\b ff\f uA eur\xe2\x82\xac"
            " g\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), JsonError);
  EXPECT_THROW((void)JsonValue::parse("{"), JsonError);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)JsonValue::parse("\"bad\\x\""), JsonError);
  EXPECT_THROW((void)JsonValue::parse("truthy"), JsonError);
  EXPECT_THROW((void)JsonValue::parse("1 2"), JsonError);  // trailing junk
  EXPECT_THROW((void)JsonValue::parseFile("/nonexistent/x.json"), JsonError);
}

TEST(Json, TypeMismatchAndMissingKeyThrow) {
  const JsonValue v = JsonValue::parse(R"({"a": 1})");
  EXPECT_THROW((void)v.at("missing"), JsonError);
  EXPECT_THROW((void)v.at("a").asString(), JsonError);
  EXPECT_THROW((void)v.at("a").items(), JsonError);
  EXPECT_EQ(v.find("missing"), nullptr);
}

// ---- exporter/loader round-trips (escaping under hostile names) ----------

// A name exercising every escape class the writers must handle: quotes,
// backslashes, control characters, and multi-byte UTF-8.
const char* kNastyName = "q\"uote b\\ack\nnl\ttab ctl\x01 eur\xe2\x82\xac";

TEST(TraceRoundTrip, ChromeTraceSurvivesHostileNamesAndArgs) {
  TraceLane lane;
  lane.pid = 7;
  lane.name = kNastyName;
  Span s;
  s.category = Category::Restore;
  s.name = kNastyName;
  s.iteration = 15;
  s.place = 2;
  s.startTime = 1.25;
  s.endTime = 2.5;
  s.bytes = 99;
  s.phase = "restore";
  s.args = {{"mode", kNastyName}, {"victim", "3"}};
  lane.spans.push_back(s);

  const std::vector<LoadedLane> lanes =
      loadChromeTrace(JsonValue::parse(toChromeTraceJson({lane})));
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].pid, 7);
  EXPECT_EQ(lanes[0].name, kNastyName);
  ASSERT_EQ(lanes[0].spans.size(), 1u);
  const Span& back = lanes[0].spans[0];
  EXPECT_EQ(back.category, Category::Restore);
  EXPECT_EQ(back.name, kNastyName);
  EXPECT_EQ(back.iteration, 15);
  EXPECT_EQ(back.place, 2);
  EXPECT_NEAR(back.startTime, 1.25, 1e-9);
  EXPECT_NEAR(back.endTime, 2.5, 1e-9);
  EXPECT_EQ(back.bytes, 99u);
  EXPECT_EQ(back.phase, "restore");
  EXPECT_EQ(back.arg("mode"), kNastyName);
  EXPECT_EQ(back.arg("victim"), "3");
}

TEST(TraceRoundTrip, MetricsSurviveHostileNames) {
  MetricsRegistry reg;
  reg.add(kNastyName, 5);
  reg.set(std::string(kNastyName) + ".g", 2.5);
  reg.histogram(kNastyName, {1.0, 2.0}).observe(1.5);
  reg.histogram(kNastyName, {1.0, 2.0}).observe(9.0);

  const MetricsRegistry back = loadMetrics(JsonValue::parse(reg.toJson()));
  EXPECT_EQ(back.counter(kNastyName), 5u);
  EXPECT_DOUBLE_EQ(back.gauges().at(std::string(kNastyName) + ".g"), 2.5);
  const Histogram& h = back.histograms().at(kNastyName);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.sum(), 10.5);
  EXPECT_EQ(h.bucketCounts(), (std::vector<long>{0, 1, 1}));
  // Round-trip is exact: re-exporting reproduces the original bytes.
  EXPECT_EQ(back.toJson(), reg.toJson());
}

TEST(TraceRoundTrip, LoaderRejectsCorruptDocuments) {
  EXPECT_THROW((void)loadChromeTrace(JsonValue::parse("[1, 2]")), JsonError);
  EXPECT_THROW((void)loadChromeTrace(JsonValue::parse(
                   R"({"traceEvents": [{"ph": "X", "cat": "no-such-cat",)"
                   R"( "name": "x", "pid": 1, "tid": 0, "ts": 0, "dur": 1}]})")),
               JsonError);
  // Histogram whose buckets don't sum to the count must fail loudly.
  EXPECT_THROW(
      (void)loadMetrics(JsonValue::parse(
          R"({"counters": {}, "gauges": {}, "histograms": {"h":)"
          R"( {"count": 5, "sum": 1.0, "bounds": [1], "buckets": [1, 1]}}})")),
      JsonError);
}

// The writer against the parser: escapes, layouts, value types, splices.

using Layout = JsonWriter::Layout;

/// Every control character plus the quote and backslash escape classes.
std::string allEscapeClasses() {
  std::string s = kNastyName;
  for (char c = 1; c < 0x20; ++c) s += c;
  return s + "\"\\/";
}

TEST(JsonWriterRoundTrip, KeysAndValuesWithEveryEscapeClassParseBackEqual) {
  const std::string nasty = allEscapeClasses();
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject(Layout::Lines)
      .member(kNastyName, kNastyName)
      .member(nasty, nasty);
  w.key("list").beginArray().value(nasty).value(kNastyName).end().end();

  const JsonValue v = JsonValue::parse(os.str());
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, kNastyName);
  EXPECT_EQ(v.members()[0].second.asString(), kNastyName);
  EXPECT_EQ(v.members()[1].first, nasty);
  EXPECT_EQ(v.members()[1].second.asString(), nasty);
  EXPECT_EQ(v.at("list").items()[0].asString(), nasty);
  EXPECT_EQ(v.at("list").items()[1].asString(), kNastyName);
}

TEST(JsonWriterRoundTrip, NestedAndEmptyContainersInBothLayouts) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject(Layout::Lines);
  w.key("lines").beginObject(Layout::Lines);
  w.key("inline").beginArray().value(1L);
  w.beginObject(Layout::Lines).member("deep", 2L).end();
  w.beginArray(Layout::Inline).end();
  w.end();
  w.key("empty_lines_object").beginObject(Layout::Lines).end();
  w.key("empty_lines_array").beginArray(Layout::Lines).end();
  w.end();
  w.key("empty_inline_object").beginObject().end();
  w.key("empty_inline_array").beginArray().end();
  w.end();

  const JsonValue v = JsonValue::parse(os.str());
  const JsonValue& lines = v.at("lines");
  const auto& items = lines.at("inline").items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].asLong(), 1);
  EXPECT_EQ(items[1].at("deep").asLong(), 2);
  EXPECT_TRUE(items[2].isArray());
  EXPECT_TRUE(items[2].items().empty());
  EXPECT_TRUE(lines.at("empty_lines_object").members().empty());
  EXPECT_TRUE(lines.at("empty_lines_array").items().empty());
  EXPECT_TRUE(v.at("empty_inline_object").members().empty());
  EXPECT_TRUE(v.at("empty_inline_array").items().empty());
  // Empty containers stay on one line in either layout.
  EXPECT_NE(os.str().find("\"empty_lines_object\": {},"), std::string::npos);
  EXPECT_NE(os.str().find("\"empty_lines_array\": []\n"), std::string::npos);
}

TEST(JsonWriterRoundTrip, BoolsAndIntegersStayDistinct) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject()
      .member("yes", true)
      .member("no", false)
      .member("one", 1)
      .member("zero", 0L)
      .member("big", std::uint64_t{1} << 53)
      .member("half", 0.5)
      .end();
  EXPECT_EQ(os.str(),
            R"({"yes": true, "no": false, "one": 1, "zero": 0, )"
            R"("big": 9007199254740992, "half": 0.5})");

  const JsonValue v = JsonValue::parse(os.str());
  EXPECT_TRUE(v.at("yes").isBool());
  EXPECT_TRUE(v.at("yes").asBool());
  EXPECT_FALSE(v.at("no").asBool());
  EXPECT_TRUE(v.at("one").isNumber());
  EXPECT_EQ(v.at("one").asLong(), 1);
  EXPECT_TRUE(v.at("zero").isNumber());
  EXPECT_EQ(v.at("big").asNumber(), 9007199254740992.0);
}

TEST(JsonWriterRoundTrip, RawSpliceIsVerbatim) {
  const std::string dump = "{\"flight\": {\n  \"places\": 2\n}}";
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray(Layout::Lines).raw(dump);
  w.beginObject().key("flight").raw(dump).member("after", 1).end().end();
  EXPECT_EQ(os.str(), "[\n  " + dump + ",\n  {\"flight\": " + dump +
                          ", \"after\": 1}\n]");

  const JsonValue v = JsonValue::parse(os.str());
  EXPECT_EQ(v.items()[0].at("flight").at("places").asLong(), 2);
  EXPECT_EQ(v.items()[1].at("flight").at("flight").at("places").asLong(), 2);
}

TEST(JsonWriterRoundTrip, PinsTheBytesOfAMixedLayoutDocument) {
  // The layout contract every artifact relies on: a change here changes
  // chaos reports, Chrome traces, metrics and BENCH files byte for byte.
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject(Layout::Lines).key("doc").beginObject(Layout::Lines);
  w.member("name", "a\"b").member("ratio", 1.0 / 3.0).member("n", -7);
  w.key("tags").beginArray().value("x").value(2.5e-7).end();
  w.key("rows").beginArray(Layout::Lines);
  w.beginObject().member("k", 1).member("ok", true).end();
  w.beginObject().member("k", 2).key("sub").beginObject().end().end();
  w.end().key("empty").beginArray(Layout::Lines).end();
  w.end().key("inline").beginObject().key("lines").beginArray(Layout::Lines);
  w.value(1).value(2).end().end().end();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"doc\": {\n"
            "    \"name\": \"a\\\"b\",\n"
            "    \"ratio\": 0.333333333333,\n"
            "    \"n\": -7,\n"
            "    \"tags\": [\"x\", 2.5e-07],\n"
            "    \"rows\": [\n"
            "      {\"k\": 1, \"ok\": true},\n"
            "      {\"k\": 2, \"sub\": {}}\n"
            "    ],\n"
            "    \"empty\": []\n"
            "  },\n"
            "  \"inline\": {\"lines\": [\n"
            "    1,\n"
            "    2\n"
            "  ]}\n"
            "}");
  EXPECT_EQ(jsonNumber(0.1), "0.1");
  EXPECT_EQ(jsonNumber(123456789.123456789), "123456789.123");
}

// ---- attribution ----------------------------------------------------------

Span makeSpan(Category cat, const char* name, int place, double start,
              double end, const char* phase = "",
              std::uint64_t bytes = 0) {
  Span s;
  s.category = cat;
  s.name = name;
  s.place = place;
  s.startTime = start;
  s.endTime = end;
  s.phase = phase;
  s.bytes = bytes;
  return s;
}

TEST(Attribution, SelfTimeSubtractsNestedChildren) {
  // step [0,10] on place 0 containing a comm [2,5] which contains a
  // nested save [3,4]; a sibling step [0,10] on place 1 is untouched.
  const std::vector<Span> spans{
      makeSpan(Category::Step, "step", 0, 0.0, 10.0, "step"),
      makeSpan(Category::Comms, "comm", 0, 2.0, 5.0, "step"),
      makeSpan(Category::CheckpointSave, "save", 0, 3.0, 4.0, "checkpoint"),
      makeSpan(Category::Step, "step", 1, 0.0, 10.0, "step"),
  };
  const std::vector<double> self = selfTimes(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_NEAR(self[0], 7.0, 1e-12);  // 10 - comm's 3
  EXPECT_NEAR(self[1], 2.0, 1e-12);  // 3 - save's 1
  EXPECT_NEAR(self[2], 1.0, 1e-12);
  EXPECT_NEAR(self[3], 10.0, 1e-12);  // different place: no interaction
}

TEST(Attribution, PercentagesSumToHundredAcrossBothViews) {
  const std::vector<Span> spans{
      makeSpan(Category::Step, "step", 0, 0.0, 6.0, "step"),
      makeSpan(Category::CheckpointSave, "save", 0, 1.0, 3.0, "checkpoint"),
      makeSpan(Category::Restore, "restore", 0, 4.0, 5.0, "restore"),
      makeSpan(Category::Finish, "finish.ack", 0, 6.0, 8.0),
      makeSpan(Category::Comms, "comm", 1, 0.0, 4.0),  // no phase tag
  };
  // Self times: step 6-(2+1)=3, save 2, restore 1, finish 2, comm 4.
  const AttributionReport report = attributeSelfTime(spans);
  EXPECT_NEAR(report.totalSeconds, 12.0, 1e-12);

  double catPct = 0.0, phasePct = 0.0;
  for (const auto& b : report.byCategory) catPct += b.pct;
  for (const auto& b : report.byPhase) phasePct += b.pct;
  EXPECT_NEAR(catPct, 100.0, 1e-9);
  EXPECT_NEAR(phasePct, 100.0, 1e-9);

  auto phase = [&](const std::string& key) -> const AttributionBucket* {
    for (const auto& b : report.byPhase)
      if (b.key == key) return &b;
    return nullptr;
  };
  // Category::Finish spans land in their own Table-IV bucket even though
  // they carry no phase tag; untagged comms fall into "untagged".
  ASSERT_NE(phase(kFinishPhase), nullptr);
  EXPECT_NEAR(phase(kFinishPhase)->selfSeconds, 2.0, 1e-12);
  ASSERT_NE(phase(kUntaggedPhase), nullptr);
  EXPECT_NEAR(phase(kUntaggedPhase)->selfSeconds, 4.0, 1e-12);
  ASSERT_NE(phase("checkpoint"), nullptr);
  EXPECT_NEAR(phase("checkpoint")->selfSeconds, 2.0, 1e-12);
  ASSERT_NE(phase("restore"), nullptr);
  EXPECT_NEAR(phase("restore")->selfSeconds, 1.0, 1e-12);
  ASSERT_NE(phase("step"), nullptr);
  EXPECT_NEAR(phase("step")->selfSeconds, 3.0, 1e-12);
}

TEST(Attribution, MergeFoldsBucketsAndRecomputesPercentages) {
  AttributionReport a = attributeSelfTime(
      {makeSpan(Category::Step, "step", 0, 0.0, 3.0, "step")});
  const AttributionReport b = attributeSelfTime(
      {makeSpan(Category::Restore, "restore", 0, 0.0, 1.0, "restore")});
  mergeAttribution(a, b);
  EXPECT_NEAR(a.totalSeconds, 4.0, 1e-12);
  double pct = 0.0;
  for (const auto& bucket : a.byCategory) pct += bucket.pct;
  EXPECT_NEAR(pct, 100.0, 1e-9);
  ASSERT_EQ(a.byCategory.size(), 2u);  // sorted by key
  EXPECT_EQ(a.byCategory[0].key, "restore");
  EXPECT_EQ(a.byCategory[1].key, "step");
  EXPECT_NEAR(a.byCategory[0].pct, 25.0, 1e-9);
}

// ---- critical path --------------------------------------------------------

TEST(CriticalPath, FollowsCommEdgeAcrossPlaces) {
  // Place 0 computes [0,4], sends a message [4,5] annotated to=1; place 1
  // consumes it [5,9]. Place 2 idles through a short unrelated span — the
  // cross-place chain must win.
  Span comm = makeSpan(Category::Comms, "comm", 0, 4.0, 5.0);
  comm.args = {{"to", "1"}};
  const std::vector<Span> spans{
      makeSpan(Category::Step, "step", 0, 0.0, 4.0, "step"),
      comm,
      makeSpan(Category::Step, "step", 1, 5.0, 9.0, "step"),
      makeSpan(Category::Run, "idle-ish", 2, 0.0, 1.0),
  };
  const CriticalPath path = extractCriticalPath(spans);
  EXPECT_NEAR(path.lengthSeconds, 9.0, 1e-12);
  EXPECT_NEAR(path.makespanSeconds, 9.0, 1e-12);
  ASSERT_EQ(path.entries.size(), 3u);
  EXPECT_EQ(path.entries[0].spanIndex, 0u);
  EXPECT_EQ(path.entries[1].spanIndex, 1u);
  EXPECT_EQ(path.entries[2].spanIndex, 2u);
  EXPECT_EQ(path.entries[1].category, "comms");

  // Category aggregation: largest first, percentages of path length.
  ASSERT_FALSE(path.byCategory.empty());
  EXPECT_EQ(path.byCategory[0].key, "step");
  EXPECT_NEAR(path.byCategory[0].seconds, 8.0, 1e-12);
  double pct = 0.0;
  for (const auto& c : path.byCategory) pct += c.pct;
  EXPECT_NEAR(pct, 100.0, 1e-9);
}

TEST(CriticalPath, WithoutCommEdgeChainsStayPerPlace) {
  // Same shape but the comm lacks a "to" annotation: place 1's span has
  // no predecessor, so the best chain is place 1's alone (or place 0's
  // two spans, 5s) — whichever is longer.
  const std::vector<Span> spans{
      makeSpan(Category::Step, "step", 0, 0.0, 4.0, "step"),
      makeSpan(Category::Comms, "comm", 0, 4.0, 5.0),
      makeSpan(Category::Step, "step", 1, 5.0, 9.0, "step"),
  };
  const CriticalPath path = extractCriticalPath(spans);
  EXPECT_NEAR(path.lengthSeconds, 5.0, 1e-12);
  ASSERT_EQ(path.entries.size(), 2u);
  EXPECT_EQ(path.entries[0].place, 0);
  EXPECT_EQ(path.entries[1].place, 0);
}

TEST(CriticalPath, EmptyAndInstantSpansAreSafe) {
  EXPECT_NEAR(extractCriticalPath({}).lengthSeconds, 0.0, 1e-12);
  const std::vector<Span> spans{
      makeSpan(Category::Kill, "failure", 1, 2.0, 2.0),  // instant
      makeSpan(Category::Step, "step", 1, 2.0, 3.0, "step"),
  };
  const CriticalPath path = extractCriticalPath(spans);
  EXPECT_NEAR(path.lengthSeconds, 1.0, 1e-12);
}

// ---- amortization ---------------------------------------------------------

const std::vector<double> kSecondsBuckets{1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};

TEST(Amortization, MatchesYoungIntervalAndOverheadModel) {
  MetricsRegistry m;
  Histogram& steps = m.histogram("executor.step_seconds", kSecondsBuckets);
  for (int i = 0; i < 100; ++i) steps.observe(0.02);  // avg step 0.02 s
  Histogram& ckpts =
      m.histogram("executor.checkpoint_seconds", kSecondsBuckets);
  for (int i = 0; i < 10; ++i) ckpts.observe(0.05);  // avg ckpt 0.05 s
  m.histogram("executor.restore_seconds", kSecondsBuckets).observe(0.5);
  m.add("executor.failures", 2);
  m.add("checkpoint.fresh_bytes", 600);
  m.add("checkpoint.carried_bytes", 400);
  m.add("checkpoint.fresh_entries", 6);
  m.add("checkpoint.carried_entries", 4);

  const double observed = 10.0;
  const AmortizationReport r = computeAmortization(m, observed);
  EXPECT_EQ(r.steps, 100);
  EXPECT_NEAR(r.avgStepSeconds, 0.02, 1e-12);
  EXPECT_EQ(r.checkpoints, 10);
  EXPECT_NEAR(r.avgCheckpointSeconds, 0.05, 1e-12);
  EXPECT_EQ(r.restores, 1);
  EXPECT_NEAR(r.carriedFraction, 0.4, 1e-12);
  EXPECT_NEAR(r.checkpointOverheadPct, 0.5 / 2.0 * 100.0, 1e-9);
  EXPECT_NEAR(r.restoreOverheadPct, 0.5 / 2.0 * 100.0, 1e-9);

  // MTBF observed: 10 s / 2 failures = 5 s; the recommendation must be
  // the executor's own Young formula, not a reimplementation.
  EXPECT_TRUE(r.mtbfObserved);
  EXPECT_NEAR(r.mtbfSeconds, 5.0, 1e-12);
  EXPECT_EQ(r.recommendedInterval,
            framework::youngIntervalIterations(0.05, 5.0, 0.02));
  const double I = static_cast<double>(r.recommendedInterval);
  EXPECT_NEAR(r.recommendedOverheadPct,
              (0.05 / (I * 0.02) + I * 0.02 / (2.0 * 5.0)) * 100.0, 1e-9);
  EXPECT_TRUE(r.note.empty()) << r.note;
}

TEST(Amortization, ExplicitMtbfOverridesAndFailureFreeRunsNeedIt) {
  MetricsRegistry m;
  m.histogram("executor.step_seconds", kSecondsBuckets).observe(0.02);
  m.histogram("executor.checkpoint_seconds", kSecondsBuckets).observe(0.05);

  // No failures, no --mtbf: no recommendation, explanatory note.
  const AmortizationReport bare = computeAmortization(m, 1.0);
  EXPECT_EQ(bare.recommendedInterval, 0);
  EXPECT_FALSE(bare.note.empty());

  // Explicit MTBF: recommendation appears and is not marked observed.
  const AmortizationReport forced = computeAmortization(m, 1.0, 100.0);
  EXPECT_FALSE(forced.mtbfObserved);
  EXPECT_NEAR(forced.mtbfSeconds, 100.0, 1e-12);
  EXPECT_EQ(forced.recommendedInterval,
            framework::youngIntervalIterations(0.05, 100.0, 0.02));
}

TEST(Amortization, TrivialCheckpointCostsDoNotShrinkTheInterval) {
  // Regression: a delta/lossy run where most commits carry everything
  // forward leaves the checkpoint histogram dominated by first-bucket
  // observations. The raw average collapses toward zero and Young's
  // formula used to recommend near-"checkpoint every iteration"; the
  // model must amortize the nontrivial-commit cost instead.
  MetricsRegistry m;
  Histogram& steps = m.histogram("executor.step_seconds", kSecondsBuckets);
  for (int i = 0; i < 100; ++i) steps.observe(0.02);
  Histogram& ckpts =
      m.histogram("executor.checkpoint_seconds", kSecondsBuckets);
  for (int i = 0; i < 20; ++i) ckpts.observe(5e-5);  // trivial commits
  ckpts.observe(0.05);
  ckpts.observe(0.05);
  m.add("executor.failures", 2);

  const AmortizationReport r = computeAmortization(m, 10.0);
  const double representative = r.checkpointSeconds / 2.0;
  EXPECT_NEAR(r.checkpointCostUsed, representative, 1e-12);
  EXPECT_FALSE(r.note.empty());
  EXPECT_EQ(r.recommendedInterval,
            framework::youngIntervalIterations(representative, 5.0, 0.02));
  EXPECT_GT(r.recommendedInterval,
            framework::youngIntervalIterations(r.avgCheckpointSeconds, 5.0,
                                               0.02));

  // Degenerate end of the same bug: *every* commit trivial. There is
  // nothing to amortize, so no interval at all beats advising one every
  // iteration.
  MetricsRegistry allTrivial;
  allTrivial.histogram("executor.step_seconds", kSecondsBuckets)
      .observe(0.02);
  Histogram& t =
      allTrivial.histogram("executor.checkpoint_seconds", kSecondsBuckets);
  for (int i = 0; i < 8; ++i) t.observe(5e-5);
  allTrivial.add("executor.failures", 1);
  const AmortizationReport r2 = computeAmortization(allTrivial, 10.0);
  EXPECT_EQ(r2.recommendedInterval, 0);
  EXPECT_NE(r2.note.find("trivial"), std::string::npos) << r2.note;
}

TEST(Amortization, CodecVolumeFoldsFromSnapshotCounters) {
  MetricsRegistry m;
  m.add("snapshot.raw_bytes", 1000);
  m.add("snapshot.encoded_bytes", 250);
  m.histogram("snapshot.codec_seconds",
              {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1})
      .observe(2e-4);
  const AmortizationReport r = computeAmortization(m);
  EXPECT_EQ(r.rawBytes, 1000u);
  EXPECT_EQ(r.encodedBytes, 250u);
  EXPECT_NEAR(r.compressionRatio, 4.0, 1e-12);
  EXPECT_NEAR(r.codecSeconds, 2e-4, 1e-12);
}

// ---- end-to-end: fig7-style PageRank restore scenario ---------------------

harness::ScenarioOutcome runPageRankRestoreScenario() {
  harness::SweepOptions opt;
  opt.apps = {harness::AppKind::PageRank};
  opt.iterations = 10;
  opt.places = 4;
  opt.spares = 2;
  opt.checkpointInterval = 4;
  opt.allVictims = false;
  opt.captureTraces = true;
  harness::FaultSchedule schedule;
  schedule.mode = framework::RestoreMode::Shrink;
  harness::KillEvent kill;
  kill.trigger = harness::KillEvent::Trigger::Iteration;
  kill.at = 6;  // after the first committed checkpoint (interval 4)
  kill.victim = 1;
  schedule.kills.push_back(kill);
  harness::ChaosSweeper sweeper(opt);
  return sweeper.runScenario(harness::AppKind::PageRank, schedule);
}

TEST(EndToEnd, PageRankRestoreTraceAttributesEveryPhase) {
  const harness::ScenarioOutcome out = runPageRankRestoreScenario();
  ASSERT_EQ(out.kind, harness::OutcomeKind::Ok) << out.detail;
  ASSERT_FALSE(out.spans.empty());

  // Export through the real writer and load back: the loader must
  // reproduce the span stream (modulo place -1 → tid 0 flattening).
  TraceLane lane;
  lane.pid = 1;
  lane.name = "pagerank shrink[it6@p1]";
  lane.spans = out.spans;
  const std::vector<LoadedLane> lanes =
      loadChromeTrace(JsonValue::parse(toChromeTraceJson({lane})));
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].spans.size(), out.spans.size());

  const LaneAnalysis analysis = analyzeLane(lanes[0]);
  const AttributionReport& attr = analysis.attribution;
  EXPECT_GT(attr.totalSeconds, 0.0);
  double catPct = 0.0, phasePct = 0.0;
  for (const auto& b : attr.byCategory) catPct += b.pct;
  for (const auto& b : attr.byPhase) phasePct += b.pct;
  EXPECT_NEAR(catPct, 100.0, 1e-6);
  EXPECT_NEAR(phasePct, 100.0, 1e-6);

  // The checkpoint/restore split must be consistent with the span
  // stream: the scenario checkpointed and restored, so both Table-IV
  // buckets are present with positive self time, and the restore
  // bucket's time is bounded by the restore spans' total duration.
  double restoreSpanSeconds = 0.0;
  bool sawCheckpoint = false;
  for (const Span& s : out.spans) {
    if (s.phase == "restore") restoreSpanSeconds += s.duration();
    sawCheckpoint = sawCheckpoint || s.phase == "checkpoint";
  }
  ASSERT_TRUE(sawCheckpoint);
  ASSERT_GT(restoreSpanSeconds, 0.0);
  auto phaseSeconds = [&](const std::string& key) {
    for (const auto& b : attr.byPhase)
      if (b.key == key) return b.selfSeconds;
    return -1.0;
  };
  EXPECT_GT(phaseSeconds("checkpoint"), 0.0);
  EXPECT_GT(phaseSeconds("restore"), 0.0);
  EXPECT_LE(phaseSeconds("restore"), restoreSpanSeconds + 1e-9);
  EXPECT_GT(phaseSeconds(kFinishPhase), 0.0);

  // Critical path: bounded by the makespan, entries causally ordered.
  const CriticalPath& path = analysis.criticalPath;
  ASSERT_FALSE(path.entries.empty());
  EXPECT_LE(path.lengthSeconds, path.makespanSeconds + 1e-9);
  for (std::size_t i = 1; i < path.entries.size(); ++i) {
    EXPECT_LE(path.entries[i - 1].endTime,
              path.entries[i].startTime + 1e-12);
  }

  // Full report: JSON export must parse back with our own parser.
  TraceReport report =
      buildReport({analysis}, &out.metrics, /*expectedMtbf=*/0.0);
  EXPECT_TRUE(report.hasMetrics);
  EXPECT_TRUE(report.amortization.mtbfObserved);
  EXPECT_GE(report.amortization.recommendedInterval, 1);
  std::ostringstream json;
  writeJsonReport(report, json);
  const JsonValue doc = JsonValue::parse(json.str());
  EXPECT_EQ(doc.at("trace_report").at("lanes").items().size(), 1u);
  std::ostringstream human;
  writeHumanReport(report, human);
  EXPECT_NE(human.str().find("Overall attribution"), std::string::npos);
  EXPECT_NE(human.str().find("critical path"), std::string::npos);
  EXPECT_NE(human.str().find("Checkpoint amortization"), std::string::npos);
}

}  // namespace
}  // namespace rgml::obs::analysis
