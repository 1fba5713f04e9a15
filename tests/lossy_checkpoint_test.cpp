// Integration tests for lossy/compressed checkpointing: store-level
// checkpoint/restore within the error bound, wire-byte accounting
// (fresh + carried == committed for every mode), delta carry-forward of
// encoded payloads, kill-during-commit and kill-during-restore fallbacks,
// and the executor-level path — including the regression where the
// post-restore store reset used to drop a non-default checkpoint mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "apgas/fault_injector.h"
#include "apgas/runtime.h"
#include "framework/resilient_executor.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "harness/golden.h"
#include "obs/trace_sink.h"
#include "resilient/app_resilient_store.h"

namespace rgml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using gml::DistBlockMatrix;
using resilient::AppResilientStore;
using resilient::CheckpointMode;
using resilient::LossyConfig;

class LossyCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(6); }

  static DistBlockMatrix makeMatrix() {
    auto m = DistBlockMatrix::makeDense(8, 8, 2, 2, 2, 2,
                                        PlaceGroup::firstPlaces(4));
    m.initRandom(7);
    return m;
  }

  static void checkpoint(AppResilientStore& store, DistBlockMatrix& m,
                         long iter) {
    store.setIteration(iter);
    store.startNewSnapshot();
    store.save(m);
    store.commit();
  }

  static void touchOneBlock(DistBlockMatrix& m) {
    apgas::at(Place(0), [&] {
      la::MatrixBlock* block = m.localBlockSet().find(0, 0);
      ASSERT_NE(block, nullptr);
      block->dense()(0, 0) += 1.0;
    });
  }

  static void expectNear(const la::DenseMatrix& got,
                         const la::DenseMatrix& want, double bound) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    const auto g = got.span();
    const auto w = want.span();
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_LE(std::abs(g[i] - w[i]), bound) << "element " << i;
    }
  }
};

TEST_F(LossyCheckpointTest, RestoreStaysWithinTheErrorBound) {
  const double eb = 1e-6;
  DistBlockMatrix m = makeMatrix();
  AppResilientStore store;
  store.setMode(CheckpointMode::Lossy);
  store.setLossyConfig(LossyConfig{eb});

  const la::DenseMatrix expected = m.toDense();
  checkpoint(store, m, 1);
  m.scale(-3.0);
  store.restore();
  expectNear(m.toDense(), expected, eb);
}

TEST_F(LossyCheckpointTest, LosslessCompressionModeRestoresExactly) {
  DistBlockMatrix m = makeMatrix();
  AppResilientStore store;
  store.setMode(CheckpointMode::Lossy);
  store.setLossyConfig(LossyConfig{0.0});  // compression only

  const la::DenseMatrix expected = m.toDense();
  checkpoint(store, m, 1);
  m.scale(0.0);
  store.restore();
  EXPECT_EQ(m.toDense(), expected);
}

TEST_F(LossyCheckpointTest, FreshPlusCarriedEqualsCommittedInEveryMode) {
  // Wire-byte accounting invariant: whatever the mode encodes or carries,
  // the per-checkpoint fresh/carried split must add up to the committed
  // snapshot's stored (wire) bytes — encoded sizes for the lossy modes,
  // raw sizes otherwise.
  for (const CheckpointMode mode :
       {CheckpointMode::Full, CheckpointMode::ReadOnlyReuse,
        CheckpointMode::Delta, CheckpointMode::Lossy,
        CheckpointMode::DeltaLossy}) {
    SCOPED_TRACE(resilient::toString(mode));
    Runtime::init(6);
    DistBlockMatrix m = makeMatrix();
    AppResilientStore store;
    store.setMode(mode);
    store.setLossyConfig(LossyConfig{1e-6});

    checkpoint(store, m, 1);
    const auto first = store.lastCheckpointStats();
    EXPECT_EQ(first.freshBytes + first.carriedBytes,
              store.committedBytes());
    EXPECT_EQ(first.carriedBytes, 0u);

    touchOneBlock(m);
    checkpoint(store, m, 2);
    const auto second = store.lastCheckpointStats();
    EXPECT_EQ(second.freshBytes + second.carriedBytes,
              store.committedBytes());
    if (resilient::usesDelta(mode)) {
      EXPECT_EQ(second.freshEntries, 1u);
      EXPECT_EQ(second.carriedEntries, 3u);
      EXPECT_GT(second.carriedBytes, 0u);
    } else {
      EXPECT_EQ(second.freshEntries, 4u);
      EXPECT_EQ(second.carriedEntries, 0u);
    }
  }
}

TEST_F(LossyCheckpointTest, EncodedBytesAreTheWireBytesAndShrinkVolume) {
  obs::TraceSink sink;
  obs::SinkScope scope(&sink);

  DistBlockMatrix m = makeMatrix();
  AppResilientStore store;
  store.setMode(CheckpointMode::DeltaLossy);
  store.setLossyConfig(LossyConfig{1e-6});
  checkpoint(store, m, 1);

  const auto stats = store.lastCheckpointStats();
  const std::uint64_t raw = sink.metrics().counter("snapshot.raw_bytes");
  const std::uint64_t encoded =
      sink.metrics().counter("snapshot.encoded_bytes");
  ASSERT_GT(encoded, 0u);
  EXPECT_LT(encoded, raw) << "codec did not shrink smooth dense state";
  // Every stored byte this checkpoint was a fresh encoded byte, so the
  // store's accounting must agree with the codec's own counter.
  EXPECT_EQ(stats.freshBytes, encoded);
  EXPECT_EQ(stats.freshBytes + stats.carriedBytes, store.committedBytes());

  const auto hist = sink.metrics().histograms().find("snapshot.codec_seconds");
  ASSERT_NE(hist, sink.metrics().histograms().end());
  EXPECT_GT(hist->second.count(), 0);
}

TEST_F(LossyCheckpointTest, DeltaLossyCarriesEncodedCleanBlocks) {
  DistBlockMatrix m = makeMatrix();
  AppResilientStore store;
  store.setMode(CheckpointMode::DeltaLossy);
  store.setLossyConfig(LossyConfig{1e-6});

  checkpoint(store, m, 1);
  const auto first = store.lastCheckpointStats();
  checkpoint(store, m, 2);
  const auto second = store.lastCheckpointStats();
  EXPECT_EQ(second.freshEntries, 0u);
  EXPECT_EQ(second.carriedEntries, 4u);
  EXPECT_EQ(second.freshBytes, 0u);
  // Carried entries keep the encoded payload: the carried volume is the
  // first checkpoint's encoded (wire) bytes, not the raw block bytes.
  EXPECT_EQ(second.carriedBytes, first.freshBytes);
}

TEST_F(LossyCheckpointTest, KillBetweenSaveAndCommitFallsBackToLossyMix) {
  const double eb = 1e-9;
  DistBlockMatrix m = makeMatrix();
  AppResilientStore store;
  store.setMode(CheckpointMode::DeltaLossy);
  store.setLossyConfig(LossyConfig{eb});

  checkpoint(store, m, 1);
  touchOneBlock(m);
  const la::DenseMatrix committed = m.toDense();
  checkpoint(store, m, 2);  // committed fresh/carried encoded mix

  // Checkpoint 3 dies between save() and commit(); the half-promoted
  // encoded mix is cancelled and the committed one restores (place 2's
  // entries through their surviving replicas).
  touchOneBlock(m);
  store.setIteration(3);
  store.startNewSnapshot();
  store.save(m);
  Runtime::world().kill(2);
  store.cancelSnapshot();

  EXPECT_EQ(store.latestCommittedIteration(), 2);
  m.remakeSameDist(PlaceGroup({0, 1, 4, 3}));
  store.restore();
  expectNear(m.toDense(), committed, eb);
}

TEST_F(LossyCheckpointTest, CarriedEncodedEntrySurvivesPrimaryHolderDeath) {
  const double eb = 1e-9;
  DistBlockMatrix m = makeMatrix();
  AppResilientStore store;
  store.setMode(CheckpointMode::DeltaLossy);
  store.setLossyConfig(LossyConfig{eb});
  checkpoint(store, m, 1);
  checkpoint(store, m, 2);  // all four entries carried, still encoded

  const la::DenseMatrix expected = m.toDense();
  Runtime::world().kill(1);
  m.remakeSameDist(PlaceGroup({0, 4, 2, 3}));
  store.restore();  // decodes the replica copies of the encoded payloads
  expectNear(m.toDense(), expected, eb);
}

// ---- executor level -------------------------------------------------------

TEST(LossyExecutorTest, MidCheckpointKillConvergesWithinTolerance) {
  // The delta-executor fallback scenario, run through the codec: kill a
  // place inside the second (delta) checkpoint's save, roll back to the
  // previous committed *encoded* checkpoint, and still land within the
  // lossy tolerance of the failure-free result. Also the regression
  // guard for the post-restore store reset: every store.save span —
  // including the checkpoint taken right after the restore — must carry
  // the codec annotation, or the reset silently dropped the mode.
  harness::ChaosAppConfig cfg;
  cfg.iterations = 9;

  Runtime::init(5, apgas::CostModel{}, /*resilientFinish=*/true);
  const harness::GoldenRun golden = harness::runGolden(
      harness::AppKind::PageRank, cfg, 4, 3, harness::makeChaosApp);

  Runtime::init(5, apgas::CostModel{}, /*resilientFinish=*/true);
  auto chaos = harness::makeChaosApp(harness::AppKind::PageRank, cfg,
                                     PlaceGroup::firstPlaces(4));
  chaos->init();

  apgas::FaultInjector injector;
  framework::ExecutorConfig ec;
  ec.places = PlaceGroup::firstPlaces(4);
  ec.spares = {4};
  ec.checkpointInterval = 3;
  ec.mode = framework::RestoreMode::ReplaceRedundant;
  ec.checkpointMode = resilient::CheckpointMode::DeltaLossy;
  ec.lossy.errorBound = 1e-9;
  ec.iterationHook = [&](long iteration) {
    if (iteration == 6) injector.killAtDispatch(1, 2);
  };

  obs::TraceSink sink;
  framework::RunStats stats;
  {
    obs::SinkScope scope(&sink);
    framework::ResilientExecutor executor(ec);
    stats = executor.run(chaos->app(), &injector);
  }

  EXPECT_EQ(stats.failuresHandled, 1);
  EXPECT_EQ(stats.iterationsCompleted, 9);
  const std::string diff =
      harness::compareDigests(golden.result, chaos->digest(), 1e-6);
  EXPECT_EQ(diff, "");

  double restoreEnd = -1.0;
  for (const obs::Span& s : sink.spans()) {
    if (s.name == "store.restore") restoreEnd = s.endTime;
  }
  ASSERT_GE(restoreEnd, 0.0) << "no restore span recorded";
  bool sawPostRestoreSave = false;
  for (const obs::Span& s : sink.spans()) {
    if (s.name != "store.save") continue;
    bool codec = false;
    for (const auto& [key, value] : s.args) {
      codec = codec || (key == "codec" && value == "lossy");
    }
    EXPECT_TRUE(codec) << "store.save at t=" << s.startTime
                       << " lost the codec (mode dropped by a reset?)";
    sawPostRestoreSave =
        sawPostRestoreSave || s.startTime >= restoreEnd;
  }
  EXPECT_TRUE(sawPostRestoreSave)
      << "expected a post-restore checkpoint save";
}

// On the Threads backend each place's part of a collective save runs on
// that place's own worker thread, where the store's CodecScope is not
// open. The Snapshot captures the codec when it is constructed, so every
// place encodes — the fresh and encoded byte counts equal the simulated
// backend's, where all places share one thread.
TEST(LossyBackendTest, EveryPlaceEncodesOnBothBackends) {
  struct Bytes {
    std::uint64_t fresh = 0, raw = 0, encoded = 0;
    bool operator==(const Bytes&) const = default;
  };
  const auto run = [](apgas::Backend backend, CheckpointMode mode) {
    apgas::RuntimeConfig cfg;
    cfg.numPlaces = 3;
    cfg.resilientFinish = true;
    cfg.backend = backend;
    Runtime::init(cfg);
    obs::TraceSink sink;
    obs::SinkScope scope(&sink);
    const PlaceGroup pg = PlaceGroup::firstPlaces(3);
    gml::DistVector v = gml::DistVector::make(30000, pg);
    v.init([](long i) { return std::sin(1e-3 * static_cast<double>(i)); });
    DistBlockMatrix m = DistBlockMatrix::makeDense(60, 60, 3, 1, 3, 1, pg);
    m.initRandom(5);
    AppResilientStore store;
    store.setMode(mode);
    store.setLossyConfig(LossyConfig{1e-3});
    Bytes out;
    for (long iter = 1; iter <= 2; ++iter) {
      store.setIteration(iter);
      store.startNewSnapshot();
      store.save(v);
      store.save(m);
      store.commit();
      out.fresh += store.lastCheckpointStats().freshBytes;
      v.scale(0.5);
      m.scale(2.0);
    }
    out.raw = sink.metrics().counter("snapshot.raw_bytes");
    out.encoded = sink.metrics().counter("snapshot.encoded_bytes");
    return out;
  };
  for (const CheckpointMode mode :
       {CheckpointMode::Lossy, CheckpointMode::DeltaLossy}) {
    SCOPED_TRACE(resilient::toString(mode));
    const Bytes simulated = run(apgas::Backend::Simulated, mode);
    const Bytes threads = run(apgas::Backend::Threads, mode);
    EXPECT_EQ(threads, simulated);
    EXPECT_EQ(threads.encoded, threads.fresh);
    EXPECT_LT(threads.encoded, threads.raw);
  }
}

}  // namespace
}  // namespace rgml
