// Unit tests for the resilient store: Snapshot double in-memory storage,
// survival of single failures, loss on adjacent double failures, cost
// asymmetry of loads, and AppResilientStore atomicity.
#include <gtest/gtest.h>

#include "apgas/runtime.h"
#include "resilient/app_resilient_store.h"
#include "resilient/snapshot.h"
#include "resilient/snapshottable_scalars.h"

namespace rgml::resilient {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }

  static std::shared_ptr<VectorValue> value(double fill, long n = 8) {
    la::Vector v(n);
    v.setAll(fill);
    return std::make_shared<VectorValue>(std::move(v), 0);
  }
};

TEST_F(SnapshotTest, SaveAndLoadLocally) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(1), [&] { snap.save(1, value(3.0)); });
  apgas::at(Place(1), [&] {
    auto v = std::dynamic_pointer_cast<const VectorValue>(snap.load(1));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->data()[0], 3.0);
  });
}

TEST_F(SnapshotTest, SaveOutsideGroupRejected) {
  Snapshot snap(PlaceGroup({1, 2}));
  EXPECT_THROW(snap.save(0, value(1.0)), apgas::ApgasError);  // at place 0
}

TEST_F(SnapshotTest, LoadUnknownKeyRejected) {
  Snapshot snap(PlaceGroup::world());
  EXPECT_THROW(snap.load(5), apgas::ApgasError);
}

TEST_F(SnapshotTest, SurvivesPrimaryHolderDeath) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(2), [&] { snap.save(2, value(7.0)); });
  Runtime::world().kill(2);  // primary copy gone; backup is on place 3
  auto loc = snap.locate(2);
  EXPECT_EQ(loc.holder.id(), 3);
  auto v = std::dynamic_pointer_cast<const VectorValue>(snap.load(2));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->data()[0], 7.0);
}

TEST_F(SnapshotTest, SurvivesBackupHolderDeath) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(2), [&] { snap.save(2, value(7.0)); });
  Runtime::world().kill(3);  // backup holder dies; primary intact
  auto loc = snap.locate(2);
  EXPECT_EQ(loc.holder.id(), 2);
  EXPECT_TRUE(snap.contains(2));
}

TEST_F(SnapshotTest, AdjacentDoubleFailureLosesData) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(2), [&] { snap.save(2, value(7.0)); });
  Runtime::world().kill(2);
  Runtime::world().kill(3);  // both copies gone
  EXPECT_FALSE(snap.contains(2));
  EXPECT_THROW(snap.load(2), apgas::SnapshotLostException);
}

TEST_F(SnapshotTest, NonAdjacentDoubleFailureRecoverable) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(1), [&] { snap.save(1, value(5.0)); });
  Runtime::world().kill(1);
  Runtime::world().kill(3);  // 1's backup lives on 2, untouched
  EXPECT_TRUE(snap.contains(1));
  auto loc = snap.locate(1);
  EXPECT_EQ(loc.holder.id(), 2);
}

TEST_F(SnapshotTest, BackupWrapsAroundRing) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(3), [&] { snap.save(3, value(9.0)); });
  Runtime::world().kill(3);
  // Last member's backup is on the first member (ring order).
  EXPECT_EQ(snap.locate(3).holder.id(), 0);
}

TEST_F(SnapshotTest, SingleplaceGroupKeepsOnlyPrimary) {
  Snapshot snap(PlaceGroup({0}));
  snap.save(0, value(1.0));
  EXPECT_TRUE(snap.contains(0));
  EXPECT_EQ(snap.locate(0).holder.id(), 0);
}

TEST_F(SnapshotTest, LocalLoadCheaperThanRemote) {
  Runtime& rt = Runtime::world();
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(1), [&] { snap.save(1, value(1.0, 100000)); });
  double localCost = 0.0, remoteCost = 0.0;
  apgas::at(Place(1), [&] {
    const double t0 = rt.clock(1);
    static_cast<void>(snap.load(1));
    localCost = rt.clock(1) - t0;
  });
  apgas::at(Place(3), [&] {
    const double t0 = rt.clock(3);
    static_cast<void>(snap.load(1));
    remoteCost = rt.clock(3) - t0;
  });
  EXPECT_LT(localCost, remoteCost);
}

TEST_F(SnapshotTest, SaveCostUniformFromAnyPlace) {
  // Paper §IV-B1: saving costs local copy + remote backup from any place.
  Runtime& rt = Runtime::world();
  Snapshot snap(PlaceGroup::world());
  double cost1 = 0.0, cost3 = 0.0;
  apgas::at(Place(1), [&] {
    const double t0 = rt.clock(1);
    snap.save(1, value(2.0, 50000));
    cost1 = rt.clock(1) - t0;
  });
  apgas::at(Place(3), [&] {
    const double t0 = rt.clock(3);
    snap.save(3, value(2.0, 50000));
    cost3 = rt.clock(3) - t0;
  });
  EXPECT_NEAR(cost1, cost3, 1e-9);
}

TEST_F(SnapshotTest, KeysAndBytes) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(0), [&] { snap.save(0, value(1.0, 10)); });
  apgas::at(Place(1), [&] { snap.save(1, value(1.0, 10)); });
  EXPECT_EQ(snap.keys(), (std::vector<long>{0, 1}));
  EXPECT_EQ(snap.numEntries(), 2u);
  EXPECT_EQ(snap.totalBytes(), 160u);
}

TEST_F(SnapshotTest, OverwriteReplacesValue) {
  Snapshot snap(PlaceGroup::world());
  apgas::at(Place(0), [&] { snap.save(0, value(1.0)); });
  apgas::at(Place(0), [&] { snap.save(0, value(2.0)); });
  auto v = std::dynamic_pointer_cast<const VectorValue>(snap.load(0));
  EXPECT_EQ(v->data()[0], 2.0);
  EXPECT_EQ(snap.numEntries(), 1u);
}

// ---- AppResilientStore ------------------------------------------------------

class AppStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }
};

TEST_F(AppStoreTest, CommitPromotesSnapshot) {
  AppResilientStore store;
  SnapshottableScalars s(1, PlaceGroup::world());
  s[0] = 42.0;
  store.setIteration(10);
  store.startNewSnapshot();
  store.save(s);
  EXPECT_FALSE(store.hasCommitted());
  store.commit();
  EXPECT_TRUE(store.hasCommitted());
  EXPECT_EQ(store.latestCommittedIteration(), 10);
  EXPECT_EQ(store.committedObjectCount(), 1u);
}

TEST_F(AppStoreTest, RestoreRoundTrip) {
  AppResilientStore store;
  SnapshottableScalars s(2, PlaceGroup::world());
  s[0] = 1.5;
  s[1] = 2.5;
  store.setIteration(1);
  store.startNewSnapshot();
  store.save(s);
  store.commit();
  s[0] = 99.0;
  s[1] = 98.0;
  store.restore();
  EXPECT_EQ(s[0], 1.5);
  EXPECT_EQ(s[1], 2.5);
}

TEST_F(AppStoreTest, DoubleStartRejected) {
  AppResilientStore store;
  store.startNewSnapshot();
  EXPECT_THROW(store.startNewSnapshot(), apgas::ApgasError);
}

TEST_F(AppStoreTest, SaveWithoutStartRejected) {
  AppResilientStore store;
  SnapshottableScalars s(1, PlaceGroup::world());
  EXPECT_THROW(store.save(s), apgas::ApgasError);
  EXPECT_THROW(store.commit(), apgas::ApgasError);
}

TEST_F(AppStoreTest, CancelDiscardsInProgress) {
  AppResilientStore store;
  SnapshottableScalars s(1, PlaceGroup::world());
  s[0] = 7.0;
  store.setIteration(5);
  store.startNewSnapshot();
  store.save(s);
  store.commit();

  // Second snapshot cancelled mid-way: committed one must be intact.
  s[0] = 8.0;
  store.setIteration(10);
  store.startNewSnapshot();
  store.save(s);
  store.cancelSnapshot();
  EXPECT_EQ(store.latestCommittedIteration(), 5);
  s[0] = 0.0;
  store.restore();
  EXPECT_EQ(s[0], 7.0);
}

TEST_F(AppStoreTest, SaveReadOnlyReusesPreviousSnapshot) {
  Runtime& rt = Runtime::world();
  AppResilientStore store;
  SnapshottableScalars readOnly(1, PlaceGroup::world());
  SnapshottableScalars mutable1(1, PlaceGroup::world());

  store.setIteration(10);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.save(mutable1);
  store.commit();

  // Second checkpoint: the read-only object is not re-snapshotted, so the
  // second checkpoint costs (virtual time) less than a full save would.
  rt.resetStats();
  const double t0 = rt.time();
  store.setIteration(20);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.save(mutable1);
  store.commit();
  const double reuseCost = rt.time() - t0;

  AppResilientStore store2;
  store2.setIteration(20);
  const double t1 = rt.time();
  store2.startNewSnapshot();
  store2.save(readOnly);
  store2.save(mutable1);
  store2.commit();
  const double fullCost = rt.time() - t1;
  EXPECT_LT(reuseCost, fullCost);
}

TEST_F(AppStoreTest, RestoreWithoutCommitRejected) {
  AppResilientStore store;
  EXPECT_THROW(store.restore(), apgas::ApgasError);
}

TEST_F(AppStoreTest, CancelAfterSaveReadOnlyKeepsCommittedSnapshot) {
  // Regression for the saveReadOnly <-> cancelSnapshot interaction: the
  // cancelled in-progress snapshot holds a reference to the *same*
  // Snapshot object the committed snapshot reuses for read-only state.
  // Cancelling must drop only that reference — never the committed
  // snapshot's own entry, and never alias-corrupt it.
  AppResilientStore store;
  SnapshottableScalars readOnly(1, PlaceGroup::world());
  SnapshottableScalars mutable1(1, PlaceGroup::world());
  readOnly[0] = 3.14;
  mutable1[0] = 1.0;

  store.setIteration(10);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.save(mutable1);
  store.commit();

  // Second checkpoint reuses the read-only Snapshot, then dies mid-way.
  mutable1[0] = 2.0;
  store.setIteration(20);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.save(mutable1);
  store.cancelSnapshot();

  // The committed snapshot is fully intact, including the shared
  // read-only Snapshot, and restores both objects.
  EXPECT_EQ(store.latestCommittedIteration(), 10);
  EXPECT_EQ(store.committedObjectCount(), 2u);
  readOnly[0] = -1.0;
  mutable1[0] = -1.0;
  store.restore();
  EXPECT_EQ(readOnly[0], 3.14);
  EXPECT_EQ(mutable1[0], 1.0);

  // And a later checkpoint can still reuse the same read-only Snapshot.
  store.setIteration(30);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.save(mutable1);
  store.commit();
  EXPECT_EQ(store.latestCommittedIteration(), 30);
  readOnly[0] = -2.0;
  store.restore();
  EXPECT_EQ(readOnly[0], 3.14);
}

TEST_F(AppStoreTest, CancelledReuseChainSurvivesManyCheckpoints) {
  // The same Snapshot object flows through a commit / cancel / commit
  // chain; each cancel must leave every previously committed reference
  // valid (shared ownership, no use-after-free, no double release).
  AppResilientStore store;
  SnapshottableScalars readOnly(1, PlaceGroup::world());
  readOnly[0] = 7.0;
  for (long it = 1; it <= 5; ++it) {
    store.setIteration(it);
    store.startNewSnapshot();
    store.saveReadOnly(readOnly);
    if (it % 2 == 0) {
      store.cancelSnapshot();
    } else {
      store.commit();
    }
  }
  EXPECT_EQ(store.latestCommittedIteration(), 5);
  readOnly[0] = 0.0;
  store.restore();
  EXPECT_EQ(readOnly[0], 7.0);
}

TEST_F(AppStoreTest, FullModeDisablesReadOnlyReuse) {
  // CheckpointMode::Full is the ablation baseline: saveReadOnly saves
  // fresh every checkpoint, so the second checkpoint re-copies the bytes.
  AppResilientStore store;
  store.setMode(CheckpointMode::Full);
  SnapshottableScalars readOnly(4, PlaceGroup::world());

  store.setIteration(1);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.commit();
  const auto first = store.lastCheckpointStats();

  store.setIteration(2);
  store.startNewSnapshot();
  store.saveReadOnly(readOnly);
  store.commit();
  const auto second = store.lastCheckpointStats();

  EXPECT_GT(first.freshBytes, 0u);
  EXPECT_EQ(second.freshBytes, first.freshBytes);
  EXPECT_EQ(second.carriedBytes, 0u);

  // Whereas the default (delta) mode reuses the committed Snapshot.
  AppResilientStore delta;
  delta.setIteration(1);
  delta.startNewSnapshot();
  delta.saveReadOnly(readOnly);
  delta.commit();
  delta.setIteration(2);
  delta.startNewSnapshot();
  delta.saveReadOnly(readOnly);
  delta.commit();
  EXPECT_EQ(delta.lastCheckpointStats().freshBytes, 0u);
  EXPECT_GT(delta.lastCheckpointStats().carriedBytes, 0u);
}

}  // namespace
}  // namespace rgml::resilient
