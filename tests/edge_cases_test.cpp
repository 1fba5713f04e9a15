// Edge-case and error-path coverage across modules: empty/degenerate
// shapes, misuse of runtime primitives, failure timing corners, and the
// runtime statistics counters.
#include <gtest/gtest.h>

#include "apgas/global_ref.h"
#include "apgas/place_local_handle.h"
#include "apgas/runtime.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "la/rand.h"
#include "resilient/snapshot.h"

namespace rgml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class EdgeCasesTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }
};

// ---- runtime misuse ---------------------------------------------------------

TEST_F(EdgeCasesTest, AtNonexistentPlaceThrows) {
  EXPECT_THROW(apgas::at(Place(99), [] {}), apgas::ApgasError);
  EXPECT_THROW(apgas::finish([&] { apgas::asyncAt(Place(-1), [] {}); }),
               apgas::ApgasError);
}

TEST_F(EdgeCasesTest, KillOutOfRangeThrows) {
  EXPECT_THROW(Runtime::world().kill(99), apgas::ApgasError);
}

TEST_F(EdgeCasesTest, EmptyFinishIsCheapAndLegal) {
  Runtime& rt = Runtime::world();
  const double t0 = rt.time();
  apgas::finish([] {});
  EXPECT_LT(rt.time() - t0, 1e-3);
}

TEST_F(EdgeCasesTest, AteachOverSingletonGroup) {
  int count = 0;
  apgas::ateach(PlaceGroup({2}), [&](Place p) {
    EXPECT_EQ(p.id(), 2);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST_F(EdgeCasesTest, NonDeadExceptionPropagatesThroughFinish) {
  EXPECT_THROW(apgas::finish([&] {
                 apgas::asyncAt(Place(1),
                                [] { throw std::runtime_error("app bug"); });
               }),
               std::runtime_error);
}

TEST_F(EdgeCasesTest, GlobalRefForgetReleasesObject) {
  auto obj = std::make_shared<int>(5);
  std::weak_ptr<int> weak = obj;
  apgas::GlobalRef<int> ref(std::move(obj));
  EXPECT_FALSE(weak.expired());
  ref.forget();
  EXPECT_TRUE(weak.expired());
}

TEST_F(EdgeCasesTest, RuntimeStatsCountDataTraffic) {
  Runtime& rt = Runtime::world();
  rt.resetStats();
  rt.chargeComm(Place(1), 1234);
  rt.chargeComm(Place(2), 766);
  rt.chargeComm(Place(0), 100);  // self: local copy, not a message
  EXPECT_EQ(rt.stats().dataMsgs, 2);
  EXPECT_EQ(rt.stats().bytesSent, 2000u);
}

// ---- degenerate shapes ------------------------------------------------------

TEST_F(EdgeCasesTest, OneElementPerPlaceDistVector) {
  auto v = gml::DistVector::make(4, PlaceGroup::world());
  v.init([](long i) { return static_cast<double>(i + 1); });
  EXPECT_EQ(v.segSize(3), 1);
  EXPECT_DOUBLE_EQ(v.sum(), 10.0);
  EXPECT_DOUBLE_EQ(v.max(), 4.0);
  EXPECT_DOUBLE_EQ(v.min(), 1.0);
}

TEST_F(EdgeCasesTest, SingleBlockMatrixOnOnePlace) {
  Runtime::init(1);
  auto pg = PlaceGroup::world();
  auto a = gml::DistBlockMatrix::makeDense(5, 3, 1, 1, 1, 1, pg);
  a.init([](long i, long j) { return i * 3.0 + j; });
  auto x = gml::DupVector::make(3, pg);
  x.init(1.0);
  auto y = gml::DistVector::make(5, pg);
  y.mult(a, x);
  EXPECT_DOUBLE_EQ(y.at(0), 0.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(y.at(4), 12.0 + 13.0 + 14.0);
}

TEST_F(EdgeCasesTest, SnapshotOfSinglePlaceWorldHasNoBackup) {
  Runtime::init(1);
  auto v = gml::DistVector::make(5, PlaceGroup::world());
  v.init(2.0);
  auto snap = v.makeSnapshot();
  EXPECT_EQ(snap->numEntries(), 1u);
  // Only a primary copy exists (no second place); still restorable.
  v.init(0.0);
  v.restoreSnapshot(*snap);
  EXPECT_EQ(v.at(3), 2.0);
}

TEST_F(EdgeCasesTest, MatrixWithMorePlacesThanRowsRejected) {
  EXPECT_THROW(gml::DistBlockMatrix::makeDense(2, 2, 4, 1, 4, 1,
                                               PlaceGroup::world()),
               std::invalid_argument);
}

// ---- failure-timing corners -------------------------------------------------

TEST_F(EdgeCasesTest, KillBetweenSnapshotAndRestoreOfScratch) {
  // A place dies after the snapshot but before any remake: the object's
  // live storage on that place is gone, yet the snapshot restores onto
  // the shrunken group without touching the dead heap.
  auto pg = PlaceGroup::world();
  auto v = gml::DistVector::make(16, pg);
  v.initRandom(9);
  la::Vector before(16);
  v.copyTo(before);
  auto snap = v.makeSnapshot();

  Runtime::world().kill(1);
  EXPECT_THROW(static_cast<void>(v.sum()),
               apgas::DeadPlaceException);  // live object broken

  v.remake(pg.filterDead());
  v.restoreSnapshot(*snap);
  la::Vector after(16);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

TEST_F(EdgeCasesTest, DoubleRemakeWithoutRestoreIsClean) {
  auto pg = PlaceGroup::world();
  auto v = gml::DistVector::make(12, pg);
  v.init(1.0);
  v.remake(PlaceGroup::firstPlaces(3));
  v.remake(PlaceGroup::firstPlaces(2));
  EXPECT_EQ(v.placeGroup().size(), 2u);
  EXPECT_DOUBLE_EQ(v.sum(), 0.0);  // contents zeroed by each remake
}

TEST_F(EdgeCasesTest, SnapshotEntriesInvalidatedExactlyOnce) {
  resilient::Snapshot snap(PlaceGroup::world());
  apgas::at(Place(1), [&] {
    la::Vector v(4);
    v.setAll(1.0);
    snap.save(1, std::make_shared<resilient::VectorValue>(std::move(v), 0));
  });
  Runtime::world().kill(1);
  Runtime::world().kill(1);  // idempotent
  EXPECT_TRUE(snap.contains(1));  // backup on place 2 survives
  EXPECT_EQ(snap.locate(1).holder.id(), 2);
}

TEST_F(EdgeCasesTest, ElasticPlacesJoinSnapshotGroups) {
  // A snapshot taken over {0,1,2,3} restored onto a group containing an
  // elastically created place.
  auto pg = PlaceGroup::world();
  auto v = gml::DupVector::make(6, pg);
  v.initRandom(10);
  la::Vector before;
  apgas::at(Place(0), [&] { before = v.local(); });
  auto snap = v.makeSnapshot();

  const auto fresh = Runtime::world().addPlaces(1);
  Runtime::world().kill(2);
  auto replaced = pg.replaceDead(fresh);
  v.remake(replaced);
  v.restoreSnapshot(*snap);
  apgas::at(Place(fresh[0]), [&] { EXPECT_EQ(v.local(), before); });
}

}  // namespace
}  // namespace rgml
