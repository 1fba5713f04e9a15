// Focused tests for the duplicated matrix classes: replica consistency,
// one-replica snapshot economics, failure behaviour and remakes.
#include <gtest/gtest.h>

#include "apgas/runtime.h"
#include "gml/dup_dense_matrix.h"
#include "gml/dup_sparse_matrix.h"
#include "gml/dup_vector.h"
#include "la/rand.h"

namespace rgml::gml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class DupMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(6); }
};

TEST_F(DupMatrixTest, DenseSyncFromNonZeroRoot) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DupDenseMatrix::make(3, 3, pg);
  apgas::at(Place(2), [&] { a.local()(1, 1) = 7.0; });
  a.sync(/*rootIdx=*/2);
  apgas::ateach(pg, [&](Place) { EXPECT_EQ(a.local()(1, 1), 7.0); });
}

TEST_F(DupMatrixTest, DenseSyncThrowsOnDeadMember) {
  auto a = DupDenseMatrix::make(3, 3, PlaceGroup::firstPlaces(4));
  Runtime::world().kill(3);
  EXPECT_THROW(a.sync(), apgas::DeadPlaceException);
}

TEST_F(DupMatrixTest, DenseRemakeReallocatesZeroed) {
  auto a = DupDenseMatrix::make(2, 2, PlaceGroup::firstPlaces(4));
  a.initRandom(3);
  a.remake(PlaceGroup({0, 2, 4}));
  EXPECT_EQ(a.placeGroup().size(), 3u);
  apgas::at(Place(4), [&] { EXPECT_EQ(a.local()(0, 0), 0.0); });
  // Old member outside the new group no longer holds a replica.
  apgas::at(Place(1), [&] {
    EXPECT_THROW(static_cast<void>(a.local()), apgas::ApgasError);
  });
}

TEST_F(DupMatrixTest, SnapshotCostIndependentOfReplicaCount) {
  // Replicas are identical, so one copy suffices: checkpointing a
  // duplicated matrix over 5 places costs the same as over 2.
  Runtime& rt = Runtime::world();
  auto measure = [&](std::size_t groupSize) {
    auto a = DupDenseMatrix::make(64, 64, PlaceGroup::firstPlaces(groupSize));
    a.initRandom(4);
    const double t0 = rt.time();
    auto snap = a.makeSnapshot();
    return rt.time() - t0;
  };
  const double two = measure(2);
  const double five = measure(5);
  EXPECT_NEAR(two, five, two * 0.2);
}

TEST_F(DupMatrixTest, DenseSnapshotSurvivesRootDeathViaBackup) {
  // The single saved copy lives on the first member with a backup on the
  // second: killing the first member must not lose the snapshot.
  auto pg = PlaceGroup({1, 2, 3});
  auto a = DupDenseMatrix::make(2, 2, pg);
  a.initRandom(5);
  la::DenseMatrix before;
  apgas::at(Place(1), [&] { before = a.local(); });
  auto snap = a.makeSnapshot();
  Runtime::world().kill(1);  // primary holder of the single copy
  auto live = pg.filterDead();
  a.remake(live);
  a.restoreSnapshot(*snap);
  apgas::ateach(live, [&](Place) { EXPECT_EQ(a.local(), before); });
}

TEST_F(DupMatrixTest, SparseReplicasShareStructure) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DupSparseMatrix::make(12, 12, pg);
  a.initRandom(3, 6);
  long nnz = -1;
  apgas::ateach(pg, [&](Place) {
    if (nnz < 0) {
      nnz = a.local().nnz();
    } else {
      EXPECT_EQ(a.local().nnz(), nnz);
    }
  });
  EXPECT_EQ(nnz, 36);
}

TEST_F(DupMatrixTest, SparseRemakeAndRestoreOnLargerGroup) {
  auto pg = PlaceGroup::firstPlaces(3);
  auto a = DupSparseMatrix::make(8, 8, pg);
  a.initRandom(2, 7);
  la::SparseCSR before;
  apgas::at(Place(0), [&] { before = a.local(); });
  auto snap = a.makeSnapshot();
  a.remake(PlaceGroup::firstPlaces(6));  // elastic growth
  a.restoreSnapshot(*snap);
  apgas::ateach(PlaceGroup::firstPlaces(6),
                [&](Place) { EXPECT_EQ(a.local(), before); });
}

TEST_F(DupMatrixTest, TreeSyncDeliversSameDataCheaperAtScale) {
  Runtime& rt = Runtime::world();
  auto pg = PlaceGroup::world();
  auto v = DupVector::make(50000, pg);
  apgas::at(Place(0), [&] { v.local()[7] = 3.5; });

  const double f0 = rt.time();
  v.sync();
  const double flatCost = rt.time() - f0;
  apgas::at(Place(5), [&] { EXPECT_EQ(v.local()[7], 3.5); });

  apgas::at(Place(0), [&] { v.local()[7] = 4.5; });
  v.setSyncAlgorithm(DupVector::SyncAlgorithm::Tree);
  const double t0 = rt.time();
  v.sync();
  const double treeCost = rt.time() - t0;
  apgas::at(Place(5), [&] { EXPECT_EQ(v.local()[7], 4.5); });

  // 6 places: flat pays 5 transfers at the root, the tree pays 3 rounds.
  EXPECT_LT(treeCost, flatCost);
}

}  // namespace
}  // namespace rgml::gml
