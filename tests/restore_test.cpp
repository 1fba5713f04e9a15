// End-to-end snapshot/restore tests for the GML classes (paper §IV-B):
// block-by-block vs repartitioned restore, all restoration modes, restores
// after real place failures (data genuinely destroyed), and sparse
// non-zero handling.
#include <gtest/gtest.h>

#include "apgas/runtime.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_dense_matrix.h"
#include "gml/dist_sparse_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_dense_matrix.h"
#include "gml/dup_sparse_matrix.h"
#include "gml/dup_vector.h"
#include "la/rand.h"

namespace rgml::gml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class RestoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(6); }  // 4 workers + 2 spares
};

// ---- DupVector --------------------------------------------------------------

TEST_F(RestoreTest, DupVectorRestoreSameGroup) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto v = DupVector::make(10, pg);
  v.initRandom(1);
  la::Vector before;
  apgas::at(Place(0), [&] { before = v.local(); });

  auto snap = v.makeSnapshot();
  v.init(0.0);  // clobber
  v.restoreSnapshot(*snap);
  apgas::ateach(pg, [&](Place) { EXPECT_EQ(v.local(), before); });
}

TEST_F(RestoreTest, DupVectorRestoreAfterFailureOnShrunkGroup) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto v = DupVector::make(10, pg);
  v.initRandom(2);
  la::Vector before;
  apgas::at(Place(0), [&] { before = v.local(); });

  auto snap = v.makeSnapshot();
  Runtime::world().kill(2);  // destroys place 2's replica AND its snapshot
                             // primary; backup on place 3 survives
  auto live = pg.filterDead();
  v.remake(live);
  v.restoreSnapshot(*snap);
  apgas::ateach(live, [&](Place) { EXPECT_EQ(v.local(), before); });
}

TEST_F(RestoreTest, DupVectorRestoreOnLargerGroupElastic) {
  auto pg = PlaceGroup::firstPlaces(3);
  auto v = DupVector::make(8, pg);
  v.initRandom(3);
  la::Vector before;
  apgas::at(Place(0), [&] { before = v.local(); });
  auto snap = v.makeSnapshot();

  auto larger = PlaceGroup::firstPlaces(5);  // elastic growth
  v.remake(larger);
  v.restoreSnapshot(*snap);
  apgas::ateach(larger, [&](Place) { EXPECT_EQ(v.local(), before); });
}

// ---- DistVector -------------------------------------------------------------

TEST_F(RestoreTest, DistVectorRestoreSamePartition) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto v = DistVector::make(13, pg);
  v.initRandom(4);
  la::Vector before(13);
  v.copyTo(before);

  auto snap = v.makeSnapshot();
  v.init(0.0);
  v.restoreSnapshot(*snap);
  la::Vector after(13);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

TEST_F(RestoreTest, DistVectorRestoreRepartitionedAfterFailure) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto v = DistVector::make(13, pg);
  v.initRandom(5);
  la::Vector before(13);
  v.copyTo(before);

  auto snap = v.makeSnapshot();
  Runtime::world().kill(1);
  auto live = pg.filterDead();
  v.remake(live);  // new segmentation: 13 over 3 places
  v.restoreSnapshot(*snap);
  la::Vector after(13);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

TEST_F(RestoreTest, DistVectorRestoreOntoMorePlaces) {
  auto pg = PlaceGroup::firstPlaces(3);
  auto v = DistVector::make(17, pg);
  v.initRandom(6);
  la::Vector before(17);
  v.copyTo(before);
  auto snap = v.makeSnapshot();

  v.remake(PlaceGroup::firstPlaces(5));
  v.restoreSnapshot(*snap);
  la::Vector after(17);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

TEST_F(RestoreTest, DistVectorAdjacentDoubleFailureLosesData) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto v = DistVector::make(12, pg);
  v.initRandom(7);
  auto snap = v.makeSnapshot();
  Runtime::world().kill(1);
  Runtime::world().kill(2);  // adjacent: seg 1's primary AND backup gone
  v.remake(pg.filterDead());
  // Several restoring tasks hit the lost value; the finish aggregates
  // their SnapshotLostExceptions.
  try {
    v.restoreSnapshot(*snap);
    FAIL() << "restore should have reported lost data";
  } catch (const apgas::SnapshotLostException&) {
    // single task hit the loss
  } catch (const apgas::MultipleExceptions& me) {
    EXPECT_TRUE(me.containsSnapshotLoss());
  }
}

// ---- DistBlockMatrix: block-by-block paths ----------------------------------

TEST_F(RestoreTest, BlockByBlockRestoreSameDistribution) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeDense(16, 6, 8, 1, 4, 1, pg);
  a.initRandom(8);
  la::DenseMatrix before = a.toDense();

  auto snap = a.makeSnapshot();
  a.initRandom(99);  // clobber
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);
}

TEST_F(RestoreTest, ReplaceRedundantRestoreAfterFailure) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeDense(16, 6, 8, 1, 4, 1, pg);
  a.initRandom(9);
  la::DenseMatrix before = a.toDense();

  auto snap = a.makeSnapshot();
  Runtime::world().kill(2);
  auto replaced = pg.replaceDead({4, 5});  // spare 4 stands in
  a.remakeSameDist(replaced);
  a.restoreSnapshot(*snap);  // same grid -> block-by-block
  EXPECT_EQ(a.toDense(), before);
}

TEST_F(RestoreTest, ShrinkRestoreAfterFailure) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeDense(16, 6, 8, 1, 4, 1, pg);
  a.initRandom(10);
  la::DenseMatrix before = a.toDense();

  auto snap = a.makeSnapshot();
  Runtime::world().kill(2);
  a.remakeShrink(pg.filterDead());
  a.restoreSnapshot(*snap);  // same grid, remapped blocks
  EXPECT_EQ(a.toDense(), before);
  EXPECT_GT(a.loadImbalance(), 1.0);  // shrink trades balance for speed
}

// ---- DistBlockMatrix: repartitioned path ------------------------------------

TEST_F(RestoreTest, RebalanceRestoreAfterFailureDense) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeDense(16, 6, 8, 1, 4, 1, pg);
  a.initRandom(11);
  la::DenseMatrix before = a.toDense();

  auto snap = a.makeSnapshot();
  Runtime::world().kill(1);
  a.remakeRebalance(pg.filterDead());  // new grid: 6 blocks over 3 places
  a.restoreSnapshot(*snap);            // overlapping-region path
  EXPECT_EQ(a.toDense(), before);
  EXPECT_NEAR(a.loadImbalance(), 1.0, 0.25);
}

TEST_F(RestoreTest, RebalanceRestoreAfterFailureSparse) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeSparse(24, 24, 8, 1, 4, 1, 3, pg);
  auto global = la::makeUniformSparse(24, 24, 3, 12);
  a.initFromCSR(global);

  auto snap = a.makeSnapshot();
  Runtime::world().kill(3);
  a.remakeRebalance(pg.filterDead());
  a.restoreSnapshot(*snap);
  // Every entry, including the non-zero structure, must survive the
  // repartitioned restore (nnz pre-count + sub-block paste).
  for (long i = 0; i < 24; ++i) {
    for (long j = 0; j < 24; ++j) {
      EXPECT_EQ(a.at(i, j), global.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST_F(RestoreTest, RebalanceRestoreWith2DGrid) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeDense(18, 10, 4, 2, 2, 2, pg);
  a.initRandom(13);
  la::DenseMatrix before = a.toDense();

  auto snap = a.makeSnapshot();
  Runtime::world().kill(2);
  a.remakeRebalance(pg.filterDead());
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);
}

TEST_F(RestoreTest, RestoreOntoMorePlacesElastic) {
  auto pg = PlaceGroup::firstPlaces(3);
  auto a = DistBlockMatrix::makeDense(24, 5, 6, 1, 3, 1, pg);
  a.initRandom(14);
  la::DenseMatrix before = a.toDense();
  auto snap = a.makeSnapshot();

  a.remakeRebalance(PlaceGroup::firstPlaces(6));
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);
}

TEST_F(RestoreTest, SnapshotIsDeepCopy) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistBlockMatrix::makeDense(8, 4, 4, 1, 4, 1, pg);
  a.initRandom(15);
  la::DenseMatrix before = a.toDense();
  auto snap = a.makeSnapshot();
  a.initRandom(77);  // mutate after checkpoint
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);  // restore gives checkpoint state
}

// ---- wrappers ----------------------------------------------------------------

TEST_F(RestoreTest, DistDenseMatrixRestoreAfterRepartition) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistDenseMatrix::make(12, 5, pg);
  a.initRandom(16);
  la::DenseMatrix before = a.toDense();
  auto snap = a.makeSnapshot();
  Runtime::world().kill(1);
  a.remake(pg.filterDead());  // one-block-per-place: always repartitions
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);
}

TEST_F(RestoreTest, DistSparseMatrixRestoreAfterRepartition) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DistSparseMatrix::make(20, 20, 2, pg);
  auto global = la::makeUniformSparse(20, 20, 2, 17);
  a.initFromCSR(global);
  auto snap = a.makeSnapshot();
  Runtime::world().kill(2);
  a.remake(pg.filterDead());
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.nnz(), global.nnz());
  for (long i = 0; i < 20; ++i) {
    for (long j = 0; j < 20; ++j) EXPECT_EQ(a.at(i, j), global.at(i, j));
  }
}

TEST_F(RestoreTest, DupDenseMatrixRestoreAfterFailure) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DupDenseMatrix::make(5, 4, pg);
  a.initRandom(18);
  la::DenseMatrix before;
  apgas::at(Place(0), [&] { before = a.local(); });
  auto snap = a.makeSnapshot();
  Runtime::world().kill(3);
  auto live = pg.filterDead();
  a.remake(live);
  a.restoreSnapshot(*snap);
  apgas::ateach(live, [&](Place) { EXPECT_EQ(a.local(), before); });
}

TEST_F(RestoreTest, DupSparseMatrixRestoreAfterFailure) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = DupSparseMatrix::make(10, 10, pg);
  a.initRandom(3, 19);
  la::SparseCSR before;
  apgas::at(Place(0), [&] { before = a.local(); });
  auto snap = a.makeSnapshot();
  Runtime::world().kill(1);
  auto live = pg.filterDead();
  a.remake(live);
  a.restoreSnapshot(*snap);
  apgas::ateach(live, [&](Place) { EXPECT_EQ(a.local(), before); });
}

// Parameterised property: dense DistBlockMatrix restore is exact for every
// (old places, new places, mode) combination.
struct RestoreCase {
  int oldPlaces;
  int victim;          // -1: no failure
  bool rebalance;      // false: shrink
};

class RestoreProperty : public ::testing::TestWithParam<RestoreCase> {};

TEST_P(RestoreProperty, DenseRestoreExact) {
  const auto cfg = GetParam();
  Runtime::init(cfg.oldPlaces + 1);
  auto pg = PlaceGroup::firstPlaces(static_cast<std::size_t>(cfg.oldPlaces));
  auto a = DistBlockMatrix::makeDense(48, 8, 2L * cfg.oldPlaces, 1,
                                      cfg.oldPlaces, 1, pg);
  a.initRandom(100 + static_cast<std::uint64_t>(cfg.oldPlaces));
  la::DenseMatrix before = a.toDense();
  auto snap = a.makeSnapshot();

  if (cfg.victim >= 0) Runtime::world().kill(cfg.victim);
  auto live = pg.filterDead();
  if (cfg.rebalance) {
    a.remakeRebalance(live);
  } else {
    a.remakeShrink(live);
  }
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);
}

// ctest names each case by the bytes gtest prints for it, padding
// included. A static array's padding is zero, so the names stay the same
// across builds; cases built as stack temporaries would print stack garbage.
constexpr RestoreCase kRestoreCases[] = {
    {2, 1, false},  {2, 1, true},  {4, 3, false}, {4, 3, true},
    {6, 2, false},  {6, 2, true},  {4, -1, false}, {4, -1, true},
    {8, 5, true},   {8, 1, false}};

INSTANTIATE_TEST_SUITE_P(Cases, RestoreProperty,
                         ::testing::ValuesIn(kRestoreCases));

}  // namespace
}  // namespace rgml::gml
