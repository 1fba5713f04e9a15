// Unit tests for the distributed matrix classes: DistBlockMatrix (dense and
// sparse, multiple blocks per place, 2D place grids), mult/transMult
// correctness against serial references, remake paths, load imbalance, and
// the one-block-per-place and duplicated wrappers.
#include <gtest/gtest.h>

#include "apgas/runtime.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_dense_matrix.h"
#include "gml/dist_sparse_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_dense_matrix.h"
#include "gml/dup_sparse_matrix.h"
#include "gml/dup_vector.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::gml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class GmlMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }
};

TEST_F(GmlMatrixTest, MakeDenseDistributesAllBlocks) {
  auto a = DistBlockMatrix::makeDense(20, 8, 8, 1, 4, 1,
                                      PlaceGroup::world());
  EXPECT_EQ(a.rows(), 20);
  EXPECT_EQ(a.cols(), 8);
  EXPECT_FALSE(a.isSparse());
  long blocks = 0;
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    EXPECT_EQ(a.localBlockSet().size(), 2u);  // 8 blocks over 4 places
    blocks += static_cast<long>(a.localBlockSet().size());
  });
  EXPECT_EQ(blocks, 8);
}

TEST_F(GmlMatrixTest, InitFnAndAt) {
  auto a = DistBlockMatrix::makeDense(10, 6, 4, 2, 2, 2,
                                      PlaceGroup::world());
  a.init([](long i, long j) { return i * 100.0 + j; });
  EXPECT_EQ(a.at(0, 0), 0.0);
  EXPECT_EQ(a.at(7, 3), 703.0);
  EXPECT_EQ(a.at(9, 5), 905.0);
}

TEST_F(GmlMatrixTest, ToDenseMatchesInit) {
  auto a = DistBlockMatrix::makeDense(9, 5, 3, 2, 1, 2, PlaceGroup({0, 2}));
  a.init([](long i, long j) { return i + j * 0.5; });
  la::DenseMatrix d = a.toDense();
  for (long i = 0; i < 9; ++i) {
    for (long j = 0; j < 5; ++j) EXPECT_EQ(d(i, j), i + j * 0.5);
  }
}

TEST_F(GmlMatrixTest, InitRandomDeterministicAcrossDistributions) {
  auto a = DistBlockMatrix::makeDense(12, 6, 4, 1, 4, 1,
                                      PlaceGroup::world());
  a.initRandom(5);
  la::DenseMatrix d4 = a.toDense();
  Runtime::init(2);
  auto b = DistBlockMatrix::makeDense(12, 6, 2, 1, 2, 1,
                                      PlaceGroup::world());
  b.initRandom(5);
  // Dense fill is (seed, i, j)-hashed: identical across partitionings.
  EXPECT_EQ(b.toDense(), d4);
}

TEST_F(GmlMatrixTest, MultMatchesSerialGemv) {
  auto a = DistBlockMatrix::makeDense(14, 6, 4, 1, 4, 1,
                                      PlaceGroup::world());
  a.initRandom(8);
  auto x = DupVector::make(6, PlaceGroup::world());
  x.initRandom(9);
  auto y = DistVector::make(14, PlaceGroup::world());
  y.mult(a, x);

  la::DenseMatrix ad = a.toDense();
  la::Vector xv;
  apgas::at(Place(0), [&] { xv = x.local(); });
  la::Vector ref(14);
  la::gemv(ad, xv.span(), ref.span());
  for (long i = 0; i < 14; ++i) EXPECT_NEAR(y.at(i), ref[i], 1e-12);
}

TEST_F(GmlMatrixTest, MultWorksWithColumnBlocks) {
  // 2x2 place grid with column blocks: exercises the scatter-add path
  // where block row ranges do not align with the output segments.
  auto a = DistBlockMatrix::makeDense(12, 8, 2, 2, 2, 2,
                                      PlaceGroup::world());
  a.initRandom(10);
  auto x = DupVector::make(8, PlaceGroup::world());
  x.initRandom(11);
  auto y = DistVector::make(12, PlaceGroup::world());
  y.mult(a, x);

  la::DenseMatrix ad = a.toDense();
  la::Vector xv;
  apgas::at(Place(0), [&] { xv = x.local(); });
  la::Vector ref(12);
  la::gemv(ad, xv.span(), ref.span());
  for (long i = 0; i < 12; ++i) EXPECT_NEAR(y.at(i), ref[i], 1e-12);
}

TEST_F(GmlMatrixTest, TransMultMatchesSerialGemvTrans) {
  auto a = DistBlockMatrix::makeDense(14, 6, 4, 1, 4, 1,
                                      PlaceGroup::world());
  a.initRandom(12);
  auto y = DistVector::make(14, PlaceGroup::world());
  y.initRandom(13);
  auto z = DupVector::make(6, PlaceGroup::world());
  z.transMult(a, y);

  la::DenseMatrix ad = a.toDense();
  la::Vector yv(14);
  y.copyTo(yv);
  la::Vector ref(6);
  la::gemvTrans(ad, yv.span(), ref.span());
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    for (long j = 0; j < 6; ++j) EXPECT_NEAR(z.local()[j], ref[j], 1e-12);
  });
}

TEST_F(GmlMatrixTest, SparseMultMatchesSerialSpmv) {
  auto g = DistBlockMatrix::makeSparse(20, 20, 4, 1, 4, 1, 3,
                                       PlaceGroup::world());
  auto global = la::makeWebGraph(20, 3, 17);
  g.initFromCSR(global);
  EXPECT_TRUE(g.isSparse());
  auto x = DupVector::make(20, PlaceGroup::world());
  x.initRandom(18);
  auto y = DistVector::make(20, PlaceGroup::world());
  y.mult(g, x);

  la::Vector xv;
  apgas::at(Place(0), [&] { xv = x.local(); });
  la::Vector ref(20);
  la::spmv(global, xv.span(), ref.span());
  for (long i = 0; i < 20; ++i) EXPECT_NEAR(y.at(i), ref[i], 1e-12);
}

TEST_F(GmlMatrixTest, InitFromCSRPreservesEntries) {
  auto global = la::makeUniformSparse(16, 16, 3, 23);
  auto g = DistBlockMatrix::makeSparse(16, 16, 4, 2, 2, 2, 3,
                                       PlaceGroup::world());
  g.initFromCSR(global);
  for (long i = 0; i < 16; ++i) {
    for (long j = 0; j < 16; ++j) {
      EXPECT_EQ(g.at(i, j), global.at(i, j));
    }
  }
}

TEST_F(GmlMatrixTest, RemakeSameDistSwapsPlaces) {
  Runtime::init(6);
  auto a = DistBlockMatrix::makeDense(16, 4, 8, 1, 4, 1,
                                      PlaceGroup::firstPlaces(4));
  a.init([](long i, long j) { return i + j; });
  Runtime::world().kill(2);
  // Replace place 2 by spare place 4 (same size, same grid, same map).
  PlaceGroup replaced({0, 1, 4, 3});
  const la::Grid before = a.grid();
  a.remakeSameDist(replaced);
  EXPECT_EQ(a.grid(), before);
  EXPECT_EQ(a.placeGroup(), replaced);
  // Contents zeroed; block structure identical.
  apgas::at(Place(4), [&] { EXPECT_EQ(a.localBlockSet().size(), 2u); });
}

TEST_F(GmlMatrixTest, RemakeShrinkKeepsGridDegradesBalance) {
  auto a = DistBlockMatrix::makeDense(16, 4, 8, 1, 4, 1,
                                      PlaceGroup::world());
  a.initRandom(3);
  Runtime::world().kill(2);
  const la::Grid before = a.grid();
  a.remakeShrink(PlaceGroup::world().filterDead());
  EXPECT_EQ(a.grid(), before);  // same data grid
  EXPECT_EQ(a.placeGroup().size(), 3u);
  // 8 blocks over 3 places: counts {3,3,2} -> imbalance > 1.
  EXPECT_GT(a.distMap().blockCounts()[0] + 0, 2);
  EXPECT_GT(a.loadImbalance(), 1.0);
}

TEST_F(GmlMatrixTest, RemakeRebalanceRecalculatesGrid) {
  auto a = DistBlockMatrix::makeDense(16, 4, 8, 1, 4, 1,
                                      PlaceGroup::world());
  a.initRandom(3);
  Runtime::world().kill(2);
  a.remakeRebalance(PlaceGroup::world().filterDead());
  EXPECT_EQ(a.grid().rowBlocks(), 6);  // 2 blocks/place * 3 places
  EXPECT_EQ(a.placeGroup().size(), 3u);
  EXPECT_EQ(a.distMap().blockCounts(), (std::vector<long>{2, 2, 2}));
  EXPECT_NEAR(a.loadImbalance(), 1.0, 0.2);
}

TEST_F(GmlMatrixTest, MultAfterShrinkRemakeStillCorrect) {
  auto a = DistBlockMatrix::makeDense(16, 4, 8, 1, 4, 1,
                                      PlaceGroup::world());
  Runtime::world().kill(3);
  PlaceGroup live = PlaceGroup::world().filterDead();
  a.remakeShrink(live);
  a.init([](long i, long j) { return (i + 1) * (j + 1) * 0.1; });
  auto x = DupVector::make(4, live);
  x.init(1.0);
  auto y = DistVector::make(16, live);
  y.mult(a, x);
  la::DenseMatrix ad = a.toDense();
  la::Vector ones(4);
  ones.setAll(1.0);
  la::Vector ref(16);
  la::gemv(ad, ones.span(), ref.span());
  for (long i = 0; i < 16; ++i) EXPECT_NEAR(y.at(i), ref[i], 1e-12);
}

TEST_F(GmlMatrixTest, AtOnDeadOwnerThrows) {
  auto a = DistBlockMatrix::makeDense(8, 4, 4, 1, 4, 1,
                                      PlaceGroup::world());
  a.initRandom(1);
  Runtime::world().kill(1);
  // Rows 2..3 live on place 1.
  EXPECT_THROW(static_cast<void>(a.at(2, 0)), apgas::DeadPlaceException);
  EXPECT_NO_THROW(static_cast<void>(a.at(0, 0)));
}

// ---- one-block-per-place wrappers ------------------------------------------

TEST_F(GmlMatrixTest, DistDenseMatrixOneBlockPerPlace) {
  auto a = DistDenseMatrix::make(12, 5, PlaceGroup::world());
  a.init([](long i, long j) { return i * 10.0 + j; });
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    EXPECT_EQ(a.localBlock().rows(), 3);  // 12 rows over 4 places
    EXPECT_EQ(a.localBlock().cols(), 5);
  });
  EXPECT_EQ(a.at(7, 2), 72.0);
  apgas::at(Place(2), [&] { EXPECT_EQ(a.localRowOffset(), 6); });
}

TEST_F(GmlMatrixTest, DistDenseMatrixRemakeRepartitions) {
  auto a = DistDenseMatrix::make(12, 5, PlaceGroup::world());
  Runtime::world().kill(1);
  a.remake(PlaceGroup::world().filterDead());
  EXPECT_EQ(a.grid().rowBlocks(), 3);  // one block per surviving place
  apgas::at(Place(3), [&] { EXPECT_EQ(a.localBlock().rows(), 4); });
}

TEST_F(GmlMatrixTest, DistSparseMatrixBasics) {
  auto a = DistSparseMatrix::make(16, 16, 3, PlaceGroup::world());
  a.initFromCSR(la::makeUniformSparse(16, 16, 3, 5));
  EXPECT_EQ(a.nnz(), 48);
  apgas::at(Place(1), [&] {
    EXPECT_EQ(a.localBlock().rows(), 4);
    EXPECT_EQ(a.localRowOffset(), 4);
  });
  Runtime::world().kill(3);
  a.remake(PlaceGroup::world().filterDead());
  EXPECT_EQ(a.grid().rowBlocks(), 3);
}

// ---- duplicated matrices ----------------------------------------------------

TEST_F(GmlMatrixTest, DupDenseMatrixSyncAndScale) {
  auto a = DupDenseMatrix::make(4, 3, PlaceGroup::world());
  a.initRandom(9);
  la::DenseMatrix reference;
  apgas::at(Place(0), [&] { reference = a.local(); });
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    EXPECT_EQ(a.local(), reference);
  });
  a.scale(2.0);
  apgas::at(Place(3), [&] {
    EXPECT_DOUBLE_EQ(a.local()(1, 1), 2.0 * reference(1, 1));
  });
}

TEST_F(GmlMatrixTest, DupSparseMatrixSync) {
  auto a = DupSparseMatrix::make(10, 10, PlaceGroup::world());
  a.initRandom(3, 7);
  la::SparseCSR reference;
  apgas::at(Place(0), [&] { reference = a.local(); });
  EXPECT_EQ(reference.nnz(), 30);
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    EXPECT_EQ(a.local(), reference);
  });
}

TEST_F(GmlMatrixTest, DupSparseMatrixInitFrom) {
  auto global = la::makeUniformSparse(8, 8, 2, 55);
  auto a = DupSparseMatrix::make(8, 8, PlaceGroup::world());
  a.initFrom(global);
  apgas::at(Place(2), [&] { EXPECT_EQ(a.local(), global); });
}

// Parameterised sweep: mult correctness across grid/place configurations.
struct MultConfig {
  long m, n, rowBlocks, colBlocks, rowPlaces, colPlaces;
};

class MultConfigs : public ::testing::TestWithParam<MultConfig> {};

TEST_P(MultConfigs, MultAndTransMultMatchSerial) {
  const auto cfg = GetParam();
  Runtime::init(static_cast<int>(cfg.rowPlaces * cfg.colPlaces));
  auto pg = PlaceGroup::world();
  auto a = DistBlockMatrix::makeDense(cfg.m, cfg.n, cfg.rowBlocks,
                                      cfg.colBlocks, cfg.rowPlaces,
                                      cfg.colPlaces, pg);
  a.initRandom(101);
  auto x = DupVector::make(cfg.n, pg);
  x.initRandom(102);
  auto y = DistVector::make(cfg.m, pg);
  y.mult(a, x);

  la::DenseMatrix ad = a.toDense();
  la::Vector xv;
  apgas::at(Place(0), [&] { xv = x.local(); });
  la::Vector ref(cfg.m);
  la::gemv(ad, xv.span(), ref.span());
  for (long i = 0; i < cfg.m; ++i) EXPECT_NEAR(y.at(i), ref[i], 1e-11);

  auto z = DupVector::make(cfg.n, pg);
  z.transMult(a, y);
  la::Vector yv(cfg.m);
  y.copyTo(yv);
  la::Vector refT(cfg.n);
  la::gemvTrans(ad, yv.span(), refT.span());
  apgas::at(Place(0), [&] {
    for (long j = 0; j < cfg.n; ++j) {
      EXPECT_NEAR(z.local()[j], refT[j], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MultConfigs,
    ::testing::Values(MultConfig{8, 4, 2, 1, 2, 1},
                      MultConfig{24, 10, 6, 1, 3, 1},
                      MultConfig{20, 12, 4, 2, 2, 2},
                      MultConfig{30, 8, 10, 1, 5, 1},
                      MultConfig{25, 9, 5, 3, 5, 1},
                      MultConfig{13, 7, 6, 2, 3, 2}));

}  // namespace
}  // namespace rgml::gml
