// Parameterized property sweeps over the restore machinery:
//   * sparse DistBlockMatrix restore exactness across place counts,
//     victims, modes and sparsity;
//   * DistVector repartitioned restore across arbitrary old->new place
//     count pairs;
//   * snapshot recoverability for every single-victim position.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apgas/runtime.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "la/rand.h"

namespace rgml::gml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

// ---- sparse restore sweep ----------------------------------------------------

struct SparseRestoreCase {
  int places;
  int victim;
  bool rebalance;
  long nnzPerRow;
};

class SparseRestoreProperty
    : public ::testing::TestWithParam<SparseRestoreCase> {};

TEST_P(SparseRestoreProperty, RestoreIsExact) {
  const auto cfg = GetParam();
  Runtime::init(cfg.places + 1);
  auto pg = PlaceGroup::firstPlaces(static_cast<std::size_t>(cfg.places));
  const long n = 12L * cfg.places;
  auto a = DistBlockMatrix::makeSparse(n, n, 2L * cfg.places, 1, cfg.places,
                                       1, cfg.nnzPerRow, pg);
  auto global = la::makeUniformSparse(
      n, n, cfg.nnzPerRow,
      static_cast<std::uint64_t>(cfg.places * 100 + cfg.victim));
  a.initFromCSR(global);
  auto snap = a.makeSnapshot();

  Runtime::world().kill(cfg.victim);
  auto live = pg.filterDead();
  if (cfg.rebalance) {
    a.remakeRebalance(live);
  } else {
    a.remakeShrink(live);
  }
  a.restoreSnapshot(*snap);
  for (long i = 0; i < n; ++i) {
    for (long j = 0; j < n; ++j) {
      ASSERT_EQ(a.at(i, j), global.at(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

// A static array, so the padding bytes that ctest names print are zero
// (see kRestoreCases in restore_test.cpp).
constexpr SparseRestoreCase kSparseRestoreCases[] = {
    {2, 1, false, 2}, {2, 1, true, 2}, {3, 1, true, 5}, {4, 2, false, 3},
    {4, 2, true, 3},  {5, 4, true, 8}, {6, 3, false, 1}, {6, 3, true, 1},
    {7, 1, true, 4},  {8, 5, true, 6}};

INSTANTIATE_TEST_SUITE_P(Sweep, SparseRestoreProperty,
                         ::testing::ValuesIn(kSparseRestoreCases));

// ---- randomized sparse repartition sweep ----------------------------------------
// Property: an overlapping-region (rebalance) restore after a failure must
// reassemble the sparse matrix *exactly* on the new grid — the total
// stored-nonzero count across all distributed blocks and every stored
// value survive the repartitioning bit-for-bit. All case parameters are
// drawn from a SplitMix64 stream so each seed is a reproducible instance.

struct SparseSummary {
  long nnz = 0;
  std::vector<double> sortedValues;  ///< grid-order independent multiset
};

SparseSummary summarizeBlocks(const DistBlockMatrix& m) {
  SparseSummary s;
  for (apgas::PlaceId p : m.placeGroup()) {
    const auto set = m.blockSetAt(p);
    if (!set) continue;
    for (const la::MatrixBlock& block : *set) {
      if (!block.isSparse()) continue;
      s.nnz += block.sparse().nnz();
      const auto vals = block.sparse().values();
      s.sortedValues.insert(s.sortedValues.end(), vals.begin(), vals.end());
    }
  }
  std::sort(s.sortedValues.begin(), s.sortedValues.end());
  return s;
}

class SparseRepartitionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseRepartitionProperty, RebalancePreservesNonzerosExactly) {
  la::SplitMix64 rng(GetParam());
  const int places = 2 + static_cast<int>(rng.nextLong(6));     // [2, 7]
  const int victim = 1 + static_cast<int>(rng.nextLong(places - 1));
  const long nnzPerRow = 1 + rng.nextLong(8);                   // [1, 8]
  const long rowBlocks = places + rng.nextLong(2L * places);    // > places

  Runtime::init(places + 1);
  auto pg = PlaceGroup::firstPlaces(static_cast<std::size_t>(places));
  const long n = 8L * rowBlocks;
  auto a = DistBlockMatrix::makeSparse(n, n, rowBlocks, 1, places, 1,
                                       nnzPerRow, pg);
  auto global = la::makeUniformSparse(n, n, nnzPerRow, GetParam() * 977 + 1);
  a.initFromCSR(global);

  const SparseSummary before = summarizeBlocks(a);
  ASSERT_EQ(before.nnz, global.nnz());
  auto snap = a.makeSnapshot();

  Runtime::world().kill(victim);
  a.remakeRebalance(pg.filterDead());
  a.restoreSnapshot(*snap);

  const SparseSummary after = summarizeBlocks(a);
  EXPECT_EQ(after.nnz, before.nnz);
  EXPECT_EQ(after.sortedValues, before.sortedValues);  // bit-exact
  for (long i = 0; i < n; ++i) {
    for (long j = 0; j < n; ++j) {
      ASSERT_EQ(a.at(i, j), global.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRepartitionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- vector resize sweep ------------------------------------------------------

class VectorResizeProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(VectorResizeProperty, RepartitionedRestoreIsExact) {
  const auto [oldPlaces, newPlaces] = GetParam();
  Runtime::init(std::max(oldPlaces, newPlaces));
  const long n = 91;  // prime-ish: misaligned segment boundaries
  auto v = DistVector::make(n, PlaceGroup::firstPlaces(
                                   static_cast<std::size_t>(oldPlaces)));
  v.initRandom(static_cast<std::uint64_t>(oldPlaces * 31 + newPlaces));
  la::Vector before(n);
  v.copyTo(before);
  auto snap = v.makeSnapshot();

  v.remake(PlaceGroup::firstPlaces(static_cast<std::size_t>(newPlaces)));
  v.restoreSnapshot(*snap);
  la::Vector after(n);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VectorResizeProperty,
    ::testing::Values(std::pair<int, int>{1, 7}, std::pair<int, int>{7, 1},
                      std::pair<int, int>{2, 3}, std::pair<int, int>{3, 2},
                      std::pair<int, int>{4, 7}, std::pair<int, int>{7, 4},
                      std::pair<int, int>{5, 5},
                      std::pair<int, int>{6, 13},
                      std::pair<int, int>{13, 6}));

// ---- single-victim recoverability ------------------------------------------------

class VictimSweepProperty : public ::testing::TestWithParam<int> {};

TEST_P(VictimSweepProperty, AnySingleFailureIsRecoverable) {
  const int victim = GetParam();
  Runtime::init(6);
  auto pg = PlaceGroup::world();
  auto a = DistBlockMatrix::makeDense(24, 4, 12, 1, 6, 1, pg);
  a.initRandom(static_cast<std::uint64_t>(victim) + 1);
  la::DenseMatrix before = a.toDense();
  auto snap = a.makeSnapshot();

  Runtime::world().kill(victim);
  a.remakeShrink(pg.filterDead());
  a.restoreSnapshot(*snap);
  EXPECT_EQ(a.toDense(), before);
}

INSTANTIATE_TEST_SUITE_P(AllVictims, VictimSweepProperty,
                         ::testing::Range(1, 6));

}  // namespace
}  // namespace rgml::gml
