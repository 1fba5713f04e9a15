// Tests for the disk-staged checkpoints: real files, real serialisation,
// and survival of failures that defeat the in-memory double storage.
#include <gtest/gtest.h>

#include <filesystem>

#include "apgas/runtime.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "la/rand.h"
#include "resilient/disk_checkpoint.h"
#include "serialize/binary_io.h"

namespace rgml::resilient {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class DiskCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Runtime::init(4);
    dir_ = std::filesystem::temp_directory_path() /
           ("rgml_disk_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DiskCheckpointTest, DistVectorRoundTripThroughDisk) {
  auto pg = PlaceGroup::world();
  auto v = gml::DistVector::make(23, pg);
  v.initRandom(1);
  la::Vector before(23);
  v.copyTo(before);

  auto snapshot = v.makeSnapshot();
  const std::size_t written = persistToDisk(*snapshot, dir_);
  EXPECT_GT(written, 0u);
  snapshot.reset();  // the in-memory snapshot is gone

  auto restored = loadFromDisk(dir_, pg);
  v.init(0.0);
  v.restoreSnapshot(*restored);
  la::Vector after(23);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

TEST_F(DiskCheckpointTest, DenseMatrixRoundTripWithGridMeta) {
  auto pg = PlaceGroup::world();
  auto a = gml::DistBlockMatrix::makeDense(16, 5, 8, 1, 4, 1, pg);
  a.initRandom(2);
  la::DenseMatrix before = a.toDense();

  auto snapshot = a.makeSnapshot();
  persistToDisk(*snapshot, dir_);
  snapshot.reset();

  auto restored = loadFromDisk(dir_, pg);
  ASSERT_NE(restored->meta(), nullptr);  // the grid survived
  a.initRandom(99);
  a.restoreSnapshot(*restored);
  EXPECT_EQ(a.toDense(), before);
}

TEST_F(DiskCheckpointTest, SparseMatrixRepartitionedRestoreFromDisk) {
  auto pg = PlaceGroup::firstPlaces(4);
  auto a = gml::DistBlockMatrix::makeSparse(24, 24, 8, 1, 4, 1, 3, pg);
  auto global = la::makeUniformSparse(24, 24, 3, 3);
  a.initFromCSR(global);
  auto snapshot = a.makeSnapshot();
  persistToDisk(*snapshot, dir_);
  snapshot.reset();

  Runtime::world().kill(2);
  a.remakeRebalance(pg.filterDead());
  auto restored = loadFromDisk(dir_, pg.filterDead());
  a.restoreSnapshot(*restored);
  for (long i = 0; i < 24; ++i) {
    for (long j = 0; j < 24; ++j) EXPECT_EQ(a.at(i, j), global.at(i, j));
  }
}

TEST_F(DiskCheckpointTest, SurvivesAdjacentDoubleFailure) {
  // The scenario the in-memory double storage cannot survive: both the
  // primary and the backup holder of a value die. The disk copy doesn't
  // care.
  auto pg = PlaceGroup::world();
  auto v = gml::DistVector::make(12, pg);
  v.initRandom(4);
  la::Vector before(12);
  v.copyTo(before);

  auto snapshot = v.makeSnapshot();
  persistToDisk(*snapshot, dir_);

  Runtime::world().kill(1);
  Runtime::world().kill(2);  // adjacent: in-memory copy of segment 1 lost
  EXPECT_FALSE(snapshot->contains(1));

  auto live = pg.filterDead();
  v.remake(live);
  auto restored = loadFromDisk(dir_, live);
  v.restoreSnapshot(*restored);
  la::Vector after(12);
  v.copyTo(after);
  EXPECT_EQ(after, before);
}

TEST_F(DiskCheckpointTest, PersistChargesDiskTime) {
  Runtime& rt = Runtime::world();
  auto v = gml::DistVector::make(1000, PlaceGroup::world());
  v.initRandom(5);
  auto snapshot = v.makeSnapshot();
  const double t0 = rt.time();
  persistToDisk(*snapshot, dir_);
  const double elapsed = rt.time() - t0;
  // At least one diskLatency per entry.
  EXPECT_GE(elapsed, 4 * rt.costModel().diskLatency);
}

TEST_F(DiskCheckpointTest, RepeatedPersistOverwrites) {
  auto pg = PlaceGroup::world();
  auto v = gml::DistVector::make(8, pg);
  v.init(1.0);
  persistToDisk(*v.makeSnapshot(), dir_);
  v.init(2.0);
  persistToDisk(*v.makeSnapshot(), dir_);

  auto restored = loadFromDisk(dir_, pg);
  v.init(0.0);
  v.restoreSnapshot(*restored);
  EXPECT_EQ(v.at(0), 2.0);  // the second snapshot won
}

TEST_F(DiskCheckpointTest, RejectsSnapFilesWhoseStemIsNotAKey) {
  // A valid snapshot file under a name that is not a whole key must
  // neither escape as std::invalid_argument nor load as key 3.
  auto pg = PlaceGroup::world();
  auto v = gml::DistVector::make(8, pg);
  v.init(1.0);
  persistToDisk(*v.makeSnapshot(), dir_);
  for (const char* name : {"backup.snap", "3-old.snap"}) {
    std::filesystem::copy_file(dir_ / "0.snap", dir_ / name);
    EXPECT_THROW(static_cast<void>(loadFromDisk(dir_, pg)),
                 serialize::SerializeError)
        << name;
    std::filesystem::remove(dir_ / name);
  }
}

}  // namespace
}  // namespace rgml::resilient
