// Unit tests for the distributed vector classes: DupVector and DistVector
// construction, collective operations, cost accounting sanity, remakes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apgas/runtime.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "la/kernels.h"

namespace rgml::gml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class GmlVectorTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }
};

// ---- DupVector -------------------------------------------------------------

TEST_F(GmlVectorTest, DupVectorReplicasInitialised) {
  auto v = DupVector::make(10, PlaceGroup::world());
  v.init(2.0);
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    EXPECT_EQ(v.local().size(), 10);
    EXPECT_EQ(v.local()[7], 2.0);
  });
}

TEST_F(GmlVectorTest, DupVectorSyncPropagatesRoot) {
  auto v = DupVector::make(5, PlaceGroup::world());
  v.init(0.0);
  apgas::at(Place(0), [&] { v.local()[3] = 9.0; });
  // Before sync, replica at place 2 is stale.
  apgas::at(Place(2), [&] { EXPECT_EQ(v.local()[3], 0.0); });
  v.sync();
  apgas::at(Place(2), [&] { EXPECT_EQ(v.local()[3], 9.0); });
}

TEST_F(GmlVectorTest, DupVectorElementwiseOpsKeepReplicasConsistent) {
  auto a = DupVector::make(8, PlaceGroup::world());
  auto b = DupVector::make(8, PlaceGroup::world());
  a.initRandom(1);
  b.initRandom(2);
  a.scale(2.0);
  a.axpy(0.5, b);
  a.cellAdd(1.0);
  a.cellAdd(b);
  // All replicas must agree elementwise.
  la::Vector reference;
  apgas::at(Place(0), [&] { reference = a.local(); });
  apgas::ateach(PlaceGroup::world(), [&](Place) {
    EXPECT_EQ(a.local(), reference);
  });
}

TEST_F(GmlVectorTest, DupVectorDotAndNormAreLocal) {
  Runtime& rt = Runtime::world();
  auto a = DupVector::make(100, PlaceGroup::world());
  a.init(2.0);
  rt.resetStats();
  EXPECT_DOUBLE_EQ(a.dot(a), 400.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 20.0);
  EXPECT_DOUBLE_EQ(a.sum(), 200.0);
  // Duplicated data: no communication, no finish.
  EXPECT_EQ(rt.stats().dataMsgs, 0);
  EXPECT_EQ(rt.stats().finishes, 0);
}

TEST_F(GmlVectorTest, DupVectorInitFn) {
  auto v = DupVector::make(6, PlaceGroup::world());
  v.init([](long i) { return static_cast<double>(i * i); });
  apgas::at(Place(3), [&] { EXPECT_EQ(v.local()[5], 25.0); });
}

TEST_F(GmlVectorTest, DupVectorSubsetGroup) {
  PlaceGroup pg({0, 2});
  auto v = DupVector::make(4, pg);
  v.init(1.0);
  apgas::at(Place(2), [&] { EXPECT_EQ(v.local()[0], 1.0); });
  // Place 1 holds no replica.
  apgas::at(Place(1), [&] {
    EXPECT_THROW(static_cast<void>(v.local()), apgas::ApgasError);
  });
}

TEST_F(GmlVectorTest, DupVectorRemakeChangesGroup) {
  auto v = DupVector::make(4, PlaceGroup::world());
  v.init(5.0);
  PlaceGroup smaller({0, 1, 3});
  v.remake(smaller);
  EXPECT_EQ(v.placeGroup(), smaller);
  apgas::at(Place(3), [&] {
    EXPECT_EQ(v.local().size(), 4);
    EXPECT_EQ(v.local()[0], 0.0);  // contents zeroed by remake
  });
}

TEST_F(GmlVectorTest, DupVectorSyncToDeadPlaceThrows) {
  auto v = DupVector::make(4, PlaceGroup::world());
  Runtime::world().kill(2);
  EXPECT_THROW(v.sync(), apgas::DeadPlaceException);
}

// ---- DistVector ------------------------------------------------------------

TEST_F(GmlVectorTest, DistVectorSegmentsPartitionRange) {
  auto v = DistVector::make(10, PlaceGroup::world());
  // 10 over 4 places: 3,3,2,2.
  EXPECT_EQ(v.segSize(0), 3);
  EXPECT_EQ(v.segSize(2), 2);
  EXPECT_EQ(v.segOffset(3), 8);
  apgas::at(Place(1), [&] { EXPECT_EQ(v.localSegment().size(), 3); });
}

TEST_F(GmlVectorTest, DistVectorInitAndAt) {
  auto v = DistVector::make(12, PlaceGroup::world());
  v.init([](long i) { return static_cast<double>(i) * 2.0; });
  for (long i = 0; i < 12; ++i) EXPECT_EQ(v.at(i), 2.0 * i);
}

TEST_F(GmlVectorTest, DistVectorInitRandomIsDistributionIndependent) {
  auto v4 = DistVector::make(20, PlaceGroup::world());
  v4.initRandom(7);
  std::vector<double> fourPlaceValues(20);
  for (long i = 0; i < 20; ++i) fourPlaceValues[i] = v4.at(i);

  Runtime::init(2);
  auto v2 = DistVector::make(20, PlaceGroup::world());
  v2.initRandom(7);
  // hashedUniform: element values depend only on (seed, index), so the
  // fill is identical no matter how the vector is partitioned.
  for (long i = 0; i < 20; ++i) EXPECT_EQ(v2.at(i), fourPlaceValues[i]);
}

TEST_F(GmlVectorTest, DistVectorGatherScatterRoundTrip) {
  auto v = DistVector::make(11, PlaceGroup::world());
  la::Vector src(11);
  for (long i = 0; i < 11; ++i) src[i] = static_cast<double>(i + 1);
  v.copyFrom(src);
  la::Vector dst(11);
  v.copyTo(dst);
  EXPECT_EQ(dst, src);
}

TEST_F(GmlVectorTest, DistVectorScaleAddMapReduce) {
  auto a = DistVector::make(10, PlaceGroup::world());
  auto b = DistVector::make(10, PlaceGroup::world());
  a.init([](long i) { return static_cast<double>(i); });
  b.init(1.0);
  a.scale(2.0);              // a = 0,2,4,...
  a.cellAdd(b);              // a = 1,3,5,...
  EXPECT_DOUBLE_EQ(a.sum(), 100.0);
  a.map([](double x, long) { return x * x; }, 2.0);
  EXPECT_DOUBLE_EQ(a.at(2), 25.0);
  a.map2(b, [](double x, double y, long) { return x + y; }, 1.0);
  EXPECT_DOUBLE_EQ(a.at(2), 26.0);
}

TEST_F(GmlVectorTest, DistVectorDotVariants) {
  auto a = DistVector::make(10, PlaceGroup::world());
  a.init(2.0);
  EXPECT_DOUBLE_EQ(a.dot(a), 40.0);
  EXPECT_NEAR(a.norm2(), std::sqrt(40.0), 1e-12);

  auto dup = DupVector::make(10, PlaceGroup::world());
  dup.init(3.0);
  EXPECT_DOUBLE_EQ(a.dot(dup), 60.0);
}

TEST_F(GmlVectorTest, DistVectorCopyFromDist) {
  auto a = DistVector::make(10, PlaceGroup::world());
  auto b = DistVector::make(10, PlaceGroup::world());
  a.init([](long i) { return static_cast<double>(i); });
  b.copyFrom(a);
  for (long i = 0; i < 10; ++i) EXPECT_EQ(b.at(i), a.at(i));
}

TEST_F(GmlVectorTest, DistVectorRemakeRepartitions) {
  auto v = DistVector::make(12, PlaceGroup::world());
  v.init(1.0);
  PlaceGroup three({0, 1, 2});
  v.remake(three);
  EXPECT_EQ(v.placeGroup(), three);
  EXPECT_EQ(v.segSize(0), 4);  // 12 over 3 places
  apgas::at(Place(2), [&] { EXPECT_EQ(v.localSegment().size(), 4); });
}

TEST_F(GmlVectorTest, DistVectorAccessAfterKillThrows) {
  auto v = DistVector::make(12, PlaceGroup::world());
  v.init(1.0);
  Runtime::world().kill(2);
  EXPECT_THROW(static_cast<void>(v.at(7)),
               apgas::DeadPlaceException);  // segment on place 2
  la::Vector dst(12);
  EXPECT_THROW(v.copyTo(dst), apgas::DeadPlaceException);
  EXPECT_THROW(static_cast<void>(v.sum()), apgas::DeadPlaceException);
}

TEST_F(GmlVectorTest, DistVectorOpsRejectAPermutedPlaceGroup) {
  // The same places in another order hold other index ranges: 7 elements
  // over {0,1,2} put [0,3) at place 0, over {1,2,0} place 0 holds [5,7).
  // A segment-wise op would combine mismatched elements (dot read 4900
  // against the elementwise 9100) and index past the shorter segment.
  auto a = DistVector::make(7, PlaceGroup({0, 1, 2}));
  auto b = DistVector::make(7, PlaceGroup({1, 2, 0}));
  const auto tenI = [](long i) { return 10.0 * static_cast<double>(i); };
  a.init(tenI);
  b.init(tenI);
  try {
    static_cast<void>(a.dot(b));
    FAIL() << "dot accepted a permuted place group";
  } catch (const apgas::ApgasError& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible distributions"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(a.cellAdd(b), apgas::ApgasError);
  EXPECT_THROW(a.axpy(1.0, b), apgas::ApgasError);
  EXPECT_THROW(a.cellMult(b), apgas::ApgasError);
  EXPECT_THROW(a.cellDiv(b), apgas::ApgasError);
  EXPECT_THROW(a.copyFrom(b), apgas::ApgasError);
  EXPECT_THROW(a.map2(b, [](double x, double y, long) { return x + y; }),
               apgas::ApgasError);
  // Nothing was combined, and over an equal group the dot is elementwise.
  for (long i = 0; i < 7; ++i) EXPECT_EQ(a.at(i), tenI(i));
  auto c = DistVector::make(7, PlaceGroup({0, 1, 2}));
  c.init(tenI);
  EXPECT_EQ(a.dot(c), 9100.0);
}

TEST_F(GmlVectorTest, DistVectorTooFewElementsRejected) {
  EXPECT_THROW(DistVector::make(3, PlaceGroup::world()), apgas::ApgasError);
}

// Parameterised: balanced segmentation invariants across sizes/groups.
class SegmentationProperty
    : public ::testing::TestWithParam<std::pair<long, int>> {};

TEST_P(SegmentationProperty, SegmentsBalancedAndComplete) {
  const auto [n, places] = GetParam();
  Runtime::init(places);
  auto v = DistVector::make(n, apgas::PlaceGroup::world());
  long total = 0;
  long minSeg = n, maxSeg = 0;
  for (long s = 0; s < places; ++s) {
    EXPECT_EQ(v.segOffset(s), total);
    total += v.segSize(s);
    minSeg = std::min(minSeg, v.segSize(s));
    maxSeg = std::max(maxSeg, v.segSize(s));
  }
  EXPECT_EQ(total, n);
  EXPECT_LE(maxSeg - minSeg, 1);  // balanced partition
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SegmentationProperty,
    ::testing::Values(std::pair<long, int>{10, 4},
                      std::pair<long, int>{100, 7},
                      std::pair<long, int>{101, 7},
                      std::pair<long, int>{44, 44},
                      std::pair<long, int>{1000, 13}));

}  // namespace
}  // namespace rgml::gml
