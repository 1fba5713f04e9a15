// Unit tests for PlaceGroup: ordering, indexing, ring order, dead-place
// filtering and spare replacement — the machinery every restoration mode
// builds on.
#include <gtest/gtest.h>

#include "apgas/place_group.h"
#include "apgas/runtime.h"

namespace rgml::apgas {
namespace {

class PlaceGroupTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(8); }
};

TEST_F(PlaceGroupTest, WorldCoversAllPlaces) {
  auto pg = PlaceGroup::world();
  EXPECT_EQ(pg.size(), 8u);
  EXPECT_EQ(pg(0).id(), 0);
  EXPECT_EQ(pg(7).id(), 7);
}

TEST_F(PlaceGroupTest, FirstPlaces) {
  auto pg = PlaceGroup::firstPlaces(3);
  EXPECT_EQ(pg.ids(), (std::vector<PlaceId>{0, 1, 2}));
}

TEST_F(PlaceGroupTest, IndexOfReflectsOrder) {
  PlaceGroup pg({5, 2, 7});
  EXPECT_EQ(pg.indexOf(Place(5)), 0);
  EXPECT_EQ(pg.indexOf(Place(2)), 1);
  EXPECT_EQ(pg.indexOf(Place(7)), 2);
  EXPECT_EQ(pg.indexOf(Place(4)), -1);
  EXPECT_TRUE(pg.contains(Place(2)));
  EXPECT_FALSE(pg.contains(Place(0)));
}

TEST_F(PlaceGroupTest, IndexOutOfRangeThrows) {
  PlaceGroup pg({1, 2});
  EXPECT_THROW(static_cast<void>(pg(2)), ApgasError);
}

TEST_F(PlaceGroupTest, NextIsRingOrder) {
  PlaceGroup pg({1, 4, 6});
  EXPECT_EQ(pg.next(Place(1)).id(), 4);
  EXPECT_EQ(pg.next(Place(4)).id(), 6);
  EXPECT_EQ(pg.next(Place(6)).id(), 1);  // wraps
  EXPECT_THROW(static_cast<void>(pg.next(Place(0))), ApgasError);
}

TEST_F(PlaceGroupTest, FilterDeadPreservesOrderAndIds) {
  PlaceGroup pg({1, 2, 3, 4});
  Runtime::world().kill(2);
  Runtime::world().kill(4);
  auto live = pg.filterDead();
  // Paper §IV-B1: identifiers of the remaining places are unchanged, but
  // indices shift after filtering out the dead ones.
  EXPECT_EQ(live.ids(), (std::vector<PlaceId>{1, 3}));
  EXPECT_EQ(live.indexOf(Place(3)), 1);  // was index 2
}

TEST_F(PlaceGroupTest, DeadPlacesQuery) {
  PlaceGroup pg({1, 2, 3});
  EXPECT_FALSE(pg.hasDeadPlaces());
  Runtime::world().kill(3);
  EXPECT_TRUE(pg.hasDeadPlaces());
  EXPECT_EQ(pg.deadPlaces(), (std::vector<PlaceId>{3}));
}

TEST_F(PlaceGroupTest, ReplaceDeadSubstitutesInOrder) {
  PlaceGroup pg({1, 2, 3});
  Runtime::world().kill(2);
  auto replaced = pg.replaceDead({6, 7});
  EXPECT_EQ(replaced.ids(), (std::vector<PlaceId>{1, 6, 3}));
  EXPECT_EQ(replaced.size(), pg.size());
}

TEST_F(PlaceGroupTest, ReplaceDeadSkipsDeadSpares) {
  PlaceGroup pg({1, 2});
  Runtime::world().kill(2);
  Runtime::world().kill(6);
  auto replaced = pg.replaceDead({6, 7});
  EXPECT_EQ(replaced.ids(), (std::vector<PlaceId>{1, 7}));
}

TEST_F(PlaceGroupTest, ReplaceDeadDropsWhenOutOfSpares) {
  PlaceGroup pg({1, 2, 3});
  Runtime::world().kill(1);
  Runtime::world().kill(3);
  auto replaced = pg.replaceDead({7});
  // One spare for two dead members: the second is dropped (shrink
  // fallback, as the paper specifies when failures exceed spares).
  EXPECT_EQ(replaced.ids(), (std::vector<PlaceId>{7, 2}));
}

TEST_F(PlaceGroupTest, ReplaceDeadWithoutFailuresIsIdentity) {
  PlaceGroup pg({1, 2, 3});
  auto replaced = pg.replaceDead({6, 7});
  EXPECT_EQ(replaced, pg);
}

TEST_F(PlaceGroupTest, EqualityIsElementwise) {
  EXPECT_EQ(PlaceGroup({1, 2}), PlaceGroup({1, 2}));
  EXPECT_FALSE(PlaceGroup({1, 2}) == PlaceGroup({2, 1}));
}

}  // namespace
}  // namespace rgml::apgas
