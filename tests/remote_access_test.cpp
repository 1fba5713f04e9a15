// PlaceLocalHandle::remote, the one charged access to another place's
// object, on both backends.
//
// remote(owner, access) runs access(object at owner), which returns the
// bytes it moved, and charges them through Runtime::chargeComm: one data
// message and its bytes when owner is another place, a local copy when
// owner is here, nothing for 0. A dead owner throws DeadPlaceException
// before the access runs or anything is charged. Clocks are checked on the
// simulator only; the Threads backend's clock is wall time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apgas/place_group.h"
#include "apgas/place_local_handle.h"
#include "apgas/runtime.h"
#include "la/vector.h"

namespace rgml {
namespace {

using apgas::Backend;
using apgas::DeadPlaceException;
using apgas::Place;
using apgas::PlaceGroup;
using apgas::PlaceLocalHandle;
using apgas::Runtime;
using apgas::RuntimeConfig;
using apgas::RuntimeStats;

constexpr std::uint64_t kBytes = 96;

std::vector<long> fields(const RuntimeStats& s) {
  return {s.asyncsSpawned,   s.finishes,
          s.bookkeepingMsgs, s.dataMsgs,
          static_cast<long>(s.bytesSent), s.placesKilled};
}

void initWorld(Backend backend) {
  RuntimeConfig cfg;
  cfg.numPlaces = 4;
  cfg.resilientFinish = true;
  cfg.backend = backend;
  Runtime::init(cfg);
}

/// One 8-element vector per place, element 0 holding the place id.
PlaceLocalHandle<la::Vector> makeHandle() {
  return PlaceLocalHandle<la::Vector>::make(PlaceGroup::world(), [](Place p) {
    auto v = std::make_shared<la::Vector>(8);
    (*v)[0] = static_cast<double>(p.id());
    return v;
  });
}

class RemoteAccessTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { initWorld(GetParam()); }
  [[nodiscard]] bool simulated() const {
    return GetParam() == Backend::Simulated;
  }
};

// (a) A remote access from place 0 to place 2 runs once on place 2's
// object and costs one data message of the returned bytes.
TEST_P(RemoteAccessTest, RemoteOwnerCostsOneDataMessage) {
  auto plh = makeHandle();
  Runtime& rt = Runtime::world();
  const RuntimeStats before = rt.stats();
  const double clock0 = rt.clock(0);
  int runs = 0;
  double seen = -1.0;
  plh.remote(Place(2), [&](la::Vector& v) {
    ++runs;
    seen = v[0];
    return kBytes;
  });
  const RuntimeStats after = rt.stats();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(seen, 2.0);
  EXPECT_EQ(after.dataMsgs, before.dataMsgs + 1);
  EXPECT_EQ(after.bytesSent, before.bytesSent + kBytes);
  EXPECT_EQ(after.asyncsSpawned, before.asyncsSpawned);
  EXPECT_EQ(after.finishes, before.finishes);
  if (simulated()) {
    EXPECT_EQ(rt.clock(0), clock0 + rt.costModel().commTime(kBytes));
  }
}

// (b) With the owner here, the access is a local copy: no data message,
// and the simulated clock pays copyTime.
TEST_P(RemoteAccessTest, OwnerHereCostsALocalCopy) {
  auto plh = makeHandle();
  Runtime& rt = Runtime::world();
  const RuntimeStats before = rt.stats();
  const double clock0 = rt.clock(0);
  int runs = 0;
  plh.remote(Place(0), [&](la::Vector&) {
    ++runs;
    return kBytes;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(fields(rt.stats()), fields(before));
  if (simulated()) {
    EXPECT_EQ(rt.clock(0), clock0 + rt.costModel().copyTime(kBytes));
  }
}

// (c) An access that moves nothing is charged nothing.
TEST_P(RemoteAccessTest, ZeroBytesChargeNothing) {
  auto plh = makeHandle();
  Runtime& rt = Runtime::world();
  const RuntimeStats before = rt.stats();
  std::vector<double> clocks;
  for (apgas::PlaceId p = 0; p < rt.numPlaces(); ++p) {
    clocks.push_back(rt.clock(p));
  }
  int runs = 0;
  for (apgas::PlaceId p = 0; p < rt.numPlaces(); ++p) {
    plh.remote(Place(p), [&](la::Vector&) -> std::uint64_t {
      ++runs;
      return 0;
    });
  }
  EXPECT_EQ(runs, rt.numPlaces());
  EXPECT_EQ(fields(rt.stats()), fields(before));
  if (simulated()) {
    for (apgas::PlaceId p = 0; p < rt.numPlaces(); ++p) {
      EXPECT_EQ(rt.clock(p), clocks[static_cast<std::size_t>(p)]) << p;
    }
  }
}

// (d) A dead owner throws DeadPlaceException naming it; the access never
// runs and nothing is charged.
TEST_P(RemoteAccessTest, DeadOwnerThrowsBeforeTheAccess) {
  auto plh = makeHandle();
  Runtime& rt = Runtime::world();
  rt.kill(2);
  const RuntimeStats before = rt.stats();
  const double clock0 = rt.clock(0);
  int runs = 0;
  try {
    plh.remote(Place(2), [&](la::Vector&) {
      ++runs;
      return kBytes;
    });
    ADD_FAILURE() << "remote() on a dead owner returned";
  } catch (const DeadPlaceException& e) {
    EXPECT_EQ(e.place(), 2);
  }
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(fields(rt.stats()), fields(before));
  if (simulated()) {
    EXPECT_EQ(rt.clock(0), clock0);
  }
}

// A kill that lands during the access wipes the owner's heap but cannot
// free the object under the access: remote() holds it until the access
// returns (the sanitizer presets catch a use after free here).
TEST_P(RemoteAccessTest, KillDuringTheAccessKeepsTheObjectAlive) {
  auto plh = makeHandle();
  Runtime& rt = Runtime::world();
  double sum = 0.0;
  plh.remote(Place(3), [&](la::Vector& v) {
    rt.kill(3);
    v.setAll(1.0);
    for (long i = 0; i < v.size(); ++i) sum += v[i];
    return kBytes;
  });
  EXPECT_EQ(sum, 8.0);
  EXPECT_EQ(plh.atPlace(3), nullptr);
  EXPECT_THROW(plh.remote(Place(3), [](la::Vector&) { return kBytes; }),
               DeadPlaceException);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RemoteAccessTest,
    ::testing::Values(Backend::Simulated, Backend::Threads),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(apgas::toString(info.param));
    });

/// A fixed sequence of remote accesses: remote, local, empty, and one on a
/// dead owner. Returns the world's stats afterwards.
RuntimeStats runSequence(Backend backend) {
  initWorld(backend);
  auto plh = makeHandle();
  Runtime& rt = Runtime::world();
  plh.remote(Place(1), [](la::Vector& v) { return v.bytes(); });
  plh.remote(Place(0), [](la::Vector&) { return kBytes; });
  plh.remote(Place(3), [](la::Vector&) -> std::uint64_t { return 0; });
  rt.at(Place(2), [&] {
    plh.remote(Place(1), [](la::Vector&) { return kBytes; });
  });
  rt.kill(3);
  EXPECT_THROW(plh.remote(Place(3), [](la::Vector&) { return kBytes; }),
               DeadPlaceException);
  return rt.stats();
}

// (e) The accounting is the runtime's, not the engine's: both backends
// count the same messages and bytes for the same sequence.
TEST(RemoteAccessEquivalenceTest, BothBackendsCountTheSame) {
  const RuntimeStats simulated = runSequence(Backend::Simulated);
  const RuntimeStats threaded = runSequence(Backend::Threads);
  EXPECT_EQ(simulated.dataMsgs, 2);
  EXPECT_EQ(simulated.bytesSent, 8 * sizeof(double) + kBytes);
  EXPECT_EQ(fields(simulated), fields(threaded));
}

}  // namespace
}  // namespace rgml
