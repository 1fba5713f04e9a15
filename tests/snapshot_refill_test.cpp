// The store's retired-slot refill contract, on both backends.
//
// AppResilientStore keeps the snapshot committed before the current one
// (the retired slot), and the next checkpoint refills that slot's payload
// buffers in place (Snapshot::emplace) instead of allocating new ones.
// These tests pin down that the refill really happens (checkpoint n+2
// reuses checkpoint n's buffers), that it changes nothing observable (a
// restore, the checkpoint stats, the replica-byte counter and the store
// spans equal those of a store that never refills), that a kill between
// save() and commit() after some refills leaves the committed slot
// intact, and that a payload the retired slot does not own alone — a
// saveReadOnly-shared Snapshot, a delta-carried payload, an encoded one —
// is never written.
//
// "A store that never refills" is the same store with every Snapshot the
// objects make kept alive by the test (Recorded with pin = true): the
// retired slot is then never a Snapshot's only owner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apgas/runtime.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "obs/trace_sink.h"
#include "resilient/app_resilient_store.h"
#include "resilient/snapshottable_scalars.h"

namespace rgml {
namespace {

using apgas::Backend;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::RuntimeConfig;
using gml::DistBlockMatrix;
using gml::DistVector;
using gml::DupVector;
using resilient::AppResilientStore;
using resilient::CheckpointMode;
using resilient::Snapshot;
using resilient::Snapshottable;
using resilient::SnapshottableScalars;

/// Forwards to a GML object and records every Snapshot it makes: weakly,
/// so the test can read the payloads without becoming an owner, or — with
/// `pin` — strongly, so the store never refills.
class Recorded final : public Snapshottable {
 public:
  Recorded(Snapshottable& inner, bool pin) : inner_(inner), pin_(pin) {}

  [[nodiscard]] std::shared_ptr<Snapshot> makeSnapshot() const override {
    return keep(inner_.makeSnapshot());
  }
  [[nodiscard]] std::shared_ptr<Snapshot> makeDeltaSnapshot(
      const Snapshot& prev) const override {
    return keep(inner_.makeDeltaSnapshot(prev));
  }
  void restoreSnapshot(const Snapshot& snapshot) override {
    inner_.restoreSnapshot(snapshot);
  }

  /// The Snapshot made by the i-th save (0-based); null once released.
  [[nodiscard]] std::shared_ptr<Snapshot> made(std::size_t i) const {
    return made_.at(i).lock();
  }
  [[nodiscard]] std::size_t count() const { return made_.size(); }

 private:
  std::shared_ptr<Snapshot> keep(std::shared_ptr<Snapshot> s) const {
    made_.push_back(s);
    if (pin_) pinned_.push_back(s);
    return s;
  }

  Snapshottable& inner_;
  bool pin_;
  mutable std::vector<std::weak_ptr<Snapshot>> made_;
  mutable std::vector<std::shared_ptr<Snapshot>> pinned_;
};

/// Address of a payload's first element.
const void* payloadData(const resilient::SnapshotValue& value) {
  if (const auto* v = dynamic_cast<const resilient::VectorValue*>(&value)) {
    return v->data().data();
  }
  if (const auto* d =
          dynamic_cast<const resilient::DenseBlockValue*>(&value)) {
    return d->data().span().data();
  }
  if (const auto* s =
          dynamic_cast<const resilient::SparseBlockValue*>(&value)) {
    return s->data().values().data();
  }
  if (const auto* c = dynamic_cast<const resilient::ScalarsValue*>(&value)) {
    return c->scalars().data();
  }
  ADD_FAILURE() << "unexpected payload type";
  return nullptr;
}

/// One saved payload: the object, weakly, and its data address.
struct Payload {
  std::weak_ptr<const resilient::SnapshotValue> value;
  const void* data = nullptr;
};

/// key -> payload, for the Snapshot made by save `i`.
std::map<long, Payload> payloads(const Recorded& obj, std::size_t i) {
  const std::shared_ptr<Snapshot> snapshot = obj.made(i);
  EXPECT_NE(snapshot, nullptr) << "snapshot " << i << " already released";
  std::map<long, Payload> out;
  if (!snapshot) return out;
  for (long key : snapshot->keys()) {
    const auto value = snapshot->locate(key).value;
    out[key] = Payload{value, payloadData(*value)};
  }
  return out;
}

/// key -> payload data address, for the Snapshot made by save `i`.
std::map<long, const void*> addresses(const Recorded& obj, std::size_t i) {
  std::map<long, const void*> out;
  for (const auto& [key, payload] : payloads(obj, i)) out[key] = payload.data;
  return out;
}

/// Every kind of payload the GML objects save, on places 0-3 of a 6-place
/// world (places 4-5 are spares for restores): DistVector segments, a
/// DupVector, sparse and dense matrix blocks and the scalars.
struct Objects {
  explicit Objects(bool pin)
      : v(DistVector::make(4000, group())),
        u(DistVector::make(400, group())),
        d(DupVector::make(500, group())),
        g(DistBlockMatrix::makeSparse(400, 400, 4, 1, 4, 1, 5, group())),
        m(DistBlockMatrix::makeDense(40, 40, 2, 2, 2, 2, group())),
        s(2, group()),
        rv(v, pin),
        ru(u, pin),
        rd(d, pin),
        rg(g, pin),
        rm(m, pin),
        rs(s, pin) {
    v.init([](long i) { return std::sin(0.01 * static_cast<double>(i)); });
    u.init([](long i) { return static_cast<double>(i % 7); });
    d.init([](long i) { return 1.0 / static_cast<double>(i + 1); });
    g.initRandom(11, 0.0, 0.2);
    m.initRandom(12);
  }

  static PlaceGroup group() { return PlaceGroup({0, 1, 2, 3}); }

  /// Changes every object the test saves with save() (and so every
  /// block's version): a delta checkpoint saves them all fresh.
  void mutate(long iter) {
    v.scale(1.25);
    d.init([iter](long i) { return static_cast<double>(iter * 1000 + i); });
    g.scale(0.5);
    m.scale(-1.5);
    s[0] = static_cast<double>(iter);
    s[1] = 0.5 * static_cast<double>(iter);
  }

  /// One application checkpoint, left uncommitted: u goes through
  /// saveReadOnly, the rest through save().
  void save(AppResilientStore& store, long iter) {
    store.setIteration(iter);
    store.startNewSnapshot();
    store.save(rv);
    store.saveReadOnly(ru);
    store.save(rd);
    store.save(rg);
    store.save(rm);
    store.save(rs);
  }
  void checkpoint(AppResilientStore& store, long iter) {
    save(store, iter);
    store.commit();
  }

  [[nodiscard]] std::vector<const Recorded*> refillable() const {
    return {&rv, &rd, &rg, &rm, &rs};
  }

  /// Everything a restore writes, gathered on place 0.
  struct State {
    la::Vector v, u, d;
    la::DenseMatrix g, m;
    double s0 = 0.0, s1 = 0.0;
    bool operator==(const State&) const = default;
  };
  [[nodiscard]] State state() const {
    State out{la::Vector(v.size()), la::Vector(u.size()), d.local(),
              g.toDense(), m.toDense(), s[0], s[1]};
    v.copyTo(out.v);
    u.copyTo(out.u);
    return out;
  }

  /// Rebuilds every object over `pg` (same distribution), as an
  /// application's restore() does before the store's.
  void remake(const PlaceGroup& pg) {
    v.remake(pg);
    u.remake(pg);
    d.remake(pg);
    g.remakeSameDist(pg);
    m.remakeSameDist(pg);
    s.remake(pg);
  }

  DistVector v;
  DistVector u;  ///< read-only input
  DupVector d;
  DistBlockMatrix g;
  DistBlockMatrix m;
  SnapshottableScalars s;
  Recorded rv, ru, rd, rg, rm, rs;
};

class SnapshotRefillTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { initWorld(); }

  void initWorld() const {
    RuntimeConfig cfg;
    cfg.numPlaces = 6;
    cfg.resilientFinish = true;
    cfg.backend = GetParam();
    Runtime::init(cfg);
  }
};

// (a) Checkpoint n+2 refills checkpoint n's buffers: it takes over the
// very payload objects checkpoint n held in the retired slot (alive
// throughout, so not an address the allocator handed out again), with
// their data at the same address, while the committed checkpoint n+1
// holds its own.
TEST_P(SnapshotRefillTest, CheckpointTwoBackReusesTheBuffers) {
  for (const CheckpointMode mode :
       {CheckpointMode::ReadOnlyReuse, CheckpointMode::Full,
        CheckpointMode::Delta}) {
    SCOPED_TRACE(resilient::toString(mode));
    initWorld();
    Objects o(/*pin=*/false);
    AppResilientStore store;
    store.setMode(mode);
    std::vector<const Recorded*> objects = o.refillable();
    // Under Full, saveReadOnly saves fresh each time and refills as well.
    if (mode == CheckpointMode::Full) objects.push_back(&o.ru);
    for (std::size_t n = 0; n < 5; ++n) {
      // Checkpoint n-2, read while it still sits in the retired slot.
      std::vector<std::map<long, Payload>> retired;
      for (const Recorded* r : objects) {
        retired.push_back(n < 2 ? std::map<long, Payload>{}
                                : payloads(*r, n - 2));
      }
      o.mutate(static_cast<long>(n));
      o.save(store, static_cast<long>(n));
      for (std::size_t i = 0; i < objects.size(); ++i) {
        const Recorded* r = objects[i];
        ASSERT_EQ(r->count(), n + 1);
        EXPECT_EQ(r->made(n)->numCarried(), 0u);  // fresh entries only
        if (n < 2) continue;
        SCOPED_TRACE("checkpoint " + std::to_string(n));
        const auto now = payloads(*r, n);
        EXPECT_FALSE(now.empty());
        ASSERT_EQ(now.size(), retired[i].size());
        for (const auto& [key, payload] : now) {
          const Payload& before = retired[i].at(key);
          EXPECT_EQ(payload.value.lock(), before.value.lock()) << "key " << key;
          EXPECT_EQ(payload.data, before.data) << "key " << key;
        }
        for (const auto& [key, ptr] : addresses(*r, n - 1)) {
          EXPECT_NE(ptr, now.at(key).data) << "key " << key;
        }
        // The entries moved: the retired Snapshot gave them up.
        EXPECT_TRUE(r->made(n - 2)->keys().empty());
      }
      store.commit();
    }
    // And the refilled checkpoint restores what was saved.
    const Objects::State saved = o.state();
    o.mutate(99);
    store.restore();
    EXPECT_EQ(o.state(), saved);
  }
}

// (b) A restore after several refilled checkpoints — here through the
// backups, after a kill — is bit-identical to a restore from a store
// that never refills.
TEST_P(SnapshotRefillTest, RestoreMatchesAStoreThatNeverRefills) {
  struct Outcome {
    Objects::State saved, restored;
    bool reused = false;
  };
  const auto run = [this](bool pin) {
    initWorld();
    Objects o(pin);
    AppResilientStore store;
    store.setMode(CheckpointMode::ReadOnlyReuse);
    for (long iter = 1; iter <= 4; ++iter) {
      o.mutate(iter);
      o.checkpoint(store, iter);
    }
    o.mutate(5);
    const auto retired = addresses(o.rg, 2);
    o.save(store, 5);
    Outcome out;
    out.reused = addresses(o.rg, 4) == retired;
    store.commit();
    out.saved = o.state();
    o.mutate(6);
    Runtime::world().kill(2);
    o.remake(PlaceGroup({0, 1, 4, 3}));
    store.restore();
    out.restored = o.state();
    return out;
  };
  const Outcome refilled = run(/*pin=*/false);
  const Outcome never = run(/*pin=*/true);
  EXPECT_TRUE(refilled.reused);
  EXPECT_FALSE(never.reused);
  EXPECT_EQ(refilled.saved, never.saved);
  EXPECT_EQ(refilled.restored, refilled.saved);
  EXPECT_EQ(refilled.restored, never.restored);
}

// (c) A kill lands between save() and commit() after some payloads were
// refilled: the cancel leaves the committed slot intact, the restore
// succeeds, and so does the retry, which allocates afresh what the
// cancelled checkpoint had taken from the retired slot.
TEST_P(SnapshotRefillTest, KillAfterRefillBeforeCommitKeepsTheCommittedSlot) {
  Objects o(/*pin=*/false);
  AppResilientStore store;
  store.setMode(CheckpointMode::ReadOnlyReuse);
  for (long iter = 1; iter <= 3; ++iter) {
    o.mutate(iter);
    o.checkpoint(store, iter);
  }
  const Objects::State committed = o.state();
  const auto retiredV = addresses(o.rv, 1);
  const auto retiredG = addresses(o.rg, 1);

  o.mutate(4);
  store.setIteration(4);
  store.startNewSnapshot();
  store.save(o.rv);
  store.save(o.rg);
  EXPECT_EQ(addresses(o.rv, 3), retiredV);  // refilled from checkpoint 2
  EXPECT_EQ(addresses(o.rg, 3), retiredG);
  Runtime::world().kill(2);
  EXPECT_ANY_THROW(store.save(o.rm));  // the next collective sees the death
  store.cancelSnapshot();

  EXPECT_EQ(store.latestCommittedIteration(), 3);
  o.remake(PlaceGroup({0, 1, 4, 3}));
  store.restore();
  EXPECT_EQ(o.state(), committed);

  // The retry on the new group.
  o.save(store, 4);
  store.commit();
  const Objects::State saved = o.state();
  o.mutate(5);
  store.restore();
  EXPECT_EQ(o.state(), saved);
}

// A payload whose primary copy lives on another place than the one that
// now saves its key is allocated afresh, not refilled.
TEST_P(SnapshotRefillTest, PayloadOfAnotherPlaceIsNotRefilled) {
  Objects o(/*pin=*/false);
  AppResilientStore store;
  store.setMode(CheckpointMode::ReadOnlyReuse);
  const auto save = [&](long iter) {
    o.mutate(iter);
    store.setIteration(iter);
    store.startNewSnapshot();
    store.save(o.rv);
  };
  save(1);
  store.commit();
  save(2);
  store.commit();
  // Places 0 and 1 swap segments: keys 0 and 1 change saver.
  o.v.remake(PlaceGroup({1, 0, 2, 3}));
  store.restore();
  const auto retired = addresses(o.rv, 0);
  save(3);
  const auto now = addresses(o.rv, 2);
  EXPECT_NE(now.at(0), retired.at(0));
  EXPECT_NE(now.at(1), retired.at(1));
  EXPECT_EQ(now.at(2), retired.at(2));
  EXPECT_EQ(now.at(3), retired.at(3));
  store.commit();
}

// (d1) A Snapshot that saveReadOnly() shares between the retired and the
// committed slot is never refilled, even when the next checkpoint saves
// the same object fresh.
TEST_P(SnapshotRefillTest, SharedReadOnlySnapshotIsNeverWritten) {
  Objects o(/*pin=*/false);
  AppResilientStore store;
  store.setMode(CheckpointMode::ReadOnlyReuse);
  const auto readOnly = [&](long iter) {
    store.setIteration(iter);
    store.startNewSnapshot();
    store.saveReadOnly(o.rv);
    store.commit();
  };
  readOnly(1);
  readOnly(2);  // reused: slots 1 and 2 share one Snapshot
  ASSERT_EQ(o.rv.count(), 1u);
  const Objects::State original = o.state();
  const auto shared = addresses(o.rv, 0);

  o.mutate(3);
  store.setIteration(3);
  store.startNewSnapshot();
  store.save(o.rv);
  for (const auto& [key, ptr] : addresses(o.rv, 1)) {
    EXPECT_NE(ptr, shared.at(key)) << "key " << key;
  }
  store.cancelSnapshot();
  store.restore();
  EXPECT_EQ(o.state().v, original.v);
}

// (d2) A payload a delta-carried entry shares with the committed slot is
// never refilled.
TEST_P(SnapshotRefillTest, CarriedPayloadIsNeverWritten) {
  Objects o(/*pin=*/false);
  AppResilientStore store;
  store.setMode(CheckpointMode::Delta);
  const auto save = [&](long iter) {
    store.setIteration(iter);
    store.startNewSnapshot();
    store.save(o.rm);
    store.commit();
  };
  save(1);
  save(2);  // nothing changed: every block carried from checkpoint 1
  ASSERT_EQ(o.rm.made(1)->numCarried(), o.rm.made(1)->numEntries());
  const la::DenseMatrix committed = o.m.toDense();
  const auto carried = addresses(o.rm, 0);

  o.m.scale(3.0);
  store.setIteration(3);
  store.startNewSnapshot();
  store.save(o.rm);  // every block fresh; checkpoint 1 is the retired slot
  EXPECT_EQ(o.rm.made(2)->numCarried(), 0u);
  for (const auto& [key, ptr] : addresses(o.rm, 2)) {
    EXPECT_NE(ptr, carried.at(key)) << "key " << key;
  }
  store.cancelSnapshot();
  store.restore();
  EXPECT_EQ(o.m.toDense(), committed);
}

// (d3) A save through the codec refills nothing: every fresh save
// allocates, and the retired slot — encoded, or raw from before a switch
// to a lossy mode — keeps its bytes.
TEST_P(SnapshotRefillTest, EncodedSavesNeverWriteTheRetiredSlot) {
  struct History {
    CheckpointMode before, during;
  };
  for (const History h :
       {History{CheckpointMode::Lossy, CheckpointMode::Lossy},
        History{CheckpointMode::DeltaLossy, CheckpointMode::DeltaLossy},
        History{CheckpointMode::Full, CheckpointMode::Lossy}}) {
    SCOPED_TRACE(std::string(resilient::toString(h.before)) + " then " +
                 resilient::toString(h.during));
    initWorld();
    Objects o(/*pin=*/false);
    AppResilientStore store;
    store.setMode(h.before);
    store.setLossyConfig(resilient::LossyConfig{1e-6});
    const auto save = [&](long iter) {
      o.mutate(iter);
      store.setIteration(iter);
      store.startNewSnapshot();
      store.save(o.rv);
      store.save(o.rm);
    };
    save(1);
    const la::DenseMatrix first = o.m.toDense();
    store.commit();
    const std::size_t firstBytes = o.rm.made(0)->totalBytes();
    save(2);
    store.commit();
    store.setMode(h.during);
    save(3);  // checkpoint 1 is the retired slot while 3 is in progress
    const auto retired = o.rm.made(0);
    ASSERT_NE(retired, nullptr);
    EXPECT_EQ(retired->totalBytes(), firstBytes);
    DistBlockMatrix decoded = DistBlockMatrix::makeDense(
        40, 40, 2, 2, 2, 2, Objects::group());
    decoded.restoreSnapshot(*retired);  // first decode of encoded payloads
    const la::DenseMatrix got = decoded.toDense();
    for (long i = 0; i < got.rows(); ++i) {
      for (long j = 0; j < got.cols(); ++j) {
        EXPECT_LE(std::abs(got(i, j) - first(i, j)), 1e-6);
      }
    }
    store.commit();
  }
}

/// What the store reports about one checkpoint sequence.
struct Accounting {
  std::vector<std::uint64_t> stats;  ///< lastCheckpointStats per commit
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::string> spans;  ///< store spans, rendered
  bool operator==(const Accounting&) const = default;
};

// (e) The checkpoint stats, the snapshot.replica_bytes counter and the
// store spans do not depend on whether payloads were refilled. On the
// simulated backend the whole trace — times included — is identical.
TEST_P(SnapshotRefillTest, AccountingIsIdenticalWithoutRefill) {
  const bool simulated = GetParam() == Backend::Simulated;
  const auto run = [&](bool pin) {
    initWorld();
    obs::TraceSink sink;
    obs::SinkScope scope(&sink);
    Objects o(pin);
    AppResilientStore store;
    store.setMode(CheckpointMode::Delta);
    Accounting out;
    for (long iter = 1; iter <= 5; ++iter) {
      if (iter != 3) o.mutate(iter);  // checkpoint 3 carries everything
      o.checkpoint(store, iter);
      const auto& st = store.lastCheckpointStats();
      out.stats.insert(out.stats.end(),
                       {st.freshBytes, st.carriedBytes, st.freshEntries,
                        st.carriedEntries});
    }
    o.mutate(6);
    store.restore();
    for (const auto& [name, value] : sink.metrics().counters()) {
      if (simulated || name.rfind("snapshot.", 0) == 0 ||
          name.rfind("checkpoint.", 0) == 0 ||
          name.rfind("restore.", 0) == 0) {
        out.counters[name] = value;
      }
    }
    for (const obs::Span& span : sink.spans()) {
      if (!simulated && span.name.rfind("store.", 0) != 0) continue;
      std::string line = span.name + " it=" + std::to_string(span.iteration) +
                         " place=" + std::to_string(span.place) +
                         " bytes=" + std::to_string(span.bytes);
      if (simulated) {
        line += " t=" + std::to_string(span.startTime) + ".." +
                std::to_string(span.endTime);
      }
      for (const auto& [k, v] : span.args) line += " " + k + "=" + v;
      out.spans.push_back(line);
    }
    return out;
  };
  const Accounting refilled = run(/*pin=*/false);
  const Accounting never = run(/*pin=*/true);
  EXPECT_GT(refilled.counters.at("snapshot.replica_bytes"), 0u);
  EXPECT_FALSE(refilled.spans.empty());
  EXPECT_EQ(refilled.stats, never.stats);
  EXPECT_EQ(refilled.counters, never.counters);
  EXPECT_EQ(refilled.spans, never.spans);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SnapshotRefillTest,
    ::testing::Values(Backend::Simulated, Backend::Threads),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(apgas::toString(info.param));
    });

}  // namespace
}  // namespace rgml
