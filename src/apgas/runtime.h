// The APGAS runtime: places, async/finish/at, time, resilient finish
// bookkeeping, place failure, and per-place heaps. Runtime is the engine
// interface; Runtime::init builds one of two engines from
// RuntimeConfig::backend:
//
//   * sim::SimRuntime (Simulated, the default; src/apgas/sim/): one host
//     thread runs every place on virtual clocks. Deterministic; the golden
//     oracle for every chaos scenario.
//   * threads::ThreadsBackend (Threads; src/apgas/threads/): each place is
//     a dedicated worker thread with a real MPSC message inbox, real
//     finish termination detection, and wall-clock time.
//
// An engine implements the virtual methods below: the task model
// (finish/asyncAt/at/here), topology (numPlaces/numLivePlaces/isDead and
// the startPlaces/markDead/failQueued hooks) and time (clock/advance).
// Everything the engines share is written once, here: the world
// registry, heaps, kill listeners and the kill fan-out, the dispatch
// hook, the stats counters, and the trace accounting for kills, comms,
// data transfers and resilient-finish acks. A new engine is one more
// subclass and never keeps its own stats, kill or comm accounting.
//
// -------------------------------------------------------------------------
// Substitution note (see DESIGN.md §2)
//
// The paper runs on the X10 runtime: real OS processes ("places"), real
// sockets, and a resilient `finish` implementation whose bookkeeping
// messages funnel through place 0. The simulated engine substitutes a
// deterministic in-process simulation:
//
//   * Places are logical entities with private heaps (Runtime owns a
//     per-place map from handle id to object). Killing a place destroys its
//     heap, so lost data is *really* lost — restore code cannot cheat.
//   * Tasks execute depth-first on the host thread owning the world. GML's
//     operations are fork-join data-parallel (the paper runs one worker
//     thread per place, X10_NTHREADS=1), so this ordering is semantically
//     equivalent to the real schedule. Worlds are thread-local, so many
//     independent simulations can run concurrently, one per host thread.
//   * Each place carries a virtual clock. asyncAt/at/finish advance the
//     clocks using CostModel; computational kernels charge analytic flop
//     counts. Benchmarks report virtual time, which reproduces the paper's
//     *scaling shapes* deterministically on one core.
//   * In resilient mode, every finish/task control transition charges a
//     bookkeeping message that serialises on place 0's clock — the exact
//     mechanism the paper blames for the resilient-finish overhead.
//
// The Threads engine replaces the clocks with wall time and the
// depth-first schedule with true parallel execution, but keeps the same
// observable semantics (stats counters, exception classification, heap
// contents); backend_equivalence_test holds the two to that contract.
// -------------------------------------------------------------------------
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apgas/cost_model.h"
#include "apgas/exceptions.h"
#include "apgas/place.h"
#include "apgas/place_group.h"
#include "apgas/runtime_config.h"

namespace rgml::obs {
class TraceSink;
}

namespace rgml::obs::flight {
class FlightRecorder;
class StallWatchdog;
}  // namespace rgml::obs::flight

namespace rgml::apgas {

/// Aggregate counters for one run; used by tests (to assert message
/// complexity) and by the benchmark harness (ablation data). Identical
/// across backends for the same program — the cross-backend invariant
/// bench_backend and backend_equivalence_test assert.
struct RuntimeStats {
  long asyncsSpawned = 0;        ///< tasks spawned via async/asyncAt
  long finishes = 0;             ///< finish scopes entered
  long bookkeepingMsgs = 0;      ///< resilient-finish control messages
  long dataMsgs = 0;             ///< application data messages
  std::uint64_t bytesSent = 0;   ///< application payload bytes moved
  long placesKilled = 0;         ///< failures injected so far
};

class Runtime {
 public:
  /// (Re)initialise the calling thread's world from `config`: the one
  /// place that picks an engine. Destroys the thread's previous world;
  /// every test and benchmark starts with an init() call.
  ///
  /// Worlds are thread-local: each OS thread owns a private world
  /// (places, heaps, clocks, stats, kill listeners) with zero sharing
  /// between worlds, so independent scenarios can run on a thread pool
  /// without synchronisation. Use WorldGuard to scope a world to a block.
  /// (A Threads-backend world additionally owns its place worker threads,
  /// on which Runtime::world() resolves to that world.)
  static void init(const RuntimeConfig& config);

  /// Legacy spelling: simulated backend.
  static void init(int numPlaces, const CostModel& cm = CostModel{},
                   bool resilientFinish = false);

  /// The calling thread's world. Throws ApgasError (naming the thread) if
  /// this thread never initialised a world or its world was torn down.
  static Runtime& world();

  /// True while the calling thread has a live world.
  static bool initialized();

  /// Detach the calling thread's world (may be null), leaving the slot
  /// empty. Building block of WorldGuard; also lets a driver park its
  /// world across a scope that re-initialises.
  static std::unique_ptr<Runtime> detach();

  /// Install `world` as the calling thread's world (replacing any current
  /// one; null clears the slot).
  static void attach(std::unique_ptr<Runtime> world);

  virtual ~Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Which engine executes this world.
  [[nodiscard]] Backend backend() const noexcept { return backendKind_; }

  // ---- flight recorder (src/obs/flight/) -------------------------------
  /// The Threads engine's always-on flight recorder / stall watchdog.
  /// Null on the simulated backend (which is deterministic and offers
  /// nothing to record) or when RuntimeConfig::flightRecorder is off.
  [[nodiscard]] virtual obs::flight::FlightRecorder* flightRecorder()
      const noexcept {
    return nullptr;
  }
  [[nodiscard]] virtual obs::flight::StallWatchdog* stallWatchdog()
      const noexcept {
    return nullptr;
  }

  /// Forensic bundle (the obs/flight/forensic_dump.h JSON document:
  /// last-N events per thread, queue-depth series, watchdog verdicts).
  /// Empty string when no recorder is attached.
  [[nodiscard]] std::string flightDump() const;

  // ---- topology -------------------------------------------------------
  /// Total places ever created (live + dead); ids are 0..numPlaces()-1.
  [[nodiscard]] virtual int numPlaces() const noexcept = 0;

  /// Number of currently live places.
  [[nodiscard]] virtual int numLivePlaces() const noexcept = 0;

  [[nodiscard]] virtual bool isDead(PlaceId p) const noexcept = 0;

  /// Elastic X10: create `n` fresh places, returning their ids. A new
  /// place's clock starts at the current global maximum (it "joins now");
  /// on the Threads backend a fresh worker thread spins up per place.
  /// Only call quiescently (no tasks in flight).
  std::vector<PlaceId> addPlaces(int n);

  // ---- failure injection ----------------------------------------------
  /// Kill place `p` immediately: marks it dead, destroys its heap, fails
  /// whatever the engine had queued for it (the Threads backend poisons
  /// its inbox; a simulated place's clock simply freezes), and notifies
  /// kill listeners (e.g. snapshot stores, which must drop the copies that
  /// place held). Killing place 0 throws ApgasError: the paper's model
  /// assumes place zero is immortal. Thread-safe: concurrent kills
  /// serialise, and listener fanout runs outside the registration lock.
  void kill(PlaceId p);

  /// Registers a callback invoked from kill(p). Returns a token usable
  /// with removeKillListener. Thread-safe.
  std::uint64_t addKillListener(std::function<void(PlaceId)> fn);
  void removeKillListener(std::uint64_t token);

  /// Hook invoked before every asyncAt dispatch with the running dispatch
  /// count (1-based). FaultInjector uses this to kill a place mid-step.
  /// Thread-safe; on the Threads backend the hook runs on whichever
  /// thread spawns, so it must be safe to call concurrently.
  void setDispatchHook(std::function<void(long)> hook);

  /// The running asyncAt dispatch count (1-based, monotonic since init).
  /// FaultInjector converts relative kill offsets into absolute counts
  /// against this value; the chaos harness reads it at iteration
  /// boundaries to enumerate mid-step kill points.
  [[nodiscard]] long dispatchCount() const noexcept;

  // ---- task model -------------------------------------------------------
  /// The place the current task is executing on.
  [[nodiscard]] virtual Place here() const = 0;

  /// Runs `body`, waiting for all transitively spawned tasks. Rethrows a
  /// single collected exception as-is; aggregates several into
  /// MultipleExceptions. In resilient mode charges the place-0 bookkeeping
  /// protocol (finish registration, per-task spawn/termination messages,
  /// final completion ack) — simulated on place 0's control clock, or as
  /// real messages through the Threads backend's control thread.
  virtual void finish(const std::function<void()>& body) = 0;

  /// Spawns `body` as a task on place `p` within the innermost finish. If
  /// `p` is dead, records a DeadPlaceException in the finish instead of
  /// running. If `p` dies while the body runs, the body's effects on p's
  /// heap are destroyed and a DeadPlaceException is recorded.
  virtual void asyncAt(Place p, const std::function<void()>& body) = 0;

  /// Local async: asyncAt(here()).
  void async(const std::function<void()>& body) { asyncAt(here(), body); }

  /// Synchronous place shift: runs `body` at `p`, blocking the current
  /// task. Throws DeadPlaceException immediately if `p` is dead.
  virtual void at(Place p, const std::function<void()>& body) = 0;

  /// Synchronous place shift with a result.
  template <typename T>
  T atReturning(Place p, const std::function<T()>& body) {
    T result{};
    at(p, [&] { result = body(); });
    return result;
  }

  // ---- time -------------------------------------------------------------
  /// Simulated backend: place p's virtual clock. Threads backend: wall
  /// seconds since world construction (one global clock).
  [[nodiscard]] virtual double clock(PlaceId p) const = 0;

  /// Time as observed by the main task's home (place 0): virtual seconds
  /// (simulated) or wall seconds since construction (Threads).
  [[nodiscard]] double time() const { return clock(0); }

  /// Explicitly advance the current place's clock (tests, custom costs).
  /// No-op on the Threads backend: wall time advances itself. Every
  /// charge below is an advance by its CostModel time.
  virtual void advance(double seconds) = 0;

  /// Charge dense compute work to the current place's clock.
  void chargeDenseFlops(double flops) {
    advance(cm_.denseComputeTime(flops));
  }
  /// Charge sparse compute work to the current place's clock.
  void chargeSparseFlops(double flops) {
    advance(cm_.sparseComputeTime(flops));
  }
  /// Charge a local memory copy to the current place's clock.
  void chargeLocalCopy(std::uint64_t bytes) { advance(cm_.copyTime(bytes)); }
  /// Charge a snapshot serialisation/deep copy to the current place.
  void chargeSerialization(std::uint64_t bytes) {
    advance(cm_.serializeTime(bytes));
  }
  /// Charge a data message of `bytes` from the current place to `to`
  /// (advances the *current* place's clock by the full transfer time;
  /// callers model synchronous pulls/pushes). On the Threads backend no
  /// clock exists — the real copy is the cost — but the message/byte
  /// accounting and comm span are identical.
  void chargeComm(Place to, std::uint64_t bytes);
  /// Count one data message of `bytes` in the stats without advancing any
  /// clock. For collectives that model their critical-path time separately
  /// (e.g. the binomial tree broadcast) but must still account every
  /// payload transfer exactly once.
  void noteDataTransfer(std::uint64_t bytes);

  [[nodiscard]] const CostModel& costModel() const noexcept { return cm_; }
  [[nodiscard]] bool resilientFinish() const noexcept { return resilient_; }
  /// Toggle resilient finish (benchmarks flip this between sweeps; only
  /// call quiescently — never while a finish is in flight).
  void setResilientFinish(bool on) noexcept { resilient_ = on; }

  /// Stats are a member of the world, not a process-global: Runtime::init
  /// always starts them at zero, and detach()/attach() carry them with
  /// the parked world (a resumed world keeps counting; a *fresh* world
  /// never inherits another run's dataMsgs/bytesSent). Bench rows and
  /// sweep scenarios each init their own world, so per-row numbers can
  /// never be inflated by a predecessor (world_isolation_test guards
  /// this).
  /// Returned by value so concurrent readers never share a snapshot
  /// buffer (the counters are atomics that foreign threads may read).
  [[nodiscard]] RuntimeStats stats() const noexcept;
  void resetStats();

  // ---- per-place heaps (backing store for PLH / GlobalRef) -------------
  [[nodiscard]] std::uint64_t allocHandleId() {
    return nextHandle_.fetch_add(1, std::memory_order_relaxed);
  }
  void heapPut(PlaceId p, std::uint64_t key, std::shared_ptr<void> obj);
  [[nodiscard]] std::shared_ptr<void> heapGet(PlaceId p,
                                              std::uint64_t key) const;
  void heapErase(PlaceId p, std::uint64_t key);
  /// Erase `key` from every place's heap (PlaceLocalHandle::destroy).
  void heapEraseAll(std::uint64_t key);

 protected:
  explicit Runtime(const RuntimeConfig& config);

  // ---- engine hooks -----------------------------------------------------
  /// Create `n` places numbered from numPlaces() and return their ids.
  /// addPlaces has already grown the heap table for them.
  virtual std::vector<PlaceId> startPlaces(int n) = 0;
  /// First step of kill(p), under the kill lock: mark p dead. Returns
  /// false if it already was.
  virtual bool markDead(PlaceId p) = 0;
  /// Step after the heap wipe: fail the work the engine has queued for
  /// p. The simulator queues nothing.
  virtual void failQueued(PlaceId /*p*/) {}
  /// The tag the shared trace accounting stamps on its spans: -1 (the
  /// simulator's, stable across machines) or the emitting OS thread's.
  [[nodiscard]] virtual int spanTid() const noexcept { return -1; }

  // ---- shared accounting for the engines --------------------------------
  /// The RuntimeStats counters, relaxed atomics: foreign threads read
  /// them while place threads count. Engines count finishes and
  /// bookkeeping messages; everything else is counted here.
  struct Counters {
    std::atomic<long> asyncsSpawned{0};
    std::atomic<long> finishes{0};
    std::atomic<long> bookkeepingMsgs{0};
    std::atomic<long> dataMsgs{0};
    std::atomic<std::uint64_t> bytesSent{0};
    std::atomic<long> placesKilled{0};
  };
  static void count(std::atomic<long>& counter) noexcept {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  Counters counters_;

  /// Count one asyncAt dispatch, invoke the dispatch hook (a copy, so the
  /// hook may disarm itself), then count the spawned task. Every engine's
  /// asyncAt calls this first.
  void noteDispatch();

  /// Trace one closed resilient finish whose place-0 ack kept `home`
  /// blocked from `before` to `after`: the finish.count and
  /// finish.ack_wait_seconds metrics and the finish.ack span.
  void noteFinishAck(PlaceId home, long tasks, double before, double after);

  /// Rethrow a finish's collected exceptions: one as-is, several as
  /// MultipleExceptions, none not at all.
  static void throwCollected(std::vector<std::exception_ptr> errors);

  /// Engine worker threads resolve Runtime::world() through this.
  static void setBorrowed(Runtime* world) noexcept;

 private:
  /// Destroy place p's heap (kill path).
  void wipeHeap(PlaceId p);
  /// Count one data message of `bytes`, in the stats and, if `sink` is
  /// non-null, in its comms metrics.
  void countDataMsg(obs::TraceSink* sink, std::uint64_t bytes);

  CostModel cm_;
  Backend backendKind_ = Backend::Simulated;
  bool resilient_ = false;

  std::atomic<std::uint64_t> nextHandle_{1};
  /// Guards heaps_ structure and entries; only contended on the Threads
  /// backend (the simulated world is single-threaded).
  mutable std::mutex heapMutex_;
  std::vector<std::unordered_map<std::uint64_t, std::shared_ptr<void>>>
      heaps_;

  std::mutex listenerMutex_;  ///< guards killListeners_/nextListener_
  std::uint64_t nextListener_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(PlaceId)>>
      killListeners_;
  std::mutex killMutex_;  ///< serialises concurrent kill() fanouts
  std::mutex hookMutex_;  ///< guards dispatchHook_
  std::function<void(long)> dispatchHook_;
  std::atomic<long> dispatchCount_{0};

  static thread_local std::unique_ptr<Runtime> instance_;
  static thread_local Runtime* borrowed_;
};

/// RAII scope for a thread-local world: parks the calling thread's
/// current world (if any), initialises a fresh one, and restores the
/// previous world on destruction. A worker thread wraps each unit of
/// work in a WorldGuard so private heaps, clocks, fault hooks and stats
/// never leak between jobs — and so an enclosing driver's world survives.
class WorldGuard {
 public:
  explicit WorldGuard(int numPlaces, const CostModel& cm = CostModel{},
                      bool resilientFinish = false)
      : previous_(Runtime::detach()) {
    Runtime::init(numPlaces, cm, resilientFinish);
  }

  explicit WorldGuard(const RuntimeConfig& config)
      : previous_(Runtime::detach()) {
    Runtime::init(config);
  }

  /// Park the current world without initialising a new one; the scope
  /// starts with no world (Runtime::init may be called inside it).
  WorldGuard() : previous_(Runtime::detach()) {}

  WorldGuard(const WorldGuard&) = delete;
  WorldGuard& operator=(const WorldGuard&) = delete;

  ~WorldGuard() { Runtime::attach(std::move(previous_)); }

 private:
  std::unique_ptr<Runtime> previous_;
};

// ---- X10-flavoured free functions ---------------------------------------

inline Place here() { return Runtime::world().here(); }

inline void finish(const std::function<void()>& body) {
  Runtime::world().finish(body);
}

inline void async(const std::function<void()>& body) {
  Runtime::world().async(body);
}

inline void asyncAt(Place p, const std::function<void()>& body) {
  Runtime::world().asyncAt(p, body);
}

inline void at(Place p, const std::function<void()>& body) {
  Runtime::world().at(p, body);
}

template <typename T>
T atReturning(Place p, std::function<T()> body) {
  return Runtime::world().atReturning<T>(p, std::move(body));
}

/// X10's `ateach`: finish { for (p in pg) asyncAt(p) body(p); }.
/// The workhorse of every GML collective operation.
inline void ateach(const PlaceGroup& pg,
                   const std::function<void(Place)>& body) {
  finish([&] {
    for (PlaceId id : pg) {
      asyncAt(Place(id), [&, id] { body(Place(id)); });
    }
  });
}

inline bool Place::isDead() const { return Runtime::world().isDead(id_); }

}  // namespace rgml::apgas
