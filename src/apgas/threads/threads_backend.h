// The real-threads APGAS engine (RuntimeConfig::backend == Threads).
//
// Where the simulated engine (src/apgas/sim/) runs every place on one
// host thread with virtual clocks, this engine gives each place a
// dedicated OS worker thread and a real MPSC inbox of serialized
// closures, modelled on GASPI-style async one-sided communication with
// explicit failure notification:
//
//   * asyncAt(p) enqueues the closure into p's inbox; p's worker pops and
//     runs it. A same-place async goes through the spawner's own inbox,
//     so it runs only once the spawner blocks — the same deferred-to-the-
//     finish-boundary order the simulator (and X10 with one worker per
//     place) produces.
//   * finish uses real termination detection: a per-finish atomic task
//     counter plus condition-variable wakeups. A thread blocked in finish
//     (or at) cooperatively drains its own place's inbox, so nested
//     place-shift chains cannot deadlock.
//   * In resilient mode every finish/task control transition enqueues a
//     bookkeeping message to a single control thread (the stand-in for
//     the place-0 finish bookkeeper), and finish completion blocks on a
//     real ack through that queue — the paper's place-0 serialisation
//     bottleneck, now measured in wall-clock (finish.ack_wait_seconds).
//   * kill(p) = mark dead, wipe the heap, then poison-and-drain p's
//     inbox: queued tasks complete exceptionally with DeadPlaceException
//     and p's worker exits. Runtime::kill drives those steps and fans the
//     failure out to registered kill listeners.
//
// Like every engine it subclasses Runtime, which keeps the heaps, stats
// counters and the kill/comm/finish-ack trace accounting; this file holds
// only what is particular to threads.
//
// Time is wall-clock (seconds since world construction) and spans carry
// real OS thread tags; nothing about timing is deterministic. Everything
// about *semantics* (stats counters, exception classification, heap
// contents) is expected to match the simulator — backend_equivalence_test
// and bench_backend assert exactly that.
//
// Threading contract: application code (finish/asyncAt/at) may only run
// on the world-owning thread (which doubles as place 0's worker) or on
// the engine's own place threads. Foreign threads may call kill(),
// add/removeKillListener() and the stats accessors — kill_race_test
// hammers precisely that surface.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "apgas/runtime.h"

namespace rgml::obs::flight {
enum class EventKind : int;
}  // namespace rgml::obs::flight

namespace rgml::apgas::threads {

class ThreadsBackend final : public Runtime {
 public:
  /// Spawns worker threads for places 1..numPlaces-1 (the constructing
  /// thread serves place 0) plus the control thread — and, unless
  /// config.flightRecorder is off, the always-on flight recorder with
  /// its stall-watchdog sampler thread.
  explicit ThreadsBackend(const RuntimeConfig& config);
  ~ThreadsBackend() override;

  ThreadsBackend(const ThreadsBackend&) = delete;
  ThreadsBackend& operator=(const ThreadsBackend&) = delete;

  [[nodiscard]] obs::flight::FlightRecorder* flightRecorder()
      const noexcept override {
    return flight_.get();
  }
  [[nodiscard]] obs::flight::StallWatchdog* stallWatchdog()
      const noexcept override {
    return watchdog_.get();
  }

  [[nodiscard]] int numPlaces() const noexcept override {
    return numPlaces_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int numLivePlaces() const noexcept override;
  [[nodiscard]] bool isDead(PlaceId p) const noexcept override;
  [[nodiscard]] Place here() const override;

  void finish(const std::function<void()>& body) override;
  void asyncAt(Place p, const std::function<void()>& body) override;
  void at(Place p, const std::function<void()>& body) override;

  /// Wall-clock seconds since world construction, for every place.
  [[nodiscard]] double clock(PlaceId /*p*/) const override { return now(); }
  void advance(double /*seconds*/) override {}  // wall time advances itself

 private:
  std::vector<PlaceId> startPlaces(int n) override;
  bool markDead(PlaceId p) override;
  /// Poisons p's inbox: queued tasks fail with DeadPlaceException and
  /// p's worker exits.
  void failQueued(PlaceId p) override;
  [[nodiscard]] int spanTid() const noexcept override;

  struct FinishState {
    PlaceId home = 0;
    std::mutex mu;
    long pending = 0;  ///< spawned, not yet completed
    long tasks = 0;    ///< total spawned (ack span annotation)
    std::vector<std::exception_ptr> errors;
  };

  /// One synchronous at() shift in flight.
  struct AtState {
    PlaceId origin = 0;
    std::exception_ptr error;          // written before done is released
    std::atomic<bool> done{false};
  };

  struct TaskMsg {
    std::function<void()> body;
    std::shared_ptr<FinishState> fs;   // governing finish (null: bare at)
    std::shared_ptr<AtState> at;       // non-null for at() shifts
    obs::TraceSink* sink = nullptr;    // spawner's sink, installed to run
    PlaceId target = 0;
    double enqueuedAt = 0.0;  // flight recorder: dequeue-latency origin
  };

  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<TaskMsg> q;
    std::uint64_t epoch = 0;  ///< bumps on push/poison/wake
    bool poisoned = false;
    /// Progress for the flight recorder's watchdog, counted under mu.
    std::uint64_t enqueues = 0;
    std::uint64_t dequeues = 0;
  };

  struct PlaceState {
    Inbox inbox;
    std::atomic<bool> dead{false};
    std::thread worker;  // default-constructed for place 0 (the owner)
  };

  struct AckWaiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  struct CtrlMsg {
    enum Kind { Register, Spawn, Terminate, Ack } kind = Register;
    AckWaiter* waiter = nullptr;
  };

  struct ThreadCtx;
  [[nodiscard]] ThreadCtx& ctx() const;
  /// Wall-clock seconds since world construction.
  [[nodiscard]] double now() const noexcept;

  [[nodiscard]] PlaceState& place(PlaceId p) const;
  /// Enqueue into p's inbox; false if p is dead/poisoned.
  bool push(PlaceId p, TaskMsg msg);
  static void wake(Inbox& in);
  /// Pop-and-execute one message from `in`; false if it was empty.
  bool drainOne(Inbox& in);
  void execute(TaskMsg& msg);
  static void taskDone(FinishState& fs, Inbox& homeInbox);
  /// The one blocking wait, behind finish (no pending tasks) and at (the
  /// shift completed): drain own inbox until `done()` holds, sleeping on
  /// the inbox cv (an InboxWait flight event) while it is empty.
  template <class Done>
  void waitUntil(Inbox& own, const Done& done);

  void ctrlSend(CtrlMsg::Kind kind, AckWaiter* waiter = nullptr);
  void ctrlLoop();
  void workerLoop(PlaceId p);
  void startWorker(PlaceId p);

  /// Record one flight event stamped with the caller-supplied timestamp
  /// (callers on hot paths already hold a now() value — reusing it keeps
  /// the per-message cost to one clock read). Callers guard on flight_
  /// so the disabled path costs a single branch.
  void flightEvent(obs::flight::EventKind kind, int queue, long depth,
                   double value, double t) const;

  const std::uint64_t engineId_;
  const std::chrono::steady_clock::time_point t0_;
  std::atomic<int> numPlaces_{0};
  /// deque: PlaceState holds a mutex/cv/thread and must never move;
  /// structural access (growth, indexing) is guarded by placesMutex_.
  mutable std::mutex placesMutex_;
  mutable std::deque<PlaceState> places_;

  /// Always-on observability (null when disabled). watchdog_ references
  /// *flight_, so it is declared after it (destroyed first); the
  /// destructor additionally stops the sampler before joining workers.
  std::unique_ptr<obs::flight::FlightRecorder> flight_;
  std::unique_ptr<obs::flight::StallWatchdog> watchdog_;

  std::mutex ctrlMu_;
  std::condition_variable ctrlCv_;
  std::deque<CtrlMsg> ctrlQ_;
  std::uint64_t ctrlEnqueues_ = 0;  ///< under ctrlMu_
  std::uint64_t ctrlDequeues_ = 0;
  bool ctrlStop_ = false;
  std::thread ctrlThread_;

  std::atomic<bool> shutdown_{false};
};

}  // namespace rgml::apgas::threads
