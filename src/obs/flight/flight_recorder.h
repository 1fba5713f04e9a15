// Always-on flight recorder for the real-threads APGAS backend.
//
// The span/metrics tracer (obs/trace_sink.h) answers "what did this run
// do" — but it is opt-in per scenario, allocates per span, and loses its
// tail when a run hangs or is torn down mid-flight. The flight recorder
// answers the forensic question instead: *where was every thread when
// this run stalled, diverged or died*. It is cheap enough to leave on
// for every Threads-backend world (RuntimeConfig::flightRecorder, on by
// default; bench_flight proves the overhead budget of <= 5%).
//
// Design:
//
//   * One fixed-size ring of events per OS thread ("lane"). Each lane
//     has exactly one producer — the owning thread — so recording is a
//     wait-free seqlock write with no CAS and no allocation. Foreign
//     threads (e.g. an external kill() caller) auto-register their own
//     "ext*" lane on first record, preserving the single-producer
//     invariant instead of violating it.
//   * Readers (the stall watchdog, the forensic dump) take validated
//     snapshots concurrently with writers: every slot carries a seqlock
//     stamp (2i+1 while slot i is being written, 2i+2 when complete);
//     a reader accepts a slot only if the stamp reads the same expected
//     even value before and after copying the payload. Slots hold only
//     std::atomic fields, so torn reads are impossible and TSan sees a
//     clean (if racy-by-design) protocol. Overwritten slots are simply
//     dropped from the snapshot — the ring always yields the validated
//     most-recent suffix.
//   * Per-queue progress counters (enqueues / dequeues / depth / dead)
//     for every place inbox plus the resilient-finish control queue.
//     These are what the watchdog samples: a stall is "no dequeue
//     progress while the queue is non-empty", detected from the
//     counters, never from wall-clock heuristics. The engine that owns
//     the queues counts them under the queue locks it takes anyway and
//     hands the recorder a progress source that reads them: counters of
//     the recorder's own would cost every message a shared cache line.
//
// Timestamps are supplied by the caller (the backend passes its wall
// clock; tests pass synthetic values), so the recorder itself introduces
// no hidden nondeterminism — given deterministic events, the forensic
// dump is byte-identical regardless of how many jobs ran around it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace rgml::obs::flight {

enum class EventKind : int {
  Enqueue = 0,   ///< task message pushed into a place inbox
  Dequeue,       ///< task message popped (value = queue latency, seconds)
  InboxWait,     ///< blocked on the inbox cv (value = blocked seconds)
  AckWaitBegin,  ///< resilient finish close began: the home starts waiting
                 ///< for task terminations + the control-thread ack
                 ///< (depth = tasks spawned so far)
  AckWaitEnd,    ///< finish fully closed (value = close duration in
                 ///< seconds since AckWaitBegin, depth = total tasks)
  Kill,          ///< place marked dead
  HeapWipe,      ///< victim's heap destroyed
  Poison,        ///< inbox poisoned (depth = orphaned messages)
};

[[nodiscard]] const char* toString(EventKind kind);
/// Parses the toString spelling; false for anything else.
[[nodiscard]] bool parseEventKind(const std::string& name, EventKind& out);

struct Event {
  double t = 0.0;      ///< caller-supplied timestamp (seconds)
  double value = 0.0;  ///< kind-specific duration/latency (seconds)
  EventKind kind = EventKind::Enqueue;
  int queue = 0;       ///< place index, or kCtrlQueue for the ctrl queue
  long depth = 0;      ///< queue depth after the operation (kind-specific)
};

/// The control queue's index in events and progress counters.
inline constexpr int kCtrlQueue = -1;

/// A queue's display name: "p<index>" for a place inbox (also the label
/// of that place's worker lane), "ctrl" for the control queue.
[[nodiscard]] std::string queueName(int queue);

/// Fixed-capacity single-producer ring with seqlock-validated concurrent
/// snapshots. The capacity is rounded up to a power of two.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Record one event. Single producer only (the owning thread).
  void record(const Event& e) noexcept;

  /// Validated copy of the retained suffix, oldest first. Safe to call
  /// concurrently with record(); slots overwritten or in flight during
  /// the copy are dropped.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Total events ever recorded (recorded() - capacity() of them may
  /// have been overwritten).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<double> t{0.0};
    std::atomic<double> value{0.0};
    std::atomic<int> kind{0};
    std::atomic<int> queue{0};
    std::atomic<long> depth{0};
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

/// Per-world recorder: one lane per thread, plus a view of the progress
/// of every place inbox and the control queue.
class FlightRecorder {
 public:
  struct LaneSnapshot {
    std::string label;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;  ///< recorded - retained (ring overwrote)
    std::vector<Event> events;
  };

  struct ProgressSnapshot {
    std::uint64_t enqueues = 0;
    std::uint64_t dequeues = 0;
    long depth = 0;
    bool dead = false;
  };

  /// Reads one queue's progress (queue = place index or kCtrlQueue;
  /// depth = messages queued now) from the engine that owns the queues;
  /// queues it does not know read as all-zero. Called from the watchdog
  /// sampler and from dumps, concurrently with the engine's own threads.
  using ProgressSource = std::function<ProgressSnapshot(int queue)>;

  FlightRecorder(int places, std::size_t ringCapacity,
                 ProgressSource progress);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Register a lane for the calling thread and make it the thread's
  /// current lane for this recorder. Workers bind "p<i>" (sortKey i),
  /// the control thread "ctrl"; unbound threads that record are given an
  /// "ext*" lane automatically.
  void bindCurrentThread(const std::string& label, int sortKey);

  /// Record into the calling thread's lane (auto-binding if needed).
  void record(const Event& e);

  [[nodiscard]] int places() const noexcept {
    return places_.load(std::memory_order_acquire);
  }
  /// Cover elastically added places in the watchdog and the dump.
  void addPlaces(int n) noexcept;

  [[nodiscard]] ProgressSnapshot progress(int queue) const {
    return progress_(queue);
  }

  [[nodiscard]] std::size_t ringCapacity() const noexcept {
    return ringCapacity_;
  }

  /// Validated snapshot of every lane, ordered by (sortKey, label) so
  /// the forensic dump is independent of thread registration races.
  [[nodiscard]] std::vector<LaneSnapshot> snapshotLanes() const;

 private:
  struct Lane {
    std::string label;
    int sortKey = 0;
    FlightRing ring;
    Lane(std::string l, int key, std::size_t cap)
        : label(std::move(l)), sortKey(key), ring(cap) {}
  };

  const std::uint64_t id_;
  const std::size_t ringCapacity_;
  const ProgressSource progress_;
  std::atomic<int> places_;
  /// Guards the structure of lanes_ (growth); a lane's ring is read
  /// lock-free afterwards. The deque keeps lane addresses stable.
  mutable std::mutex mu_;
  std::deque<Lane> lanes_;
};

}  // namespace rgml::obs::flight
