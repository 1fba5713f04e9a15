#include "obs/flight/flight_recorder.h"

#include <algorithm>

#include "obs/trace_sink.h"

namespace rgml::obs::flight {

const char* toString(EventKind kind) {
  switch (kind) {
    case EventKind::Enqueue:
      return "enqueue";
    case EventKind::Dequeue:
      return "dequeue";
    case EventKind::InboxWait:
      return "inbox_wait";
    case EventKind::AckWaitBegin:
      return "ack_wait_begin";
    case EventKind::AckWaitEnd:
      return "ack_wait_end";
    case EventKind::Kill:
      return "kill";
    case EventKind::HeapWipe:
      return "heap_wipe";
    case EventKind::Poison:
      return "poison";
  }
  return "unknown";
}

bool parseEventKind(const std::string& name, EventKind& out) {
  for (int k = static_cast<int>(EventKind::Enqueue);
       k <= static_cast<int>(EventKind::Poison); ++k) {
    if (name == toString(static_cast<EventKind>(k))) {
      out = static_cast<EventKind>(k);
      return true;
    }
  }
  return false;
}

std::string queueName(int queue) {
  if (queue == kCtrlQueue) return "ctrl";
  // Appended, not "p" + std::to_string(queue): GCC 12 at -O3 reports a
  // false -Wrestrict on that operator+.
  std::string name = "p";
  name += std::to_string(queue);
  return name;
}

// ---- FlightRing -----------------------------------------------------------

namespace {
std::size_t roundUpPow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}
}  // namespace

FlightRing::FlightRing(std::size_t capacity)
    : slots_(roundUpPow2(capacity == 0 ? 1 : capacity)),
      mask_(slots_.size() - 1) {}

void FlightRing::record(const Event& e) noexcept {
  const std::uint64_t i = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[static_cast<std::size_t>(i & mask_)];
  // Seqlock write: odd stamp while in flight, unique even stamp when
  // complete. Each payload store is a release, so a reader that acquires
  // any payload field also sees the odd begin stamp stored before it;
  // the release end stamp orders the payload before it. (No fences:
  // ThreadSanitizer does not model them. On x86 every one of these
  // stores is a plain move.)
  s.stamp.store(2 * i + 1, std::memory_order_relaxed);
  s.t.store(e.t, std::memory_order_release);
  s.value.store(e.value, std::memory_order_release);
  s.kind.store(static_cast<int>(e.kind), std::memory_order_release);
  s.queue.store(e.queue, std::memory_order_release);
  s.depth.store(e.depth, std::memory_order_release);
  s.stamp.store(2 * i + 2, std::memory_order_release);
  head_.store(i + 1, std::memory_order_release);
}

std::vector<Event> FlightRing::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const auto cap = static_cast<std::uint64_t>(slots_.size());
  const std::uint64_t lo = head > cap ? head - cap : 0;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(head - lo));
  for (std::uint64_t i = lo; i < head; ++i) {
    const Slot& s = slots_[static_cast<std::size_t>(i & mask_)];
    // Stamps are unique per logical index (2i+2), so a slot the writer
    // has lapped reads as a *different* even value and is dropped — no
    // ABA within a uint64 of events.
    const std::uint64_t expected = 2 * i + 2;
    if (s.stamp.load(std::memory_order_acquire) != expected) continue;
    // Acquire payload loads: one that reads a newer writer's field also
    // sees its odd stamp, and keeps the re-check below after it, so a
    // torn read fails the re-check.
    Event e;
    e.t = s.t.load(std::memory_order_acquire);
    e.value = s.value.load(std::memory_order_acquire);
    e.kind = static_cast<EventKind>(s.kind.load(std::memory_order_acquire));
    e.queue = s.queue.load(std::memory_order_acquire);
    e.depth = s.depth.load(std::memory_order_acquire);
    if (s.stamp.load(std::memory_order_relaxed) != expected) continue;
    out.push_back(e);
  }
  return out;
}

// ---- FlightRecorder -------------------------------------------------------

namespace {
std::atomic<std::uint64_t> nextRecorderId{1};

/// The calling thread's current lane, keyed by recorder id: a thread's
/// cached lane belongs to exactly one recorder and resets on mismatch,
/// so back-to-back worlds on one thread never cross lanes (the same
/// generation-counter pattern as the backend's ThreadCtx).
struct TlsLaneRef {
  std::uint64_t recorderId = 0;
  void* lane = nullptr;
};
thread_local TlsLaneRef tlsLane;
}  // namespace

FlightRecorder::FlightRecorder(int places, std::size_t ringCapacity,
                               ProgressSource progress)
    : id_(nextRecorderId.fetch_add(1, std::memory_order_relaxed)),
      ringCapacity_(ringCapacity),
      progress_(std::move(progress)),
      places_(places) {}

void FlightRecorder::bindCurrentThread(const std::string& label,
                                       int sortKey) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.emplace_back(label, sortKey, ringCapacity_);
  tlsLane.recorderId = id_;
  tlsLane.lane = &lanes_.back();
}

void FlightRecorder::record(const Event& e) {
  if (tlsLane.recorderId != id_) {
    // A thread the backend never bound (e.g. an external kill() caller):
    // give it its own lane so every ring keeps exactly one producer.
    bindCurrentThread("ext" + std::to_string(osThreadTag()),
                      1 << 21);
  }
  static_cast<Lane*>(tlsLane.lane)->ring.record(e);
}

void FlightRecorder::addPlaces(int n) noexcept {
  places_.fetch_add(n, std::memory_order_acq_rel);
}

std::vector<FlightRecorder::LaneSnapshot> FlightRecorder::snapshotLanes()
    const {
  // Collect stable lane pointers under the structural lock, then snapshot
  // outside it: rings are safe to read concurrently with their producers.
  std::vector<const Lane*> lanes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lanes.reserve(lanes_.size());
    for (const Lane& lane : lanes_) lanes.push_back(&lane);
  }
  std::sort(lanes.begin(), lanes.end(), [](const Lane* a, const Lane* b) {
    if (a->sortKey != b->sortKey) return a->sortKey < b->sortKey;
    return a->label < b->label;
  });
  std::vector<LaneSnapshot> out;
  out.reserve(lanes.size());
  for (const Lane* lane : lanes) {
    LaneSnapshot snap;
    snap.label = lane->label;
    snap.events = lane->ring.snapshot();
    snap.recorded = lane->ring.recorded();
    snap.dropped = snap.recorded - snap.events.size();
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace rgml::obs::flight
