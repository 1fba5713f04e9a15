// A hand-driven stand-in for an engine's queues in flight-recorder and
// watchdog tests: the test moves each queue's progress counters directly,
// and source() reads them for a FlightRecorder, as the Threads backend's
// progress source reads its inbox and control-queue counters.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "obs/flight/flight_recorder.h"

namespace rgml_test {

class FakeQueues {
 public:
  using Snapshot = rgml::obs::flight::FlightRecorder::ProgressSnapshot;

  explicit FakeQueues(int places)
      : places_(static_cast<std::size_t>(places)) {}

  /// queue = place index or kCtrlQueue; queues out of range are ignored.
  void enqueue(int queue, long depthAfter) {
    std::lock_guard<std::mutex> lock(mu_);
    if (Snapshot* row = rowLocked(queue)) {
      ++row->enqueues;
      row->depth = depthAfter;
    }
  }
  void dequeue(int queue, long depthAfter) {
    std::lock_guard<std::mutex> lock(mu_);
    if (Snapshot* row = rowLocked(queue)) {
      ++row->dequeues;
      row->depth = depthAfter;
    }
  }
  /// The kill path: the place is marked dead and its queue drained.
  void kill(int place) {
    std::lock_guard<std::mutex> lock(mu_);
    if (Snapshot* row = rowLocked(place)) {
      row->dead = true;
      row->depth = 0;
    }
  }

  [[nodiscard]] rgml::obs::flight::FlightRecorder::ProgressSource source() {
    return [this](int queue) {
      std::lock_guard<std::mutex> lock(mu_);
      const Snapshot* row = rowLocked(queue);
      return row != nullptr ? *row : Snapshot{};
    };
  }

 private:
  Snapshot* rowLocked(int queue) {
    if (queue == rgml::obs::flight::kCtrlQueue) return &ctrl_;
    if (queue < 0 || static_cast<std::size_t>(queue) >= places_.size()) {
      return nullptr;
    }
    return &places_[static_cast<std::size_t>(queue)];
  }

  std::mutex mu_;
  std::vector<Snapshot> places_;
  Snapshot ctrl_;
};

}  // namespace rgml_test
