// The simulated engine (RuntimeConfig::backend == Simulated, the
// default): one host thread runs every place depth-first on per-place
// virtual clocks advanced by the CostModel. Deterministic; the golden
// oracle for every chaos scenario and for the Threads engine (see the
// substitution note in apgas/runtime.h and DESIGN.md §2).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <unordered_set>
#include <vector>

#include "apgas/runtime.h"

namespace rgml::apgas::sim {

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(const RuntimeConfig& config);

  [[nodiscard]] int numPlaces() const noexcept override {
    return static_cast<int>(clocks_.size());
  }
  [[nodiscard]] int numLivePlaces() const noexcept override {
    return numPlaces() - static_cast<int>(dead_.size());
  }
  [[nodiscard]] bool isDead(PlaceId p) const noexcept override {
    return dead_.contains(p);
  }
  [[nodiscard]] Place here() const override {
    return Place(hereStack_.back());
  }
  void finish(const std::function<void()>& body) override;
  void asyncAt(Place p, const std::function<void()>& body) override;
  void at(Place p, const std::function<void()>& body) override;
  [[nodiscard]] double clock(PlaceId p) const override {
    return clocks_.at(static_cast<std::size_t>(p));
  }
  void advance(double seconds) override;

 private:
  std::vector<PlaceId> startPlaces(int n) override;
  bool markDead(PlaceId p) override { return dead_.insert(p).second; }

  /// A same-place async: with one worker thread per place (the paper runs
  /// X10_NTHREADS=1), it only runs once the spawning task blocks at the
  /// enclosing finish, so its execution is deferred to the finish boundary.
  struct DeferredTask {
    PlaceId target = 0;
    double spawnTime = 0.0;
    std::function<void()> body;
  };

  struct FinishFrame {
    PlaceId home = 0;
    double maxChildEnd = 0.0;  ///< latest task end (+notification latency)
    long tasks = 0;            ///< tasks spawned under this finish
    std::vector<DeferredTask> deferred;
    std::vector<std::exception_ptr> exceptions;
  };

  /// Run one task body at `target` with start time `spawnTime`, recording
  /// its completion (or failure) in frame `idx`. Shared by asyncAt (remote
  /// tasks, run eagerly) and the finish boundary (deferred local tasks).
  void runTask(std::size_t idx, PlaceId target, double spawnTime,
               const std::function<void()>& body);

  /// Charge one resilient bookkeeping message sent at `sendTime`. Control
  /// messages serialise on place 0's *control processor* clock (ctrlClock_)
  /// — a separate logical processor from the place-0 worker, as in the
  /// real runtime where the communication thread handles finish
  /// bookkeeping. Returns the control clock after processing; the finish
  /// completion ack couples it back into the application's clock.
  double chargeBookkeeping(double sendTime);

  double ctrlClock_ = 0.0;  ///< place-0 bookkeeping processor (resilient)
  std::vector<double> clocks_;
  std::unordered_set<PlaceId> dead_;
  std::vector<PlaceId> hereStack_;
  std::vector<FinishFrame> finishStack_;
};

}  // namespace rgml::apgas::sim
