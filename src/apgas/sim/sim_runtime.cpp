#include "apgas/sim/sim_runtime.h"

#include <algorithm>

namespace rgml::apgas::sim {

namespace {
/// Modelled size of a task/control envelope (headers, closure id, ...).
constexpr std::uint64_t kEnvelopeBytes = 64;
/// Modelled size of a resilient-finish control message.
constexpr std::uint64_t kCtrlBytes = 48;
}  // namespace

SimRuntime::SimRuntime(const RuntimeConfig& config)
    : Runtime(config),
      clocks_(static_cast<std::size_t>(config.numPlaces), 0.0) {
  hereStack_.push_back(0);
}

std::vector<PlaceId> SimRuntime::startPlaces(int n) {
  // Joining places start "now": at the maximum clock over live places, as a
  // real dynamically-created process would.
  double now = 0.0;
  for (int p = 0; p < numPlaces(); ++p) {
    if (!isDead(p)) now = std::max(now, clocks_[static_cast<std::size_t>(p)]);
  }
  std::vector<PlaceId> fresh;
  fresh.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fresh.push_back(numPlaces());
    clocks_.push_back(now);
  }
  return fresh;
}

double SimRuntime::chargeBookkeeping(double sendTime) {
  count(counters_.bookkeepingMsgs);
  const double arrival = sendTime + costModel().commTime(kCtrlBytes);
  ctrlClock_ =
      std::max(ctrlClock_, arrival) + costModel().resilientBookkeeping;
  return ctrlClock_;
}

void SimRuntime::finish(const std::function<void()>& body) {
  const CostModel& cm = costModel();
  count(counters_.finishes);
  const PlaceId home = hereStack_.back();
  clocks_[home] += cm.finishSetup;
  finishStack_.push_back(FinishFrame{home, clocks_[home], 0, {}, {}});
  const std::size_t idx = finishStack_.size() - 1;
  if (resilientFinish()) {
    chargeBookkeeping(clocks_[home]);  // finish registration
  }
  try {
    body();
  } catch (...) {
    finishStack_[idx].exceptions.push_back(std::current_exception());
  }
  // Drain same-place tasks: they run now that the spawner has blocked at
  // the finish. A drained task may defer further local tasks.
  while (!finishStack_[idx].deferred.empty()) {
    DeferredTask task = std::move(finishStack_[idx].deferred.front());
    finishStack_[idx].deferred.erase(finishStack_[idx].deferred.begin());
    runTask(idx, task.target, task.spawnTime, task.body);
  }
  FinishFrame frame = std::move(finishStack_[idx]);
  finishStack_.pop_back();

  // The home processes one termination notification per task.
  clocks_[home] = std::max(clocks_[home], frame.maxChildEnd) +
                  static_cast<double>(frame.tasks) * cm.taskRecvOverhead;
  if (resilientFinish()) {
    // The finish cannot complete until the place-0 control processor has
    // drained every spawn/termination message and acknowledged completion.
    const double before = clocks_[home];
    const double ack = chargeBookkeeping(before);
    const double ackLatency = home == 0 ? 0.0 : cm.commTime(kEnvelopeBytes);
    clocks_[home] = std::max(clocks_[home], ack + ackLatency);
    noteFinishAck(home, frame.tasks, before, clocks_[home]);
  }
  throwCollected(std::move(frame.exceptions));
}

void SimRuntime::asyncAt(Place p, const std::function<void()>& body) {
  if (finishStack_.empty()) {
    throw ApgasError("asyncAt outside any finish scope");
  }
  noteDispatch();

  const CostModel& cm = costModel();
  const PlaceId spawner = hereStack_.back();
  const PlaceId target = p.id();
  if (target < 0 || target >= numPlaces()) {
    throw ApgasError("asyncAt: no such place");
  }
  // The spawner pays the local spawn bookkeeping plus, for a remote task,
  // the serialisation/push cost — so a flat fan-out over P places costs
  // the home O(P), as on the real socket transport.
  clocks_[spawner] += cm.asyncSpawn;
  if (target != spawner) clocks_[spawner] += cm.taskSendOverhead;
  const double spawnTime = clocks_[spawner];
  const std::size_t idx = finishStack_.size() - 1;
  ++finishStack_[idx].tasks;

  if (resilientFinish()) {
    chargeBookkeeping(spawnTime);
  }

  if (target == spawner) {
    // Same-place task: with one worker per place it cannot run until the
    // spawner blocks; defer to the enclosing finish boundary.
    finishStack_[idx].deferred.push_back(
        DeferredTask{target, spawnTime, body});
    return;
  }

  runTask(idx, target, spawnTime + cm.commTime(kEnvelopeBytes), body);
}

void SimRuntime::runTask(std::size_t idx, PlaceId target, double spawnTime,
                         const std::function<void()>& body) {
  if (isDead(target)) {
    finishStack_[idx].exceptions.push_back(
        std::make_exception_ptr(DeadPlaceException(target)));
    return;
  }

  clocks_[target] = std::max(clocks_[target], spawnTime);

  hereStack_.push_back(target);
  try {
    body();
  } catch (...) {
    finishStack_[idx].exceptions.push_back(std::current_exception());
  }
  hereStack_.pop_back();

  if (isDead(target)) {
    // The place died while (conceptually) running this task: its effects
    // are gone (kill() cleared the heap) and the finish must observe the
    // failure.
    finishStack_[idx].exceptions.push_back(
        std::make_exception_ptr(DeadPlaceException(target)));
    return;
  }

  const double taskEnd = clocks_[target];
  const PlaceId home = finishStack_[idx].home;
  const double notify =
      target == home ? 0.0 : costModel().commTime(kEnvelopeBytes);
  finishStack_[idx].maxChildEnd =
      std::max(finishStack_[idx].maxChildEnd, taskEnd + notify);
  if (resilientFinish()) {
    chargeBookkeeping(taskEnd);
  }
}

void SimRuntime::at(Place p, const std::function<void()>& body) {
  const PlaceId target = p.id();
  if (target < 0 || target >= numPlaces()) {
    throw ApgasError("at: no such place");
  }
  if (isDead(target)) throw DeadPlaceException(target);

  const double envelope = costModel().commTime(kEnvelopeBytes);
  const PlaceId origin = hereStack_.back();
  if (target != origin) {
    clocks_[target] = std::max(clocks_[target], clocks_[origin] + envelope);
  }
  hereStack_.push_back(target);
  struct PopGuard {
    std::vector<PlaceId>& stack;
    ~PopGuard() { stack.pop_back(); }
  } guard{hereStack_};
  body();
  // `guard` pops on scope exit (also on exception propagation).
  if (isDead(target)) throw DeadPlaceException(target);
  if (target != origin) {
    clocks_[origin] = std::max(clocks_[origin], clocks_[target] + envelope);
  }
}

void SimRuntime::advance(double seconds) {
  const PlaceId p = hereStack_.back();
  if (isDead(p)) return;
  clocks_[p] += seconds;
}

}  // namespace rgml::apgas::sim
