#include "obs/flight/stall_watchdog.h"

#include <chrono>
#include <utility>

namespace rgml::obs::flight {

StallWatchdog::StallWatchdog(FlightRecorder& recorder,
                             std::function<double()> clock,
                             double periodSeconds)
    : rec_(recorder), clock_(std::move(clock)), period_(periodSeconds) {}

StallWatchdog::~StallWatchdog() { stop(); }

void StallWatchdog::start() {
  if (period_ <= 0.0) return;
  {
    std::lock_guard<std::mutex> lock(stopMu_);
    if (started_ || stopping_) return;
    started_ = true;
  }
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(stopMu_);
    for (;;) {
      stopCv_.wait_for(lock, std::chrono::duration<double>(period_),
                       [&] { return stopping_; });
      if (stopping_) return;
      lock.unlock();
      sampleNow();
      lock.lock();
    }
  });
}

void StallWatchdog::stop() {
  {
    std::lock_guard<std::mutex> lock(stopMu_);
    stopping_ = true;
  }
  stopCv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

StallWatchdog::Sample StallWatchdog::sampleNow() {
  Sample sample;
  sample.t = clock_();
  const int places = rec_.places();
  sample.rows.reserve(static_cast<std::size_t>(places) + 1);
  for (int p = 0; p < places; ++p) {
    const FlightRecorder::ProgressSnapshot snap = rec_.progress(p);
    sample.rows.push_back(
        Row{p, snap.depth, snap.enqueues, snap.dequeues, snap.dead});
  }
  const FlightRecorder::ProgressSnapshot ctrl = rec_.progress(kCtrlQueue);
  sample.rows.push_back(Row{kCtrlQueue, ctrl.depth, ctrl.enqueues,
                            ctrl.dequeues, ctrl.dead});

  std::lock_guard<std::mutex> lock(mu_);
  sample.index = nextIndex_++;
  evaluateLocked(sample);
  samples_.push_back(sample);
  if (samples_.size() > kMaxSamples) samples_.pop_front();
  prev_ = sample;
  hasPrev_ = true;
  return sample;
}

void StallWatchdog::evaluateLocked(const Sample& cur) {
  if (!hasPrev_) return;
  for (const Row& row : cur.rows) {
    const Row* before = nullptr;
    for (const Row& p : prev_.rows) {
      if (p.queue == row.queue) {
        before = &p;
        break;
      }
    }
    if (before == nullptr) continue;  // queue appeared this period
    const bool stalled = !row.dead && row.depth > 0 && before->depth > 0 &&
                         row.dequeues == before->dequeues;
    bool& episode = stalled_[row.queue];
    if (stalled && !episode) {
      episode = true;
      Verdict v;
      v.t = cur.t;
      v.sampleIndex = cur.index;
      v.queue = row.queue;
      v.depth = row.depth;
      v.dequeues = row.dequeues;
      v.detail = "queue " + queueName(row.queue) +
                 ": no dequeue progress across a sampling period with " +
                 std::to_string(row.depth) +
                 " message(s) queued (dequeues stuck at " +
                 std::to_string(row.dequeues) + ")";
      verdicts_.push_back(std::move(v));
    } else if (!stalled && (row.dequeues != before->dequeues ||
                            row.depth == 0 || row.dead)) {
      episode = false;
    }
  }
}

std::vector<StallWatchdog::Sample> StallWatchdog::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {samples_.begin(), samples_.end()};
}

std::vector<StallWatchdog::Verdict> StallWatchdog::verdicts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verdicts_;
}

}  // namespace rgml::obs::flight
