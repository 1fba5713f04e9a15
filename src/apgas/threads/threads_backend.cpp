#include "apgas/threads/threads_backend.h"

#include <string>
#include <utility>

#include "obs/flight/flight_recorder.h"
#include "obs/flight/stall_watchdog.h"
#include "obs/trace_sink.h"

namespace rgml::apgas::threads {

namespace {
/// Generation counter distinguishing engines: a host thread's cached
/// ThreadCtx belongs to exactly one engine and resets on mismatch, so
/// worlds created and destroyed back-to-back on one thread (sweep jobs)
/// can never see each other's finish stacks.
std::atomic<std::uint64_t> nextEngineId{1};
}  // namespace

/// Per-OS-thread execution state. `place` is fixed for a thread's
/// lifetime — the world-owning thread is place 0, each worker its own
/// place — exactly X10's one-worker-per-place model. The finish stack
/// tracks which FinishState governs asyncs spawned by the code this
/// thread is currently running (task messages carry their governing
/// finish and push it around the body).
struct ThreadsBackend::ThreadCtx {
  std::uint64_t engineId = 0;
  PlaceId place = 0;
  std::vector<std::shared_ptr<FinishState>> finishStack;
};

ThreadsBackend::ThreadCtx& ThreadsBackend::ctx() const {
  thread_local ThreadCtx tls;
  if (tls.engineId != engineId_) {
    tls.engineId = engineId_;
    tls.place = 0;
    tls.finishStack.clear();
  }
  return tls;
}

ThreadsBackend::ThreadsBackend(const RuntimeConfig& config)
    : Runtime(config),
      engineId_(nextEngineId.fetch_add(1, std::memory_order_relaxed)),
      t0_(std::chrono::steady_clock::now()) {
  const int numPlaces = config.numPlaces;
  if (config.flightRecorder) {
    // Progress is counted under the queue locks the backend takes
    // anyway, so a message costs no extra shared cache line; the sampler
    // reads a queue's counters and depth under the same lock.
    flight_ = std::make_unique<obs::flight::FlightRecorder>(
        numPlaces, config.flightRingCapacity, [this](int queue) {
          obs::flight::FlightRecorder::ProgressSnapshot snap;
          if (queue == obs::flight::kCtrlQueue) {
            std::lock_guard<std::mutex> lock(ctrlMu_);
            snap.enqueues = ctrlEnqueues_;
            snap.dequeues = ctrlDequeues_;
            snap.depth = static_cast<long>(ctrlQ_.size());
            return snap;
          }
          if (queue < 0 || queue >= this->numPlaces()) return snap;
          PlaceState& ps = place(queue);
          {
            std::lock_guard<std::mutex> lock(ps.inbox.mu);
            snap.enqueues = ps.inbox.enqueues;
            snap.dequeues = ps.inbox.dequeues;
            snap.depth = static_cast<long>(ps.inbox.q.size());
          }
          snap.dead = ps.dead.load(std::memory_order_acquire);
          return snap;
        });
    // The constructing thread doubles as place 0's worker.
    flight_->bindCurrentThread("p0", 0);
    watchdog_ = std::make_unique<obs::flight::StallWatchdog>(
        *flight_, [this] { return now(); }, config.watchdogPeriodMs / 1e3);
  }
  {
    std::lock_guard<std::mutex> lock(placesMutex_);
    for (int i = 0; i < numPlaces; ++i) places_.emplace_back();
    numPlaces_.store(numPlaces, std::memory_order_release);
  }
  ctx().place = 0;  // the constructing thread serves place 0
  for (PlaceId p = 1; p < numPlaces; ++p) startWorker(p);
  ctrlThread_ = std::thread([this] { ctrlLoop(); });
  if (watchdog_) watchdog_->start();
}

ThreadsBackend::~ThreadsBackend() {
  if (watchdog_) watchdog_->stop();
  shutdown_.store(true, std::memory_order_release);
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(placesMutex_);
    for (auto& ps : places_) {
      wake(ps.inbox);
      if (ps.worker.joinable()) workers.push_back(std::move(ps.worker));
    }
  }
  for (auto& t : workers) t.join();
  {
    std::lock_guard<std::mutex> lock(ctrlMu_);
    ctrlStop_ = true;
  }
  ctrlCv_.notify_all();
  if (ctrlThread_.joinable()) ctrlThread_.join();
}

void ThreadsBackend::startWorker(PlaceId p) {
  place(p).worker = std::thread([this, p] { workerLoop(p); });
}

ThreadsBackend::PlaceState& ThreadsBackend::place(PlaceId p) const {
  std::lock_guard<std::mutex> lock(placesMutex_);
  return places_[static_cast<std::size_t>(p)];
}

int ThreadsBackend::numLivePlaces() const noexcept {
  std::lock_guard<std::mutex> lock(placesMutex_);
  int live = 0;
  for (const auto& ps : places_) {
    if (!ps.dead.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

bool ThreadsBackend::isDead(PlaceId p) const noexcept {
  if (p < 0 || p >= numPlaces()) return false;
  return place(p).dead.load(std::memory_order_acquire);
}

Place ThreadsBackend::here() const { return Place(ctx().place); }

int ThreadsBackend::spanTid() const noexcept { return obs::osThreadTag(); }

double ThreadsBackend::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::vector<PlaceId> ThreadsBackend::startPlaces(int n) {
  std::vector<PlaceId> fresh;
  fresh.reserve(static_cast<std::size_t>(n));
  {
    std::lock_guard<std::mutex> lock(placesMutex_);
    for (int i = 0; i < n; ++i) {
      fresh.push_back(static_cast<PlaceId>(places_.size()));
      places_.emplace_back();
    }
    numPlaces_.store(static_cast<int>(places_.size()),
                     std::memory_order_release);
  }
  if (flight_) flight_->addPlaces(n);  // before the workers can record
  for (PlaceId p : fresh) startWorker(p);
  return fresh;
}

void ThreadsBackend::flightEvent(obs::flight::EventKind kind, int queue,
                                 long depth, double value, double t) const {
  obs::flight::Event e;
  e.t = t;
  e.value = value;
  e.kind = kind;
  e.queue = queue;
  e.depth = depth;
  flight_->record(e);
}

// ---- inbox primitives -----------------------------------------------------

bool ThreadsBackend::push(PlaceId p, TaskMsg msg) {
  PlaceState& ps = place(p);
  if (ps.dead.load(std::memory_order_acquire)) return false;
  if (flight_) msg.enqueuedAt = now();
  long depth = 0;
  {
    std::lock_guard<std::mutex> lock(ps.inbox.mu);
    if (ps.inbox.poisoned) return false;
    ps.inbox.q.push_back(std::move(msg));
    ++ps.inbox.epoch;
    ++ps.inbox.enqueues;
    depth = static_cast<long>(ps.inbox.q.size());
  }
  ps.inbox.cv.notify_all();
  if (flight_) {
    flightEvent(obs::flight::EventKind::Enqueue, static_cast<int>(p),
                depth, 0.0, msg.enqueuedAt);
  }
  return true;
}

void ThreadsBackend::wake(Inbox& in) {
  {
    std::lock_guard<std::mutex> lock(in.mu);
    ++in.epoch;
  }
  in.cv.notify_all();
}

bool ThreadsBackend::drainOne(Inbox& in) {
  TaskMsg msg;
  long depth = 0;
  {
    std::lock_guard<std::mutex> lock(in.mu);
    if (in.q.empty()) return false;
    msg = std::move(in.q.front());
    in.q.pop_front();
    ++in.dequeues;
    depth = static_cast<long>(in.q.size());
  }
  if (flight_) {
    // drainOne always runs on the inbox owner's thread (the worker, or a
    // thread blocked in waitUntil draining its own place).
    const int queue = static_cast<int>(ctx().place);
    const double t = now();
    flightEvent(obs::flight::EventKind::Dequeue, queue, depth,
                t - msg.enqueuedAt, t);
  }
  execute(msg);
  return true;
}

void ThreadsBackend::taskDone(FinishState& fs, Inbox& homeInbox) {
  bool zero = false;
  {
    std::lock_guard<std::mutex> lock(fs.mu);
    zero = --fs.pending == 0;
  }
  if (zero) wake(homeInbox);
}

void ThreadsBackend::execute(TaskMsg& msg) {
  // Run under the spawner's sink so spans/metrics land in the right
  // scenario regardless of which thread executes the closure.
  obs::SinkScope sinkScope(msg.sink);
  ThreadCtx& c = ctx();

  if (msg.at) {
    std::exception_ptr err;
    if (isDead(msg.target)) {
      err = std::make_exception_ptr(DeadPlaceException(msg.target));
    } else {
      c.finishStack.push_back(msg.fs);  // origin's finish (may be null)
      try {
        msg.body();
      } catch (...) {
        err = std::current_exception();
      }
      c.finishStack.pop_back();
      if (!err && isDead(msg.target)) {
        err = std::make_exception_ptr(DeadPlaceException(msg.target));
      }
    }
    std::shared_ptr<AtState> st = msg.at;
    Inbox& originInbox = place(st->origin).inbox;
    st->error = err;  // published by the release store below
    st->done.store(true, std::memory_order_release);
    wake(originInbox);
    return;
  }

  if (isDead(msg.target)) {
    // The place died between enqueue and pop: the task never runs.
    std::lock_guard<std::mutex> lock(msg.fs->mu);
    msg.fs->errors.push_back(
        std::make_exception_ptr(DeadPlaceException(msg.target)));
  } else {
    c.finishStack.push_back(msg.fs);
    try {
      msg.body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(msg.fs->mu);
      msg.fs->errors.push_back(std::current_exception());
    }
    c.finishStack.pop_back();
    if (isDead(msg.target)) {
      // Died while running: its heap effects are gone (kill() wiped it)
      // and the finish must observe the failure.
      std::lock_guard<std::mutex> lock(msg.fs->mu);
      msg.fs->errors.push_back(
          std::make_exception_ptr(DeadPlaceException(msg.target)));
    } else if (resilientFinish()) {
      ctrlSend(CtrlMsg::Terminate);  // task termination bookkeeping
    }
  }
  taskDone(*msg.fs, place(msg.fs->home).inbox);
}

// ---- blocking waits (cooperative: drain own inbox) ------------------------

template <class Done>
void ThreadsBackend::waitUntil(Inbox& own, const Done& done) {
  for (;;) {
    if (drainOne(own)) continue;
    std::uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(own.mu);
      epoch = own.epoch;
    }
    // Epoch captured before the done test: a completion that lands in
    // between bumps the epoch past `epoch`, so the wait below returns
    // immediately instead of sleeping through the wakeup. A message pushed
    // between drainOne() and the capture is covered by the queue check in
    // the predicate — its epoch bump is already folded into `epoch`, so the
    // epoch comparison alone would sleep through it.
    if (done()) return;
    const double waitStart = flight_ ? now() : 0.0;
    long depthAfter = 0;
    {
      std::unique_lock<std::mutex> lock(own.mu);
      own.cv.wait(lock,
                  [&] { return own.epoch != epoch || !own.q.empty(); });
      depthAfter = static_cast<long>(own.q.size());
    }
    if (flight_) {
      const double t = now();
      flightEvent(obs::flight::EventKind::InboxWait,
                  static_cast<int>(ctx().place), depthAfter,
                  t - waitStart, t);
    }
  }
}

// ---- task model -----------------------------------------------------------

void ThreadsBackend::finish(const std::function<void()>& body) {
  ThreadCtx& c = ctx();
  count(counters_.finishes);
  auto fs = std::make_shared<FinishState>();
  fs->home = c.place;
  const bool resilient = resilientFinish();
  if (resilient) ctrlSend(CtrlMsg::Register);  // finish registration
  c.finishStack.push_back(fs);
  try {
    body();
  } catch (...) {
    std::lock_guard<std::mutex> lock(fs->mu);
    fs->errors.push_back(std::current_exception());
  }
  Inbox& own = place(c.place).inbox;
  // Flight ack-wait covers the whole close protocol — body returned until
  // every termination and the final ack have been processed. A fan-out
  // finish therefore *contains* the close of every finish it spawned
  // remotely, which is what makes the place-0 serialisation curve
  // (flight_report) monotone in P rather than a scheduler-noise lottery.
  double closeBegin = 0.0;
  if (resilient && flight_) {
    closeBegin = now();
    long spawned = 0;
    {
      std::lock_guard<std::mutex> lock(fs->mu);
      spawned = fs->tasks;
    }
    flightEvent(obs::flight::EventKind::AckWaitBegin,
                static_cast<int>(fs->home), spawned, 0.0, closeBegin);
  }
  waitUntil(own, [&] {
    std::lock_guard<std::mutex> lock(fs->mu);
    return fs->pending == 0;
  });
  c.finishStack.pop_back();
  if (resilient) {
    // The finish cannot complete until the control thread has drained
    // every spawn/termination message and acknowledged completion — the
    // paper's place-0 serialisation, now a real blocked wait.
    long tasks = 0;
    {
      std::lock_guard<std::mutex> lock(fs->mu);
      tasks = fs->tasks;
    }
    const double before = now();
    AckWaiter waiter;
    ctrlSend(CtrlMsg::Ack, &waiter);
    {
      std::unique_lock<std::mutex> lock(waiter.mu);
      waiter.cv.wait(lock, [&] { return waiter.done; });
    }
    const double after = now();
    if (flight_) {
      flightEvent(obs::flight::EventKind::AckWaitEnd,
                  static_cast<int>(fs->home), tasks, after - closeBegin,
                  after);
    }
    noteFinishAck(fs->home, tasks, before, after);
  }
  std::vector<std::exception_ptr> errors;
  {
    std::lock_guard<std::mutex> lock(fs->mu);
    errors = std::move(fs->errors);
  }
  throwCollected(std::move(errors));
}

void ThreadsBackend::asyncAt(Place p, const std::function<void()>& body) {
  ThreadCtx& c = ctx();
  if (c.finishStack.empty() || !c.finishStack.back()) {
    throw ApgasError("asyncAt outside any finish scope");
  }
  noteDispatch();

  const PlaceId target = p.id();
  if (target < 0 || target >= numPlaces()) {
    throw ApgasError("asyncAt: no such place");
  }
  std::shared_ptr<FinishState> fs = c.finishStack.back();
  {
    std::lock_guard<std::mutex> lock(fs->mu);
    ++fs->tasks;
    ++fs->pending;
  }
  if (resilientFinish()) {
    // Spawn bookkeeping is sent before the dead check, exactly as the
    // simulator charges it — the message is in flight either way.
    ctrlSend(CtrlMsg::Spawn);
  }

  TaskMsg msg;
  msg.body = body;
  msg.fs = fs;
  msg.target = target;
  msg.sink = obs::TraceSink::current();
  if (!push(target, std::move(msg))) {
    // Dead or poisoned: the task never runs; the finish observes the
    // failure. (A same-place async lands in our own inbox and runs when
    // this thread blocks — the simulator's deferred-task order.)
    {
      std::lock_guard<std::mutex> lock(fs->mu);
      fs->errors.push_back(
          std::make_exception_ptr(DeadPlaceException(target)));
    }
    taskDone(*fs, place(fs->home).inbox);
  }
}

void ThreadsBackend::at(Place p, const std::function<void()>& body) {
  const PlaceId target = p.id();
  if (target < 0 || target >= numPlaces()) {
    throw ApgasError("at: no such place");
  }
  ThreadCtx& c = ctx();
  if (target == c.place) {
    if (isDead(target)) throw DeadPlaceException(target);
    body();
    if (isDead(target)) throw DeadPlaceException(target);
    return;
  }
  if (isDead(target)) throw DeadPlaceException(target);

  auto st = std::make_shared<AtState>();
  st->origin = c.place;
  TaskMsg msg;
  msg.body = body;
  msg.fs = c.finishStack.empty() ? nullptr : c.finishStack.back();
  msg.at = st;
  msg.target = target;
  msg.sink = obs::TraceSink::current();
  if (!push(target, std::move(msg))) throw DeadPlaceException(target);
  waitUntil(place(c.place).inbox,
            [&] { return st->done.load(std::memory_order_acquire); });
  if (st->error) std::rethrow_exception(st->error);
}

// ---- failure --------------------------------------------------------------

bool ThreadsBackend::markDead(PlaceId p) {
  PlaceState& ps = place(p);
  if (ps.dead.exchange(true, std::memory_order_acq_rel)) return false;
  // Kill events land in the *calling* thread's lane (kill() is legal
  // from foreign threads, which auto-register an "ext" lane).
  if (flight_) {
    flightEvent(obs::flight::EventKind::Kill, static_cast<int>(p), 0, 0.0,
                now());
  }
  return true;
}

void ThreadsBackend::failQueued(PlaceId p) {
  PlaceState& ps = place(p);
  if (flight_) {  // Runtime::kill has just wiped p's heap
    flightEvent(obs::flight::EventKind::HeapWipe, static_cast<int>(p), 0,
                0.0, now());
  }
  // Poison and drain the inbox: queued work completes exceptionally with
  // DeadPlaceException (GASPI-style failure notification — senders learn
  // through their finish/at, listeners through Runtime::kill's fanout),
  // and the place's worker exits once it observes the poisoned, empty
  // queue.
  std::deque<TaskMsg> orphans;
  {
    std::lock_guard<std::mutex> lock(ps.inbox.mu);
    ps.inbox.poisoned = true;
    orphans.swap(ps.inbox.q);
    ++ps.inbox.epoch;
  }
  ps.inbox.cv.notify_all();
  if (flight_) {
    flightEvent(obs::flight::EventKind::Poison, static_cast<int>(p),
                static_cast<long>(orphans.size()), 0.0, now());
  }
  for (TaskMsg& msg : orphans) {
    if (msg.at) {
      msg.at->error =
          std::make_exception_ptr(DeadPlaceException(msg.target));
      msg.at->done.store(true, std::memory_order_release);
      wake(place(msg.at->origin).inbox);
    } else {
      {
        std::lock_guard<std::mutex> lock(msg.fs->mu);
        msg.fs->errors.push_back(
            std::make_exception_ptr(DeadPlaceException(msg.target)));
      }
      taskDone(*msg.fs, place(msg.fs->home).inbox);
    }
  }
}

// ---- threads --------------------------------------------------------------

void ThreadsBackend::ctrlLoop() {
  // The stand-in for the place-0 finish bookkeeper: one thread drains
  // every Register/Spawn/Terminate message and answers Acks. No
  // artificial per-message delay is added — the serialisation through
  // this single queue *is* the measured cost.
  obs::TidScope tidScope(obs::osThreadTag());
  if (flight_) flight_->bindCurrentThread("ctrl", 1 << 20);
  for (;;) {
    CtrlMsg msg;
    {
      std::unique_lock<std::mutex> lock(ctrlMu_);
      ctrlCv_.wait(lock, [&] { return !ctrlQ_.empty() || ctrlStop_; });
      if (ctrlQ_.empty()) return;
      msg = ctrlQ_.front();
      ctrlQ_.pop_front();
      // Counters only on this path, no flight events: a ctrl event pair
      // per bookkeeping message (2*tasks+2 per resilient finish) would
      // dominate the recorder's budget, and the watchdog needs just the
      // counters. Ack-wait events capture the end-to-end ctrl latency.
      ++ctrlDequeues_;
    }
    if (msg.waiter != nullptr) {
      // Notify while holding the waiter's mutex: the waiter lives on the
      // acking thread's stack and is destroyed the moment wait() returns,
      // so an unlocked notify could touch a dead condition_variable. The
      // waiter cannot leave cv.wait until this lock is released.
      std::lock_guard<std::mutex> lock(msg.waiter->mu);
      msg.waiter->done = true;
      msg.waiter->cv.notify_all();
    }
  }
}

void ThreadsBackend::ctrlSend(CtrlMsg::Kind kind, AckWaiter* waiter) {
  count(counters_.bookkeepingMsgs);
  CtrlMsg msg{kind, waiter};
  {
    std::lock_guard<std::mutex> lock(ctrlMu_);
    ctrlQ_.push_back(msg);
    ++ctrlEnqueues_;
  }
  ctrlCv_.notify_all();
}

void ThreadsBackend::workerLoop(PlaceId p) {
  // Application code on this thread resolves Runtime::world() to the
  // world that owns this engine.
  setBorrowed(this);
  ThreadCtx& c = ctx();
  c.place = p;
  obs::TidScope tidScope(obs::osThreadTag());
  if (flight_) {
    flight_->bindCurrentThread(obs::flight::queueName(static_cast<int>(p)),
                               static_cast<int>(p));
  }
  Inbox& in = place(p).inbox;
  for (;;) {
    const double waitStart = flight_ ? now() : 0.0;
    long depthAfter = 0;
    {
      std::unique_lock<std::mutex> lock(in.mu);
      in.cv.wait(lock, [&] {
        return !in.q.empty() || in.poisoned ||
               shutdown_.load(std::memory_order_acquire);
      });
      depthAfter = static_cast<long>(in.q.size());
      if (in.q.empty()) break;  // poisoned or shut down
    }
    if (flight_) {
      const double t = now();
      flightEvent(obs::flight::EventKind::InboxWait, static_cast<int>(p),
                  depthAfter, t - waitStart, t);
    }
    drainOne(in);
  }
  setBorrowed(nullptr);
}

}  // namespace rgml::apgas::threads
