#include "apgas/runtime.h"

#include <sstream>
#include <thread>

#include "apgas/sim/sim_runtime.h"
#include "apgas/threads/threads_backend.h"
#include "obs/flight/forensic_dump.h"
#include "obs/trace_sink.h"

namespace rgml::apgas {

thread_local std::unique_ptr<Runtime> Runtime::instance_;
thread_local Runtime* Runtime::borrowed_ = nullptr;

Runtime::Runtime(const RuntimeConfig& config)
    : cm_(config.costModel),
      backendKind_(config.backend),
      resilient_(config.resilientFinish),
      heaps_(static_cast<std::size_t>(config.numPlaces)) {}

std::string Runtime::flightDump() const {
  const obs::flight::FlightRecorder* rec = flightRecorder();
  if (rec == nullptr) return {};
  return obs::flight::forensicJson(*rec, stallWatchdog());
}

void Runtime::init(const RuntimeConfig& config) {
  if (config.numPlaces < 1) {
    throw ApgasError("Runtime::init: need at least 1 place");
  }
  instance_.reset();  // tear down the old world before building the new
  if (config.backend == Backend::Threads) {
    instance_ = std::make_unique<threads::ThreadsBackend>(config);
  } else {
    instance_ = std::make_unique<sim::SimRuntime>(config);
  }
}

void Runtime::init(int numPlaces, const CostModel& cm, bool resilientFinish) {
  RuntimeConfig config;
  config.numPlaces = numPlaces;
  config.costModel = cm;
  config.resilientFinish = resilientFinish;
  init(config);
}

Runtime& Runtime::world() {
  if (instance_) return *instance_;
  // Threads-backend place workers don't own a world; they borrow the one
  // that owns them, so application code runs unchanged on either backend.
  if (borrowed_ != nullptr) return *borrowed_;
  std::ostringstream os;
  os << "Runtime::world(): no world on thread " << std::this_thread::get_id()
     << " (never initialised, or already torn down); call Runtime::init()"
        " or open a WorldGuard on this thread first";
  throw ApgasError(os.str());
}

bool Runtime::initialized() {
  return static_cast<bool>(instance_) || borrowed_ != nullptr;
}

std::unique_ptr<Runtime> Runtime::detach() { return std::move(instance_); }

void Runtime::attach(std::unique_ptr<Runtime> world) {
  instance_ = std::move(world);
}

void Runtime::setBorrowed(Runtime* world) noexcept { borrowed_ = world; }

long Runtime::dispatchCount() const noexcept {
  return dispatchCount_.load(std::memory_order_relaxed);
}

void Runtime::setDispatchHook(std::function<void(long)> hook) {
  std::lock_guard<std::mutex> lock(hookMutex_);
  dispatchHook_ = std::move(hook);
}

void Runtime::noteDispatch() {
  const long dispatched =
      dispatchCount_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::function<void(long)> hook;
  {
    std::lock_guard<std::mutex> lock(hookMutex_);
    hook = dispatchHook_;
  }
  // Invoke a copy outside the lock: the hook may disarm itself via
  // setDispatchHook({}) or kill a place (which takes other locks).
  if (hook) hook(dispatched);
  count(counters_.asyncsSpawned);
}

std::vector<PlaceId> Runtime::addPlaces(int n) {
  if (n < 0) throw ApgasError("addPlaces: negative count");
  {
    // Grow the heap table before the engine publishes the new places, so
    // a heap access to a place numPlaces() reports always finds its heap.
    std::lock_guard<std::mutex> lock(heapMutex_);
    heaps_.resize(heaps_.size() + static_cast<std::size_t>(n));
  }
  return startPlaces(n);
}

void Runtime::kill(PlaceId p) {
  if (p == 0) {
    throw ApgasError(
        "kill(0): place zero is immortal in the paper's failure model");
  }
  if (p < 0 || p >= numPlaces()) throw ApgasError("kill: no such place");
  // Serialise whole kill fanouts: a listener must never observe two
  // concurrent kills interleaving (the snapshot store's replica
  // bookkeeping depends on one-at-a-time notifications).
  std::lock_guard<std::mutex> killLock(killMutex_);
  if (!markDead(p)) return;  // already dead
  // Wipe before failing the queued work: an orphaned task must not be
  // able to complete a finish while the dead place's heap is readable.
  wipeHeap(p);
  failQueued(p);
  count(counters_.placesKilled);
  if (auto* sink = obs::TraceSink::current()) {
    obs::TidScope tidScope(spanTid());
    sink->instant(obs::Category::Kill, "kill", -1, static_cast<int>(p),
                  clock(p), 0, {{"victim", std::to_string(p)}});
    sink->addMetric("runtime.places_killed");
  }
  // Copy under the registration lock: a listener may (un)register other
  // listeners, and foreign threads may be registering concurrently.
  std::unordered_map<std::uint64_t, std::function<void(PlaceId)>> listeners;
  {
    std::lock_guard<std::mutex> lock(listenerMutex_);
    listeners = killListeners_;
  }
  for (auto& [token, fn] : listeners) fn(p);
}

std::uint64_t Runtime::addKillListener(std::function<void(PlaceId)> fn) {
  std::lock_guard<std::mutex> lock(listenerMutex_);
  const std::uint64_t token = nextListener_++;
  killListeners_.emplace(token, std::move(fn));
  return token;
}

void Runtime::removeKillListener(std::uint64_t token) {
  std::lock_guard<std::mutex> lock(listenerMutex_);
  killListeners_.erase(token);
}

void Runtime::noteFinishAck(PlaceId home, long tasks, double before,
                            double after) {
  auto* sink = obs::TraceSink::current();
  if (sink == nullptr) return;
  obs::TidScope tidScope(spanTid());
  // The ack wait is the critical-path cost of resilient finish — the
  // quantity Figs. 2-4 and Table IV's bookkeeping column measure.
  const double blocked = after - before;
  sink->addMetric("finish.count");
  static const std::vector<double> kAckBuckets{1e-6, 1e-5, 1e-4, 1e-3,
                                               1e-2, 0.1,  1.0};
  sink->observeMetric("finish.ack_wait_seconds", kAckBuckets, blocked);
  if (blocked > 0.0) {
    sink->span(obs::Category::Finish, "finish.ack", -1,
               static_cast<int>(home), before, after, 0,
               {{"tasks", std::to_string(tasks)}});
  }
}

void Runtime::throwCollected(std::vector<std::exception_ptr> errors) {
  if (errors.empty()) return;
  if (errors.size() == 1) std::rethrow_exception(errors.front());
  throw MultipleExceptions(std::move(errors));
}

void Runtime::chargeComm(Place to, std::uint64_t bytes) {
  const PlaceId from = here().id();
  if (isDead(from)) return;
  if (to.id() == from) {
    chargeLocalCopy(bytes);
    return;
  }
  // One-sided semantics: the initiating place pays the full transfer; the
  // peer's worker does not stall (its runtime buffers the data). Ordering
  // across places is established by the enclosing finish, whose completion
  // already dominates every sender's clock.
  auto* sink = obs::TraceSink::current();
  const double start = sink != nullptr ? clock(from) : 0.0;
  advance(cm_.commTime(bytes));
  if (sink != nullptr) {
    obs::TidScope tidScope(spanTid());
    sink->span(obs::Category::Comms, "comm", -1, static_cast<int>(from),
               start, clock(from), bytes, {{"to", std::to_string(to.id())}});
  }
  countDataMsg(sink, bytes);
}

void Runtime::noteDataTransfer(std::uint64_t bytes) {
  auto* sink = obs::TraceSink::current();
  if (sink != nullptr) {
    // Collective payloads whose critical-path time is modelled elsewhere
    // (tree broadcast): account the bytes at the current place's clock
    // without a duration.
    obs::TidScope tidScope(spanTid());
    const PlaceId p = here().id();
    sink->instant(obs::Category::Comms, "data-transfer", -1,
                  static_cast<int>(p), clock(p), bytes);
  }
  countDataMsg(sink, bytes);
}

void Runtime::countDataMsg(obs::TraceSink* sink, std::uint64_t bytes) {
  counters_.dataMsgs.fetch_add(1, std::memory_order_relaxed);
  counters_.bytesSent.fetch_add(bytes, std::memory_order_relaxed);
  if (sink == nullptr) return;
  sink->addMetric("comms.data_msgs");
  sink->addMetric("comms.bytes_sent", bytes);
}

RuntimeStats Runtime::stats() const noexcept {
  constexpr auto relaxed = std::memory_order_relaxed;
  RuntimeStats s;
  s.asyncsSpawned = counters_.asyncsSpawned.load(relaxed);
  s.finishes = counters_.finishes.load(relaxed);
  s.bookkeepingMsgs = counters_.bookkeepingMsgs.load(relaxed);
  s.dataMsgs = counters_.dataMsgs.load(relaxed);
  s.bytesSent = counters_.bytesSent.load(relaxed);
  s.placesKilled = counters_.placesKilled.load(relaxed);
  return s;
}

void Runtime::resetStats() {
  constexpr auto relaxed = std::memory_order_relaxed;
  counters_.asyncsSpawned.store(0, relaxed);
  counters_.finishes.store(0, relaxed);
  counters_.bookkeepingMsgs.store(0, relaxed);
  counters_.dataMsgs.store(0, relaxed);
  counters_.bytesSent.store(0, relaxed);
  counters_.placesKilled.store(0, relaxed);
}

void Runtime::wipeHeap(PlaceId p) {
  std::lock_guard<std::mutex> lock(heapMutex_);
  if (p < 0 || static_cast<std::size_t>(p) >= heaps_.size()) return;
  heaps_[static_cast<std::size_t>(p)].clear();
}

void Runtime::heapPut(PlaceId p, std::uint64_t key,
                      std::shared_ptr<void> obj) {
  if (p < 0 || p >= numPlaces()) throw ApgasError("heapPut: no such place");
  std::lock_guard<std::mutex> lock(heapMutex_);
  // Dead check under heapMutex_: kill() flips the dead flag *before*
  // wipeHeap() takes this mutex, so a put that locks after the wipe sees
  // dead and drops, and one that locks before it is wiped with the rest —
  // either way no live data survives on a dead place's heap.
  if (isDead(p)) return;  // writes to a dead place are lost
  heaps_[static_cast<std::size_t>(p)][key] = std::move(obj);
}

std::shared_ptr<void> Runtime::heapGet(PlaceId p, std::uint64_t key) const {
  if (p < 0 || p >= numPlaces()) throw ApgasError("heapGet: no such place");
  std::lock_guard<std::mutex> lock(heapMutex_);
  const auto& heap = heaps_[static_cast<std::size_t>(p)];
  auto it = heap.find(key);
  return it == heap.end() ? nullptr : it->second;
}

void Runtime::heapErase(PlaceId p, std::uint64_t key) {
  if (p < 0 || p >= numPlaces()) return;
  std::lock_guard<std::mutex> lock(heapMutex_);
  heaps_[static_cast<std::size_t>(p)].erase(key);
}

void Runtime::heapEraseAll(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(heapMutex_);
  for (auto& heap : heaps_) heap.erase(key);
}

}  // namespace rgml::apgas
