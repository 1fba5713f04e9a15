#include "resilient/app_resilient_store.h"

#include <optional>

#include "apgas/exceptions.h"
#include "apgas/runtime.h"
#include "obs/trace_sink.h"

namespace rgml::resilient {

namespace {

/// Simulated time for span boundaries; 0 when no world is live (the
/// store is then being used outside a simulation, e.g. a pure unit test).
double simNow() {
  return apgas::Runtime::initialized() ? apgas::Runtime::world().time() : 0.0;
}

int herePlace() {
  return apgas::Runtime::initialized()
             ? static_cast<int>(apgas::Runtime::world().here().id())
             : -1;
}

obs::TraceSink::Args statsArgs(
    const AppResilientStore::CheckpointStats& stats) {
  return {{"fresh_bytes", std::to_string(stats.freshBytes)},
          {"carried_bytes", std::to_string(stats.carriedBytes)},
          {"fresh_entries", std::to_string(stats.freshEntries)},
          {"carried_entries", std::to_string(stats.carriedEntries)}};
}

}  // namespace

const char* toString(CheckpointMode mode) noexcept {
  switch (mode) {
    case CheckpointMode::Full:
      return "full";
    case CheckpointMode::ReadOnlyReuse:
      return "readonly";
    case CheckpointMode::Delta:
      return "delta";
    case CheckpointMode::Lossy:
      return "lossy";
    case CheckpointMode::DeltaLossy:
      return "delta-lossy";
  }
  return "?";
}

void AppResilientStore::setReplication(int k) {
  if (k < 1) {
    throw apgas::ApgasError("AppResilientStore::setReplication: k must be >= 1");
  }
  replication_ = k;
}

void AppResilientStore::startNewSnapshot() {
  if (inProgress_) {
    throw apgas::ApgasError(
        "AppResilientStore: snapshot already in progress (commit or cancel "
        "first)");
  }
  inProgress_ = std::make_unique<AppSnapshot>();
  inProgress_->iteration = iteration_;
  pendingStats_ = CheckpointStats{};
  if (auto* sink = obs::TraceSink::current()) {
    snapshotSink_ = sink;
    snapshotSpan_ = sink->open(obs::Category::CheckpointSave,
                               "store.snapshot", iteration_, herePlace(),
                               simNow());
  }
}

template <class Make>
std::shared_ptr<Snapshot> AppResilientStore::build(const Snapshottable& obj,
                                                   const LossyConfig* codec,
                                                   Make&& make) {
  // Snapshots the object creates inherit the store's replication factor,
  // the codec (every fresh Snapshot::save stores encoded bytes; carried
  // entries keep the encoded payload of the snapshot they came from), and
  // the object's retired Snapshot as recycle source — unless another slot
  // shares that Snapshot (saveReadOnly reuse), whose payloads the
  // committed slot still reads.
  std::weak_ptr<Snapshot> source;
  if (retired_) {
    for (const auto& [o, s] : retired_->objects) {
      if (o == &obj && s.use_count() == 1) source = s;
    }
  }
  ReplicationScope replication(replication_);
  RecycleScope recycle(std::move(source));
  std::optional<CodecScope> codecScope;
  if (codec != nullptr) codecScope.emplace(*codec);
  return make();
}

void AppResilientStore::save(Snapshottable& obj) {
  if (!inProgress_) {
    throw apgas::ApgasError(
        "AppResilientStore::save: no snapshot in progress");
  }
  const double t0 = simNow();
  std::shared_ptr<Snapshot> snapshot =
      build(obj, usesLossy(mode_) ? &lossy_ : nullptr, [&] {
        if (usesDelta(mode_) && committed_) {
          if (auto prev = committed_->find(&obj)) {
            return obj.makeDeltaSnapshot(*prev);
          }
        }
        return obj.makeSnapshot();
      });
  pendingStats_.freshBytes += snapshot->freshBytes();
  pendingStats_.carriedBytes += snapshot->carriedBytes();
  pendingStats_.carriedEntries += snapshot->numCarried();
  pendingStats_.freshEntries += snapshot->numEntries() - snapshot->numCarried();
  if (auto* sink = obs::TraceSink::current()) {
    obs::TraceSink::Args args{
        {"fresh_bytes", std::to_string(snapshot->freshBytes())},
        {"carried_bytes", std::to_string(snapshot->carriedBytes())},
        {"entries", std::to_string(snapshot->numEntries())},
        {"carried_entries", std::to_string(snapshot->numCarried())},
        {"replicas", std::to_string(snapshot->replication())}};
    if (usesLossy(mode_)) {
      args.emplace_back("codec", "lossy");
      args.emplace_back("error_bound", std::to_string(lossy_.errorBound));
    }
    sink->span(obs::Category::CheckpointSave, "store.save",
               inProgress_->iteration, herePlace(), t0, simNow(),
               snapshot->freshBytes() + snapshot->carriedBytes(),
               std::move(args));
  }
  inProgress_->objects.emplace_back(&obj, std::move(snapshot));
}

void AppResilientStore::saveReadOnly(Snapshottable& obj) {
  if (!inProgress_) {
    throw apgas::ApgasError(
        "AppResilientStore::saveReadOnly: no snapshot in progress");
  }
  const double t0 = simNow();
  if (mode_ != CheckpointMode::Full && committed_) {
    if (auto existing = committed_->find(&obj)) {
      // The whole Snapshot is reused by pointer: nothing is copied, every
      // entry counts as carried.
      pendingStats_.carriedBytes += existing->totalBytes();
      pendingStats_.carriedEntries += existing->numEntries();
      if (auto* sink = obs::TraceSink::current()) {
        sink->span(obs::Category::CheckpointSave, "store.save-readonly",
                   inProgress_->iteration, herePlace(), t0, simNow(),
                   existing->totalBytes(), {{"reused", "true"}});
      }
      inProgress_->objects.emplace_back(&obj, std::move(existing));
      return;
    }
  }
  // Read-only state is compressed but never quantized: lossy restarts
  // reconverge because the iteration self-corrects *towards the same
  // fixed point* — perturbing the input data would move the fixed point
  // itself (Tao et al. lossy-compress only the dynamic solver state).
  const LossyConfig lossless{0.0};
  std::shared_ptr<Snapshot> snapshot =
      build(obj, usesLossy(mode_) ? &lossless : nullptr,
            [&] { return obj.makeSnapshot(); });
  pendingStats_.freshBytes += snapshot->freshBytes();
  pendingStats_.freshEntries += snapshot->numEntries();
  if (auto* sink = obs::TraceSink::current()) {
    sink->span(obs::Category::CheckpointSave, "store.save-readonly",
               inProgress_->iteration, herePlace(), t0, simNow(),
               snapshot->freshBytes(),
               {{"reused", "false"},
                {"replicas", std::to_string(snapshot->replication())}});
  }
  inProgress_->objects.emplace_back(&obj, std::move(snapshot));
}

void AppResilientStore::commit() {
  if (!inProgress_) {
    throw apgas::ApgasError(
        "AppResilientStore::commit: no snapshot in progress");
  }
  retired_ = std::move(committed_);
  committed_ = std::move(inProgress_);
  lastStats_ = pendingStats_;
  if (auto* sink = obs::TraceSink::current()) {
    const double now = simNow();
    if (sink == snapshotSink_) {
      sink->close(snapshotSpan_, now,
                  lastStats_.freshBytes + lastStats_.carriedBytes,
                  statsArgs(lastStats_));
    }
    sink->instant(obs::Category::CheckpointCommit, "store.commit",
                  committed_->iteration, herePlace(), now,
                  lastStats_.freshBytes + lastStats_.carriedBytes,
                  statsArgs(lastStats_));
    sink->addMetric("checkpoint.commits");
    sink->addMetric("checkpoint.fresh_bytes", lastStats_.freshBytes);
    sink->addMetric("checkpoint.carried_bytes",
                        lastStats_.carriedBytes);
    sink->addMetric("checkpoint.fresh_entries",
                        lastStats_.freshEntries);
    sink->addMetric("checkpoint.carried_entries",
                        lastStats_.carriedEntries);
  }
  snapshotSink_ = nullptr;
}

void AppResilientStore::cancelSnapshot() {
  // Dropping the in-progress AppSnapshot releases its fresh Snapshots and
  // its references to reused/carried ones; the committed snapshot those
  // were taken from holds its own shared_ptrs and stays fully intact. The
  // entries this checkpoint took over from the retired slot go with it.
  const bool wasInProgress = inProgress_ != nullptr;
  inProgress_.reset();
  pendingStats_ = CheckpointStats{};
  if (wasInProgress) {
    if (auto* sink = obs::TraceSink::current()) {
      const double now = simNow();
      if (sink == snapshotSink_) {
        sink->close(snapshotSpan_, now, 0, {{"cancelled", "true"}});
      }
      sink->instant(obs::Category::CheckpointCancel, "store.cancel",
                    iteration_, herePlace(), now);
      sink->addMetric("checkpoint.cancels");
    }
  }
  snapshotSink_ = nullptr;
}

void AppResilientStore::restore() {
  if (!committed_) {
    throw apgas::ApgasError(
        "AppResilientStore::restore: no committed snapshot");
  }
  obs::TraceSink* sink = obs::TraceSink::current();
  std::size_t span = 0;
  if (sink != nullptr) {
    span = sink->open(obs::Category::Restore, "store.restore",
                      committed_->iteration, herePlace(), simNow());
  }
  try {
    for (auto& [obj, snapshot] : committed_->objects) {
      obj->restoreSnapshot(*snapshot);
    }
  } catch (...) {
    // A cascading failure mid-restore: close the span so the executor's
    // retry opens a fresh one at the right depth.
    if (sink != nullptr) {
      sink->close(span, simNow(), 0, {{"aborted", "true"}});
    }
    throw;
  }
  if (sink != nullptr) {
    sink->close(span, simNow(), committedBytes(),
                {{"objects", std::to_string(committed_->objects.size())}});
    sink->addMetric("restore.count");
    sink->addMetric("restore.bytes", committedBytes());
  }
}

void AppResilientStore::restoreOnly(Snapshottable& obj) {
  if (!committed_) {
    throw apgas::ApgasError(
        "AppResilientStore::restoreOnly: no committed snapshot");
  }
  const std::shared_ptr<Snapshot> snapshot = committed_->find(&obj);
  if (!snapshot) {
    throw apgas::ApgasError(
        "AppResilientStore::restoreOnly: object not in the committed "
        "snapshot");
  }
  obs::TraceSink* sink = obs::TraceSink::current();
  std::size_t span = 0;
  if (sink != nullptr) {
    span = sink->open(obs::Category::Restore, "store.restoreOnly",
                      committed_->iteration, herePlace(), simNow());
  }
  try {
    obj.restoreSnapshot(*snapshot);
  } catch (...) {
    if (sink != nullptr) {
      sink->close(span, simNow(), 0, {{"aborted", "true"}});
    }
    throw;
  }
  if (sink != nullptr) {
    sink->close(span, simNow(), snapshot->totalBytes(), {});
    sink->addMetric("restore.count");
    sink->addMetric("restore.bytes", snapshot->totalBytes());
  }
}

std::size_t AppResilientStore::committedBytes() const {
  if (!committed_) return 0;
  std::size_t total = 0;
  for (const auto& [obj, snapshot] : committed_->objects) {
    total += snapshot->totalBytes();
  }
  return total;
}

}  // namespace rgml::resilient
