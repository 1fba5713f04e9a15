// AppResilientStore: consistent application-level checkpoints
// (paper §V-A1, Listing 4).
//
// An application snapshot bundles the Snapshots of every GML object that
// contributes to the application's state, plus the iteration number it was
// taken at. Snapshots are created atomically: a new snapshot only becomes
// the restore target after commit(); a failure mid-checkpoint is handled by
// cancelSnapshot(), which discards the partial snapshot and leaves the
// previous committed one intact. Coordinated checkpointing needs only the
// latest committed snapshot to restore from.
//
// The store keeps one more slot: the *retired* snapshot, the one that was
// committed before the current one. Nothing restores from it. commit()
// retires the committed snapshot and drops the one retired before, so the
// retired slot is always two checkpoints back. Its only use is its
// memory: the next checkpoint's Snapshots take the retired Snapshot of
// the same object as their recycle source (RecycleScope) and take its
// entries over (Snapshot::emplace) — payloads refilled in place, map
// nodes and replica lists reused — instead of allocating new ones: under
// ReadOnlyReuse, a graph re-copied every checkpoint stops page-faulting
// fresh memory. A payload is refilled only while the retired slot is its
// sole owner: never a Snapshot that saveReadOnly() shares with the
// committed slot, never a payload a carried entry shares, never an
// encoded (lossy) one. The committed slot is never written, so a
// checkpoint cancelled after some payloads were refilled leaves the
// restore target intact; the entries it took from the retired slot go
// with it, and the retry allocates those afresh.
//
// saveReadOnly() implements the paper's optimisation for objects that never
// change (e.g. the training matrix): their Snapshot from the previous
// committed application snapshot is reused instead of re-created, which is
// why Table III's checkpoint times only pay for the mutable state.
//
// The delta-checkpoint mode (default) generalises saveReadOnly to
// per-block granularity: save() asks the object for a delta snapshot
// against its Snapshot in the last committed application snapshot, so
// objects with version-stamped blocks copy and re-back-up only the blocks
// that changed since then; unchanged blocks are carried forward at zero
// cost. commit() promotes the resulting fresh/carried mix atomically, and
// cancelSnapshot() discards the whole in-progress mix — carried entries
// are copies, so the committed snapshot they came from is untouched.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "resilient/lossy_codec.h"
#include "resilient/snapshot.h"

namespace rgml::obs {
class TraceSink;
}

namespace rgml::resilient {

/// What save()/saveReadOnly() ship per checkpoint.
enum class CheckpointMode {
  Full,           ///< everything re-copied every checkpoint (baseline)
  ReadOnlyReuse,  ///< the paper's model: only saveReadOnly() skips work
  Delta,          ///< per-block version deltas; saveReadOnly() still reuses
  Lossy,          ///< full saves through the quantizing/compressing codec
  DeltaLossy,     ///< delta carry-forward; fresh entries go through the codec
};

/// Modes that carry unchanged entries forward instead of re-saving them.
[[nodiscard]] constexpr bool usesDelta(CheckpointMode mode) noexcept {
  return mode == CheckpointMode::Delta || mode == CheckpointMode::DeltaLossy;
}

/// Modes that run fresh saves through the lossy/compressed codec.
[[nodiscard]] constexpr bool usesLossy(CheckpointMode mode) noexcept {
  return mode == CheckpointMode::Lossy || mode == CheckpointMode::DeltaLossy;
}

[[nodiscard]] const char* toString(CheckpointMode mode) noexcept;

class AppResilientStore {
 public:
  /// Record the iteration the next snapshot will belong to. Called by the
  /// resilient executor before invoking the application's checkpoint();
  /// keeps the paper's zero-argument startNewSnapshot() signature.
  void setIteration(long iteration) noexcept { iteration_ = iteration; }

  /// Checkpoint mode for subsequent save()/saveReadOnly() calls.
  void setMode(CheckpointMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] CheckpointMode mode() const noexcept { return mode_; }

  /// Codec knobs for the lossy modes (errorBound <= 0 = lossless
  /// compression only). Ignored unless usesLossy(mode()).
  void setLossyConfig(const LossyConfig& cfg) noexcept { lossy_ = cfg; }
  [[nodiscard]] const LossyConfig& lossyConfig() const noexcept {
    return lossy_;
  }

  /// Replication factor k for subsequent save()/saveReadOnly() calls:
  /// every Snapshot the store asks an object to create keeps k copies of
  /// each entry on k distinct places (clamped to the object's group
  /// size). Default 2 — the paper's double in-memory storage.
  void setReplication(int k);
  [[nodiscard]] int replication() const noexcept { return replication_; }

  /// Begin a new application snapshot (for the iteration last given to
  /// setIteration). Throws if a snapshot is already in progress.
  void startNewSnapshot();

  /// Snapshot `obj` into the in-progress application snapshot.
  void save(Snapshottable& obj);

  /// Snapshot `obj`, reusing its Snapshot from the latest committed
  /// application snapshot if one exists (read-only objects are saved only
  /// once, at the first checkpoint).
  void saveReadOnly(Snapshottable& obj);

  /// Atomically promote the in-progress snapshot to "latest committed",
  /// retire the previous one and discard the one retired before it.
  void commit();

  /// Discard the in-progress snapshot (failure during checkpoint).
  void cancelSnapshot();

  /// Restore every object of the latest committed snapshot by calling its
  /// restoreSnapshot(). Objects must have been remake()-d over the new
  /// place group by the caller first (paper Listing 5, lines 9-14).
  void restore();

  /// Restore ONE object from the latest committed snapshot, leaving the
  /// others untouched. Algorithm-based recovery uses this to reload only
  /// the read-only inputs (A, b) while the live iterate is reconstructed
  /// from the recurrence. Throws if `obj` is not in the snapshot.
  void restoreOnly(Snapshottable& obj);

  [[nodiscard]] bool hasCommitted() const noexcept {
    return committed_ != nullptr;
  }
  [[nodiscard]] bool inProgress() const noexcept {
    return inProgress_ != nullptr;
  }

  /// Iteration of the latest committed snapshot; -1 if none.
  [[nodiscard]] long latestCommittedIteration() const noexcept {
    return committed_ ? committed_->iteration : -1;
  }

  /// Number of objects in the latest committed snapshot (0 if none).
  [[nodiscard]] std::size_t committedObjectCount() const noexcept {
    return committed_ ? committed_->objects.size() : 0;
  }

  /// Total payload bytes of the latest committed snapshot.
  [[nodiscard]] std::size_t committedBytes() const;

  /// Per-checkpoint accounting: what the last committed checkpoint
  /// actually copied (fresh) vs. reused (carried-forward delta entries
  /// plus whole Snapshots reused by saveReadOnly).
  struct CheckpointStats {
    std::uint64_t freshBytes = 0;
    std::uint64_t carriedBytes = 0;
    std::size_t freshEntries = 0;
    std::size_t carriedEntries = 0;
  };
  [[nodiscard]] const CheckpointStats& lastCheckpointStats() const noexcept {
    return lastStats_;
  }

 private:
  struct AppSnapshot {
    long iteration = -1;
    // Insertion-ordered so restore() replays saves in checkpoint order.
    std::vector<std::pair<Snapshottable*, std::shared_ptr<Snapshot>>> objects;

    [[nodiscard]] std::shared_ptr<Snapshot> find(
        const Snapshottable* obj) const {
      for (const auto& [o, s] : objects) {
        if (o == obj) return s;
      }
      return nullptr;
    }
  };

  /// Runs `make` (an object's makeSnapshot/makeDeltaSnapshot) under the
  /// store's replication factor, the given codec, and `obj`'s recycle
  /// source.
  template <class Make>
  std::shared_ptr<Snapshot> build(const Snapshottable& obj,
                                  const LossyConfig* codec, Make&& make);

  long iteration_ = 0;
  CheckpointMode mode_ = CheckpointMode::Delta;
  LossyConfig lossy_;
  int replication_ = 2;
  std::unique_ptr<AppSnapshot> retired_;  ///< committed before committed_
  std::unique_ptr<AppSnapshot> committed_;
  std::unique_ptr<AppSnapshot> inProgress_;
  CheckpointStats pendingStats_;  ///< accumulates while in progress
  CheckpointStats lastStats_;     ///< promoted by commit()

  /// Observability: the umbrella span opened at startNewSnapshot and
  /// closed by commit/cancelSnapshot, plus the sink it was opened on (so
  /// a sink swapped mid-checkpoint never receives a stray close).
  obs::TraceSink* snapshotSink_ = nullptr;
  std::size_t snapshotSpan_ = 0;
};

}  // namespace rgml::resilient
