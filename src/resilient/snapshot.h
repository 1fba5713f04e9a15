// Snapshot: the resilient key/value store for one GML object's state
// (paper §IV-B, generalised to a configurable replication factor).
//
// A Snapshot stores key/value pairs with *k-way in-memory replication*:
// the saving place keeps the primary copy and the next k-1 places of the
// snapshot's PlaceGroup (ring order) each keep a backup — block-cyclic
// placement, so the replicas of entries saved from different places
// interleave evenly around the ring. Saving costs a local serialisation
// plus k-1 remote transfers (uniform from every place); loading costs
// depend on where the nearest surviving copy lives. A value is lost —
// SnapshotLostException — only if all k holders died since the checkpoint
// (e.g. k adjacent places). k = 2 is exactly the paper's double
// in-memory storage.
//
// Keys are chosen by each Snapshottable class: place indices for vectors
// (the paper's convention), block ids for DistBlockMatrix (finer-grained,
// same replication semantics).
//
// A Snapshot takes three settings from the thread that constructs it —
// the replication factor k (ReplicationScope), the codec (CodecScope) and
// the recycle source (RecycleScope) — and keeps them, so a collective
// save whose per-place tasks run on other threads (the Threads backend)
// behaves as if every save ran on the constructing thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "apgas/place_group.h"
#include "resilient/lossy_codec.h"
#include "resilient/snapshot_value.h"

namespace rgml::resilient {

/// Thread-local default replication factor used by Snapshots constructed
/// without an explicit one (thread-local so parallel chaos sweeps with
/// per-thread worlds stay independent). Starts at 2 — the paper's double
/// in-memory storage.
[[nodiscard]] int defaultReplication() noexcept;
void setDefaultReplication(int k);

/// RAII override of the thread-local default replication factor; the
/// AppResilientStore wraps makeSnapshot()/makeDeltaSnapshot() calls in
/// one so every Snapshot an object creates inherits the store's k.
class ReplicationScope {
 public:
  explicit ReplicationScope(int k) : prev_(defaultReplication()) {
    setDefaultReplication(k);
  }
  ~ReplicationScope() { setDefaultReplication(prev_); }
  ReplicationScope(const ReplicationScope&) = delete;
  ReplicationScope& operator=(const ReplicationScope&) = delete;

 private:
  int prev_;
};

class Snapshot;

/// RAII: Snapshots constructed on this thread while the scope is alive
/// take `source` as their recycle source (see Snapshot::emplace). The
/// AppResilientStore opens one around each makeSnapshot()/
/// makeDeltaSnapshot() call with the object's Snapshot in its retired
/// slot, or an empty pointer when that slot is not the Snapshot's only
/// owner. Nesting restores the outer source on destruction.
class RecycleScope {
 public:
  explicit RecycleScope(std::weak_ptr<Snapshot> source);
  ~RecycleScope();
  RecycleScope(const RecycleScope&) = delete;
  RecycleScope& operator=(const RecycleScope&) = delete;

 private:
  std::weak_ptr<Snapshot> prev_;
};

/// Interface implemented by every GML object that can be checkpointed
/// (paper Listing 3).
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  /// Collectively saves the object's state into a fresh Snapshot.
  [[nodiscard]] virtual std::shared_ptr<Snapshot> makeSnapshot() const = 0;
  /// Delta variant: saves into a fresh Snapshot, but may carry entries
  /// forward from `prev` (the object's Snapshot in the last committed
  /// application snapshot) instead of re-copying unchanged state. The
  /// default is a full save; classes with per-key version stamps (e.g.
  /// DistBlockMatrix blocks) override it.
  [[nodiscard]] virtual std::shared_ptr<Snapshot> makeDeltaSnapshot(
      const Snapshot& prev) const {
    (void)prev;
    return makeSnapshot();
  }
  /// Collectively restores the object's state from `snapshot`. The object
  /// may have been remake()-d over a different place group and/or data
  /// grid since the snapshot was taken. Restore never distinguishes fresh
  /// from carried-forward entries.
  virtual void restoreSnapshot(const Snapshot& snapshot) = 0;
};

class Snapshot {
 public:
  /// A snapshot whose copies will live on `pg` (the object's group at
  /// checkpoint time), with `replication` copies per entry on distinct
  /// places (clamped to the group size; 0 = the thread-local default).
  /// Captures this thread's codec and recycle source. Registers a kill
  /// listener so that place failures invalidate the copies that place
  /// held.
  explicit Snapshot(apgas::PlaceGroup pg, int replication = 0);
  ~Snapshot();

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// The replication factor entries of this snapshot are saved with
  /// (before clamping to the group size).
  [[nodiscard]] int replication() const noexcept { return replication_; }

  /// Saves `value` under `key` from the *current place* (must be a member
  /// of the snapshot's group): primary copy here, backups on the next
  /// k-1 places in ring order. Charges a local serialisation plus one
  /// remote transfer per backup. A backup slot whose place already died
  /// is skipped — recording it would fake redundancy the cluster never
  /// had (the transfer could not have completed).
  /// `version` is the saver's modification stamp for this key (0 when the
  /// caller does not track versions); a later delta snapshot carries the
  /// entry forward while the stamp still matches.
  /// When a CodecScope was active on the thread that constructed this
  /// snapshot (CheckpointMode::Lossy), the value is encoded first and the
  /// entry stores the encoded bytes: serialisation/transfer charges,
  /// replica accounting and every fresh/carried/total byte count are wire
  /// (encoded) bytes.
  void save(long key, std::shared_ptr<const SnapshotValue> value,
            std::uint64_t version = 0);

  /// save(key, std::make_shared<V>(args...), version), with the same
  /// charges, byte counts and entry — except that when the recycle
  /// source holds an entry this save may take over (see takeRecyclable()),
  /// the entry moves here: its payload, if it is a V, is refilled in place
  /// through V::assign(args...), and the payload buffers, the map node and
  /// the replica list are reused instead of allocating new ones.
  template <class V, class... Args>
  void emplace(long key, std::uint64_t version, Args&&... args) {
    EntryNode node = takeRecyclable(key);
    std::shared_ptr<V> value;
    if (node) {
      value = std::const_pointer_cast<V>(std::dynamic_pointer_cast<const V>(
          node.mapped().replicas[0].value));
    }
    if (value) {
      value->assign(std::forward<Args>(args)...);
    } else {
      value = std::make_shared<V>(std::forward<Args>(args)...);
    }
    saveEntry(key, std::move(value), version, std::move(node));
  }

  /// Delta-checkpoint path: copies `prev`'s entry for `key` into this
  /// snapshot — same payload pointers, same holder places, same version —
  /// without charging any serialisation or transfer cost (the copies
  /// already exist; nothing moves). Succeeds only when the entry's saved
  /// version equals `expectedVersion` AND every replica the entry was
  /// created with is still alive AND the entry has as many replicas as
  /// this snapshot's replication factor demands (a degraded or
  /// under-replicated entry is re-saved fresh instead, so a delta
  /// checkpoint re-establishes full k-way redundancy). Returns whether
  /// the entry was carried; on false the caller must save() fresh.
  bool carryForward(long key, const Snapshot& prev,
                    std::uint64_t expectedVersion);

  /// All-clean fast path: carries *every* entry of `prev` into this
  /// snapshot, succeeding only when each one is fully intact (all k
  /// replicas alive). All-or-nothing — on false this snapshot is left
  /// unchanged and the caller must take the per-entry path. Charges
  /// nothing: like saveReadOnly, a fully clean object is pure place-0
  /// metadata reuse.
  bool carryForwardAll(const Snapshot& prev);

  /// The version stamp recorded when `key` was saved (0 if absent).
  [[nodiscard]] std::uint64_t savedVersion(long key) const;

  /// Sum of all entries' version stamps. Versions are monotone, so an
  /// unchanged sum across two snapshots of the same key set means no key
  /// was touched in between (any mutation strictly increases the sum).
  [[nodiscard]] std::uint64_t versionSum() const;

  /// True if `key`'s entry was carried forward from a previous snapshot
  /// rather than saved fresh into this one.
  [[nodiscard]] bool isCarried(long key) const;

  /// Loads the value for `key` from the perspective of the current place,
  /// charging a local copy if a copy lives here, else one remote transfer.
  /// Throws SnapshotLostException if every replica is gone. An entry saved
  /// under a CodecScope is decoded transparently: the transfer is charged
  /// at the encoded (wire) size, the returned value is the decoded
  /// original type.
  [[nodiscard]] std::shared_ptr<const SnapshotValue> load(long key) const;

  /// Locates the nearest surviving copy for `key` without charging any
  /// cost: a copy on the loading place when one survives there, else the
  /// first surviving replica in ring order from the primary. Returns the
  /// value and the place currently holding it. Primaries are block-cyclic
  /// across the group, so ring-order selection spreads restore reads
  /// evenly over the survivors. Callers that copy only a sub-region (the
  /// repartitioned restore path) use this and charge the sub-region bytes
  /// themselves. Encoded entries are decoded (cached, so locating the
  /// same entry twice decodes once).
  struct Located {
    std::shared_ptr<const SnapshotValue> value;
    apgas::Place holder;
  };
  [[nodiscard]] Located locate(long key) const;

  /// Places still holding a live replica of `key`, in ring order from the
  /// primary (property tests assert distinctness and balance with this).
  [[nodiscard]] std::vector<apgas::PlaceId> replicaPlaces(long key) const;

  [[nodiscard]] bool contains(long key) const;
  [[nodiscard]] std::vector<long> keys() const;
  [[nodiscard]] std::size_t numEntries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Total payload bytes over all entries with at least one live copy
  /// (each entry counted once, not per replica).
  [[nodiscard]] std::size_t totalBytes() const;

  /// Bytes of entries saved fresh into this snapshot (actually copied and
  /// re-replicated at save time) vs. carried forward from a predecessor.
  [[nodiscard]] std::size_t freshBytes() const;
  [[nodiscard]] std::size_t carriedBytes() const;
  [[nodiscard]] std::size_t numCarried() const;

  /// Optional per-snapshot metadata (e.g. the Grid a DistBlockMatrix was
  /// partitioned with at checkpoint time).
  void setMeta(std::shared_ptr<const SnapshotValue> meta) {
    meta_ = std::move(meta);
  }
  [[nodiscard]] std::shared_ptr<const SnapshotValue> meta() const {
    return meta_;
  }

  [[nodiscard]] const apgas::PlaceGroup& placeGroup() const noexcept {
    return pg_;
  }

 private:
  /// One copy of an entry's payload. The shared immutable payload
  /// simulates the per-place copies; `value` is reset when `place` dies.
  struct Replica {
    std::shared_ptr<const SnapshotValue> value;
    apgas::PlaceId place = apgas::kInvalidPlace;
  };

  struct Entry {
    std::vector<Replica> replicas;  ///< [0] is the primary on the saver
    std::uint64_t version = 0;      ///< saver's stamp at save time
    bool carried = false;           ///< carried forward, not saved fresh
  };

  /// Bytes of the surviving copy for one entry (0 if every copy died).
  static std::size_t entryBytes(const Entry& entry);

  /// locate() without decoding: the stored (possibly encoded) payload.
  [[nodiscard]] Located locateRaw(long key) const;

  /// True when every replica the entry was created with is still alive
  /// and the entry carries the full complement this snapshot demands.
  [[nodiscard]] bool fullyReplicated(const Entry& entry) const;

  void onPlaceDeath(apgas::PlaceId p);
  /// locateRaw with mu_ already held (shared by locate/load/contains).
  [[nodiscard]] Located locateRawLocked(long key) const;

  using EntryNode = std::map<long, Entry>::node_type;

  /// save() into `node` when it holds an entry (taken from the recycle
  /// source), else into a new one.
  void saveEntry(long key, std::shared_ptr<const SnapshotValue> value,
                 std::uint64_t version, EntryNode node);

  /// Removes and returns the recycle source's entry for `key` when
  /// emplace() may take it over: this snapshot has no codec, the source's
  /// primary copy of the entry lives on the saving place, and the source
  /// entry's live replicas are the payload's only owners — so never a
  /// payload that a committed, in-progress or carried entry, or a reader,
  /// still holds. An empty node otherwise.
  [[nodiscard]] EntryNode takeRecyclable(long key);

  apgas::PlaceGroup pg_;
  int replication_ = 2;
  std::optional<LossyConfig> codec_;  ///< set when saves encode
  /// The retired slot's Snapshot of the same object; weak, so it never
  /// keeps the retired slot alive past the commit that drops it.
  std::weak_ptr<Snapshot> recycle_;
  /// Guards entries_ (structure and the replica value pointers). On the
  /// Threads backend a collective save runs one task per place
  /// concurrently into this one snapshot, and a kill listener may reset
  /// replica values from yet another thread; on the simulated backend the
  /// lock is uncontended.
  mutable std::mutex mu_;
  std::map<long, Entry> entries_;
  std::shared_ptr<const SnapshotValue> meta_;
  std::uint64_t killToken_ = 0;
};

}  // namespace rgml::resilient
