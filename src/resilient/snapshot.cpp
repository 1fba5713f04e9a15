#include "resilient/snapshot.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "apgas/runtime.h"
#include "obs/trace_sink.h"
#include "resilient/lossy_codec.h"

namespace rgml::resilient {

using apgas::Place;
using apgas::PlaceId;
using apgas::Runtime;
using apgas::SnapshotLostException;

namespace {
thread_local int tlsDefaultReplication = 2;
thread_local std::weak_ptr<Snapshot> tlsRecycleSource;

/// Wall-clock buckets for the codec-time histogram (encode + decode).
const std::vector<double> kCodecSecondsBuckets{1e-6, 1e-5, 1e-4,
                                               1e-3, 1e-2, 0.1};

/// Takes the sink's lock: on the Threads backend every place's save
/// encodes on its own worker thread.
void noteCodecSeconds(double seconds) {
  if (auto* sink = obs::TraceSink::current()) {
    sink->observeMetric("snapshot.codec_seconds", kCodecSecondsBuckets,
                        seconds);
  }
}

/// Decode a stored payload if it went through the codec; pass raw values
/// through untouched. Decode wall time counts into the codec histogram
/// (cached inside the LossyValue, so repeat locates cost nothing).
std::shared_ptr<const SnapshotValue> decodeIfEncoded(
    const std::shared_ptr<const SnapshotValue>& value) {
  const auto* lossy = dynamic_cast<const LossyValue*>(value.get());
  if (!lossy) return value;
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const SnapshotValue> decoded = lossy->decode();
  noteCodecSeconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return decoded;
}
}  // namespace

int defaultReplication() noexcept { return tlsDefaultReplication; }

void setDefaultReplication(int k) {
  if (k < 1) {
    throw apgas::ApgasError("setDefaultReplication: k must be >= 1");
  }
  tlsDefaultReplication = k;
}

RecycleScope::RecycleScope(std::weak_ptr<Snapshot> source)
    : prev_(std::exchange(tlsRecycleSource, std::move(source))) {}

RecycleScope::~RecycleScope() { tlsRecycleSource = std::move(prev_); }

Snapshot::Snapshot(apgas::PlaceGroup pg, int replication)
    : pg_(std::move(pg)),
      replication_(replication > 0 ? replication : defaultReplication()),
      recycle_(tlsRecycleSource) {
  if (codecActive()) codec_ = activeCodecConfig();
  if (pg_.empty()) {
    throw apgas::ApgasError("Snapshot: empty place group");
  }
  killToken_ = Runtime::world().addKillListener(
      [this](PlaceId p) { onPlaceDeath(p); });
}

Snapshot::~Snapshot() {
  if (Runtime::initialized()) {
    Runtime::world().removeKillListener(killToken_);
  }
}

void Snapshot::onPlaceDeath(PlaceId p) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    for (Replica& r : entry.replicas) {
      if (r.place == p) r.value.reset();
    }
  }
}

void Snapshot::save(long key, std::shared_ptr<const SnapshotValue> value,
                    std::uint64_t version) {
  saveEntry(key, std::move(value), version, EntryNode{});
}

void Snapshot::saveEntry(long key, std::shared_ptr<const SnapshotValue> value,
                         std::uint64_t version, EntryNode node) {
  Runtime& rt = Runtime::world();
  const Place saver = rt.here();
  const long idx = pg_.indexOf(saver);
  if (idx < 0) {
    throw apgas::ApgasError(
        "Snapshot::save: saving place is not in the snapshot's group");
  }
  const long groupSize = static_cast<long>(pg_.size());
  const long k = std::min<long>(replication_, groupSize);

  // Lossy/compressed checkpointing: encode once on the saver, then every
  // charge below (serialisation + k-1 transfers) and every byte count the
  // snapshot reports is the encoded wire size. Replicas share the one
  // encoded payload, so k-way replication ships (k-1)x *encoded* bytes.
  if (codec_) {
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const LossyValue> encoded = encodeValue(*value, *codec_);
    noteCodecSeconds(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    if (encoded) {
      if (auto* sink = obs::TraceSink::current()) {
        sink->addMetric("snapshot.raw_bytes", encoded->rawBytes());
        sink->addMetric("snapshot.encoded_bytes", encoded->bytes());
      }
      value = std::move(encoded);
    }
  }

  // Uniform cost from any place: serialising the local copy plus one
  // remote transfer per backup replica (paper §IV-B1, k-1 transfers).
  rt.chargeSerialization(value->bytes());

  Entry fresh;
  Entry& entry = node ? node.mapped() : fresh;
  entry.replicas.clear();
  entry.replicas.push_back(Replica{value, saver.id()});
  std::size_t backupBytes = 0;
  for (long r = 1; r < k; ++r) {
    const Place holder = pg_((idx + r) % groupSize);
    // Partial fan-out window: a backup place that died before this save
    // never receives its copy. Recording the slot anyway would leave a
    // replica the cluster never materialised — restorable "data" on a
    // dead place — so the slot is dropped and the entry stays
    // under-replicated until the next checkpoint re-saves it fresh.
    if (rt.isDead(holder.id())) continue;
    rt.chargeComm(holder, value->bytes());
    backupBytes += value->bytes();
    entry.replicas.push_back(Replica{value, holder.id()});
  }
  entry.version = version;
  entry.carried = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (node) {
      entries_.erase(key);  // a repeated save of `key` replaces the entry
      entries_.insert(std::move(node));
    } else {
      entries_[key] = std::move(fresh);
    }
  }
  if (auto* sink = obs::TraceSink::current()) {
    sink->addMetric("snapshot.replica_bytes", backupBytes);
  }
}

Snapshot::EntryNode Snapshot::takeRecyclable(long key) {
  if (codec_) return {};
  const std::shared_ptr<Snapshot> source = recycle_.lock();
  if (!source) return {};
  const PlaceId here = Runtime::world().here().id();
  std::lock_guard<std::mutex> lock(source->mu_);
  auto it = source->entries_.find(key);
  if (it == source->entries_.end()) return {};
  const std::vector<Replica>& replicas = it->second.replicas;
  if (replicas.empty() || replicas[0].place != here || !replicas[0].value) {
    return {};
  }
  // Every live replica holds one reference to the shared payload; any
  // further reference belongs to another entry or a reader.
  const auto live = std::count_if(
      replicas.begin(), replicas.end(),
      [](const Replica& r) { return r.value != nullptr; });
  if (replicas[0].value.use_count() != live) return {};
  return source->entries_.extract(it);
}

bool Snapshot::fullyReplicated(const Entry& entry) const {
  const std::size_t expected = std::min<std::size_t>(
      static_cast<std::size_t>(replication_), pg_.size());
  if (entry.replicas.size() != expected) return false;
  return std::all_of(entry.replicas.begin(), entry.replicas.end(),
                     [](const Replica& r) { return r.value != nullptr; });
}

bool Snapshot::carryForward(long key, const Snapshot& prev,
                            std::uint64_t expectedVersion) {
  Runtime& rt = Runtime::world();
  if (pg_.indexOf(rt.here()) < 0) {
    throw apgas::ApgasError(
        "Snapshot::carryForward: carrying place is not in the snapshot's "
        "group");
  }
  // Lock both maps (this is always a fresh snapshot carrying from an
  // older, distinct one; scoped_lock orders the two safely).
  std::scoped_lock lock(mu_, prev.mu_);
  auto it = prev.entries_.find(key);
  if (it == prev.entries_.end()) return false;
  const Entry& old = it->second;
  if (old.version != expectedVersion) return false;
  // Carry only fully intact entries: a copy lost to an earlier failure —
  // or a backup slot skipped because its place was already dead at save
  // time — must be replaced by a fresh save, or the carried entry would
  // keep running with reduced redundancy forever.
  if (!fullyReplicated(old)) return false;

  // The existing copies are adopted wholesale (shared immutable payloads,
  // same holder places): no data moves, so no cost is charged — this is
  // the entire win of the delta checkpoint.
  Entry entry = old;
  entry.carried = true;
  entries_[key] = std::move(entry);
  return true;
}

bool Snapshot::carryForwardAll(const Snapshot& prev) {
  std::scoped_lock lock(mu_, prev.mu_);
  for (const auto& [key, old] : prev.entries_) {
    if (!fullyReplicated(old)) return false;
  }
  for (const auto& [key, old] : prev.entries_) {
    Entry entry = old;
    entry.carried = true;
    entries_[key] = std::move(entry);
  }
  return true;
}

std::uint64_t Snapshot::savedVersion(long key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.version;
}

std::uint64_t Snapshot::versionSum() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& [key, entry] : entries_) sum += entry.version;
  return sum;
}

bool Snapshot::isCarried(long key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.carried;
}

Snapshot::Located Snapshot::locate(long key) const {
  Located loc = locateRaw(key);
  loc.value = decodeIfEncoded(loc.value);
  return loc;
}

Snapshot::Located Snapshot::locateRaw(long key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return locateRawLocked(key);
}

Snapshot::Located Snapshot::locateRawLocked(long key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw apgas::ApgasError("Snapshot: no entry for key " +
                            std::to_string(key));
  }
  const Entry& e = it->second;
  const Runtime& rt = Runtime::world();
  const Place here = rt.here();
  // Prefer a copy on the loading place (cheap local load).
  for (const Replica& r : e.replicas) {
    if (r.value && r.place == here.id()) return {r.value, Place(r.place)};
  }
  // Else the nearest surviving replica in ring order from the primary;
  // primaries are block-cyclic over the group, so this spreads restore
  // reads across the surviving holders.
  for (const Replica& r : e.replicas) {
    if (r.value) return {r.value, Place(r.place)};
  }
  throw SnapshotLostException(key);
}

std::vector<apgas::PlaceId> Snapshot::replicaPlaces(long key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  std::vector<apgas::PlaceId> out;
  for (const Replica& r : it->second.replicas) {
    if (r.value) out.push_back(r.place);
  }
  return out;
}

std::shared_ptr<const SnapshotValue> Snapshot::load(long key) const {
  Located loc = locateRaw(key);
  Runtime& rt = Runtime::world();
  // Materialising the value costs a deserialisation pass; a remote copy
  // additionally pays the transfer (synchronous fetch). Both are charged
  // at the stored size — for an encoded entry that is the wire size; the
  // decode back to the original type happens after the transfer.
  if (loc.holder != rt.here()) {
    rt.chargeComm(loc.holder, loc.value->bytes());
  }
  rt.chargeSerialization(loc.value->bytes());
  return decodeIfEncoded(loc.value);
}

bool Snapshot::contains(long key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  for (const Replica& r : it->second.replicas) {
    if (r.value) return true;
  }
  return false;
}

std::vector<long> Snapshot::keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<long> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

std::size_t Snapshot::entryBytes(const Entry& entry) {
  for (const Replica& r : entry.replicas) {
    if (r.value) return r.value->bytes();
  }
  return 0;
}

std::size_t Snapshot::totalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) total += entryBytes(entry);
  return total;
}

std::size_t Snapshot::freshBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.carried) total += entryBytes(entry);
  }
  return total;
}

std::size_t Snapshot::carriedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.carried) total += entryBytes(entry);
  }
  return total;
}

std::size_t Snapshot::numCarried() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.carried) ++count;
  }
  return count;
}

}  // namespace rgml::resilient
