#include "resilient/disk_checkpoint.h"

#include <charconv>
#include <fstream>

#include "apgas/runtime.h"
#include "resilient/value_serde.h"
#include "serialize/binary_io.h"

namespace rgml::resilient {

using apgas::Runtime;

namespace {

std::filesystem::path keyFile(const std::filesystem::path& dir, long key) {
  return dir / (std::to_string(key) + ".snap");
}

/// The key a `<key>.snap` file holds. The whole stem must be the key: a
/// stray `backup.snap` or `3-old.snap` is no snapshot entry.
long fileKey(const std::filesystem::path& file) {
  const std::string stem = file.stem().string();
  const char* end = stem.data() + stem.size();
  long key = 0;
  const auto [ptr, ec] = std::from_chars(stem.data(), end, key);
  if (ec != std::errc{} || ptr != end) {
    throw serialize::SerializeError("not a snapshot key file: " +
                                    file.string());
  }
  return key;
}

void chargeDisk(Runtime& rt, std::size_t bytes) {
  const auto& cm = rt.costModel();
  rt.advance(cm.diskLatency + static_cast<double>(bytes) * cm.diskPerByte);
}

}  // namespace

std::size_t persistToDisk(const Snapshot& snapshot,
                          const std::filesystem::path& dir) {
  Runtime& rt = Runtime::world();
  std::filesystem::create_directories(dir);
  std::size_t total = 0;
  for (long key : snapshot.keys()) {
    const auto located = snapshot.locate(key);
    std::ofstream out(keyFile(dir, key), std::ios::binary | std::ios::trunc);
    if (!out) {
      throw serialize::SerializeError("cannot open snapshot file for key " +
                                      std::to_string(key));
    }
    writeSnapshotValue(out, *located.value);
    out.close();
    const std::size_t bytes = located.value->bytes();
    rt.chargeSerialization(bytes);
    chargeDisk(rt, bytes);
    total += bytes;
  }
  if (auto meta = snapshot.meta()) {
    std::ofstream out(dir / "_meta.snap", std::ios::binary | std::ios::trunc);
    if (!out) throw serialize::SerializeError("cannot open meta file");
    writeSnapshotValue(out, *meta);
    chargeDisk(rt, meta->bytes());
  }
  return total;
}

std::shared_ptr<Snapshot> loadFromDisk(const std::filesystem::path& dir,
                                       const apgas::PlaceGroup& pg) {
  Runtime& rt = Runtime::world();
  auto snapshot = std::make_shared<Snapshot>(pg);
  rt.at(pg(0), [&] {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".snap") continue;
      const bool meta = entry.path().stem() == "_meta";
      const long key = meta ? 0 : fileKey(entry.path());
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) {
        throw serialize::SerializeError("cannot open " +
                                        entry.path().string());
      }
      auto value = readSnapshotValue(in);
      chargeDisk(rt, value->bytes());
      rt.chargeSerialization(value->bytes());
      if (meta) {
        snapshot->setMeta(std::move(value));
      } else {
        snapshot->save(key, std::move(value));
      }
    }
  });
  return snapshot;
}

}  // namespace rgml::resilient
