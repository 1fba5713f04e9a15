// Lossy/compressed snapshot codec (CheckpointMode::Lossy).
//
// Tao et al. ("Improving Performance of Iterative Methods by Lossy
// Checkpointing") show iterative solvers tolerate bounded-error
// checkpoints: the iteration self-corrects after a restart, so the
// checkpoint only has to be accurate to within an error bound comparable
// to the solver's own convergence tolerance. The codec here implements
// that trade:
//
//   * errorBound > 0  — uniform scalar quantization. Each double v is
//     stored as q = round(v / (2*eb)) and reconstructed as q * (2*eb),
//     guaranteeing |v' - v| <= eb. Quantum indices are delta-encoded and
//     zigzag-varint packed, so smooth state (CG residuals, PageRank
//     ranks) costs ~1-3 bytes per double instead of 8.
//   * errorBound <= 0 — lossless compression only. Bit patterns are
//     XOR-ed with their predecessor and varint packed; similar doubles
//     share exponent/high-mantissa bits, so the XOR is a numerically
//     small integer and the varint is short. Round-trips are bit exact.
//
// Non-finite values (NaN, +/-Inf) and values whose quantum index would
// overflow the safe integer range are escaped to a lossless exception
// list (index + raw bit pattern) — PageRank residuals can go non-finite
// under injected kills and must survive a checkpoint round-trip exactly.
// Sparse structure (rowPtr/colIdx) and scalar metadata (iteration
// counters in ScalarsValue) are always lossless: a quantized iteration
// counter would corrupt `static_cast<long>(scalars[i])` restores.
//
// The active codec is a thread-local scope (CodecScope, mirroring
// ReplicationScope): a Snapshot constructed while a scope is active keeps
// its config and encodes every eligible value its save() stores — on
// whichever thread the save runs — so all Snapshottables get lossy
// checkpointing with zero per-class changes, and all byte accounting
// (fresh/carried/replica charges) sees encoded wire bytes by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "resilient/snapshot_value.h"

namespace rgml::resilient {

/// Codec knobs. errorBound is the absolute reconstruction error bound
/// per element; <= 0 selects the lossless-compression-only mode.
struct LossyConfig {
  double errorBound = 0.0;
};

/// RAII thread-local codec activation: a Snapshot constructed on this
/// thread while the scope is alive encodes every eligible value it saves
/// with `cfg`. Nesting restores the outer scope on destruction.
class CodecScope {
 public:
  explicit CodecScope(const LossyConfig& cfg);
  ~CodecScope();
  CodecScope(const CodecScope&) = delete;
  CodecScope& operator=(const CodecScope&) = delete;

 private:
  bool prevActive_;
  LossyConfig prev_;
};

/// True while a CodecScope is alive on this thread.
[[nodiscard]] bool codecActive() noexcept;
/// The active scope's config (meaningful only when codecActive()).
[[nodiscard]] LossyConfig activeCodecConfig() noexcept;

/// A snapshot value holding the encoded byte stream of another value.
/// bytes() is the *encoded* size, so every charge and every fresh/
/// carried/replica byte count in the store is wire bytes. decode() is
/// cached: replica fan-out shares one immutable payload, and the
/// repartitioned restore path may locate the same entry twice.
class LossyValue final : public SnapshotValue {
 public:
  LossyValue(std::vector<std::uint8_t> encoded, std::size_t rawBytes)
      : encoded_(std::move(encoded)), rawBytes_(rawBytes) {}

  [[nodiscard]] std::size_t bytes() const override {
    return encoded_.size();
  }
  /// The decoded payload's size — what bytes() would have been without
  /// the codec (compression-ratio accounting).
  [[nodiscard]] std::size_t rawBytes() const noexcept { return rawBytes_; }
  [[nodiscard]] const std::vector<std::uint8_t>& encoded() const noexcept {
    return encoded_;
  }

  /// Decode to the original value type (thread-safe, cached).
  [[nodiscard]] std::shared_ptr<const SnapshotValue> decode() const;

 private:
  std::vector<std::uint8_t> encoded_;
  std::size_t rawBytes_;
  mutable std::once_flag decodeOnce_;
  mutable std::shared_ptr<const SnapshotValue> decoded_;
};

/// Encode `value` under `cfg`. Returns nullptr when the subtype is not
/// codec-eligible (unknown subtypes, e.g. grid metadata) — the caller
/// stores the value raw. ScalarsValue is always encoded losslessly
/// regardless of cfg.errorBound.
[[nodiscard]] std::shared_ptr<const LossyValue> encodeValue(
    const SnapshotValue& value, const LossyConfig& cfg);

/// Decode a byte stream produced by encodeValue. Throws
/// serialize::SerializeError on malformed input.
[[nodiscard]] std::shared_ptr<const SnapshotValue> decodeValue(
    const std::vector<std::uint8_t>& encoded);

}  // namespace rgml::resilient
