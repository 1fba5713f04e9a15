// DistVector: a vector partitioned into one contiguous segment per place
// (x10.matrix.distblock.DistVector).
//
// Segments follow a balanced 1D partition of [0, n). remake() always
// recalculates the segmentation for the new place group (paper §IV-A2:
// classes that assign one block per place must recalculate the data grid),
// so restoreSnapshot() maps new segment ranges onto the saved ones,
// copying overlapping sub-ranges when the partition changed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "apgas/place_group.h"
#include "apgas/place_local_handle.h"
#include "la/vector.h"
#include "resilient/snapshot.h"

namespace rgml::gml {

class DistBlockMatrix;
class DupVector;

class DistVector final : public resilient::Snapshottable {
 public:
  DistVector() = default;

  /// A zero vector of length n, balanced over `pg`.
  static DistVector make(long n, const apgas::PlaceGroup& pg);

  [[nodiscard]] long size() const noexcept { return n_; }
  [[nodiscard]] const apgas::PlaceGroup& placeGroup() const noexcept {
    return pg_;
  }

  /// Global start index / length of segment `idx`.
  [[nodiscard]] long segOffset(long idx) const;
  [[nodiscard]] long segSize(long idx) const;

  /// The segment stored at the current place.
  [[nodiscard]] la::Vector& localSegment() const;

  /// Set all elements to `v`.
  void init(double v);
  /// Deterministic uniform fill; element values depend only on (seed, n),
  /// not on the distribution.
  void initRandom(std::uint64_t seed, double lo = 0.0, double hi = 1.0);
  /// Initialise element i to fn(i).
  void init(const std::function<double(long)>& fn);

  /// this = A * x. Works for any block-to-place mapping of A: each place
  /// multiplies its blocks and scatter-adds the partial row ranges into
  /// the owning segments. When every block's rows fall inside its owner's
  /// segment (the common aligned layout) a fused single-finish path runs
  /// with no data movement at all.
  void mult(const DistBlockMatrix& A, const DupVector& x);

  /// True if `mult(A, .)` would take the fused local path.
  [[nodiscard]] bool multIsAligned(const DistBlockMatrix& A) const;

  /// sum_i this_i * x_i with x duplicated: local dots + scalar reduction.
  [[nodiscard]] double dot(const DupVector& x) const;

  // The ops below that take a second DistVector (dot, cellAdd, axpy,
  // cellMult, cellDiv, copyFrom, map2) combine each place's segment with
  // the other vector's segment at the same place, so both must have the
  // same length over an equal place group (same places, same order);
  // otherwise they throw ApgasError "incompatible distributions".

  /// sum_i this_i * o_i; both distributed.
  [[nodiscard]] double dot(const DistVector& o) const;

  void scale(double a);
  void cellAdd(const DistVector& o);
  /// this += a * x.
  void axpy(double a, const DistVector& x);
  /// Elementwise multiply / divide.
  void cellMult(const DistVector& o);
  void cellDiv(const DistVector& o);
  /// Segment-wise copy.
  void copyFrom(const DistVector& o);
  /// Take this vector's elements from a duplicated vector's replica.
  void copyFromDup(const DupVector& src);
  /// Global extrema (local scans + scalar reduction).
  [[nodiscard]] double max() const;
  [[nodiscard]] double min() const;
  /// Elementwise map in place: seg[i] = fn(seg[i], globalIndex).
  void map(const std::function<double(double, long)>& fn,
           double flopsPerElement = 1.0);
  /// Elementwise map with a second distributed operand:
  /// seg[i] = fn(seg[i], o.seg[i], globalIndex).
  void map2(const DistVector& o,
            const std::function<double(double, double, long)>& fn,
            double flopsPerElement = 1.0);

  [[nodiscard]] double norm2() const;
  [[nodiscard]] double sum() const;

  /// Gather all segments into `dst` at the calling place (flat gather,
  /// serialised on this place's clock). |dst| must equal size().
  void copyTo(la::Vector& dst) const;
  /// Scatter `src` from the calling place into the segments.
  void copyFrom(const la::Vector& src);

  /// Element read for tests/verification (charges one small message when
  /// the element is remote).
  [[nodiscard]] double at(long i) const;

  /// Repartition over `newPg` (balanced segmentation; contents zeroed).
  void remake(const apgas::PlaceGroup& newPg);

  /// Erase the segments on every place; copies that alias them find none
  /// afterwards, and only make() or remake() allocates again.
  void destroy() { plh_.destroy(); }

  // -- Snapshottable ------------------------------------------------------
  /// Keys are place indices; values carry the segment plus its global
  /// offset so a repartitioned restore can re-map ranges.
  [[nodiscard]] std::shared_ptr<resilient::Snapshot> makeSnapshot()
      const override;
  void restoreSnapshot(const resilient::Snapshot& snapshot) override;

 private:
  DistVector(long n, apgas::PlaceGroup pg);
  void alloc();

  long n_ = 0;
  apgas::PlaceGroup pg_;
  std::vector<long> segSizes_;
  std::vector<long> segOffsets_;
  apgas::PlaceLocalHandle<la::Vector> plh_;
  /// Serialises unaligned mult() scatter-adds into this vector's segments.
  /// Shared-ptr so copies (which share plh_) share it, and so independent
  /// vectors in concurrent sweep worlds never contend on each other.
  std::shared_ptr<std::mutex> scatterMu_ = std::make_shared<std::mutex>();

  friend class DupVector;        // transMult reads segments
  friend class DistBlockMatrix;  // mult scatter-adds into segments
};

}  // namespace rgml::gml
