// DupVector: a vector duplicated at every place of a PlaceGroup
// (x10.matrix.distblock.DupVector).
//
// Replicated elementwise operations are applied at every place (one finish
// each), keeping all replicas consistent; reductions over duplicated data
// (dot, norm) are computed locally with no communication. sync() re-copies
// one replica to all others (the "broadcast" of the paper's PageRank,
// Listing 2 line 17).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "apgas/place_group.h"
#include "apgas/place_local_handle.h"
#include "la/vector.h"
#include "resilient/snapshot.h"

namespace rgml::gml {

class DistBlockMatrix;
class DistVector;

class DupVector final : public resilient::Snapshottable {
 public:
  DupVector() = default;

  /// A zero vector of length n duplicated over `pg`.
  static DupVector make(long n, const apgas::PlaceGroup& pg);

  [[nodiscard]] long size() const noexcept { return n_; }
  [[nodiscard]] const apgas::PlaceGroup& placeGroup() const noexcept {
    return pg_;
  }

  /// The replica at the current place (X10's `P.local()`).
  [[nodiscard]] la::Vector& local() const;

  /// Set every replica's elements to `v`.
  void init(double v);
  /// Fill with deterministic uniform values in [lo, hi) at the root
  /// replica, then sync().
  void initRandom(std::uint64_t seed, double lo = 0.0, double hi = 1.0);
  /// Initialise element i to fn(i) at the root replica, then sync().
  void init(const std::function<double(long)>& fn);

  /// Broadcast algorithm for sync(): GML's evaluated version uses Flat
  /// (the root sends to each member in turn — linear in the group size,
  /// the paper's non-resilient scaling driver); Tree is the binomial
  /// alternative (logarithmic), kept as an ablation.
  enum class SyncAlgorithm { Flat, Tree };
  void setSyncAlgorithm(SyncAlgorithm alg) noexcept { syncAlg_ = alg; }

  /// Broadcast replica `rootIdx` to every other replica.
  void sync(std::size_t rootIdx = 0);

  // -- replicated elementwise operations (one finish each) ---------------
  void scale(double a);
  void cellAdd(const DupVector& other);
  void cellAdd(double c);
  /// this += a * x.
  void axpy(double a, const DupVector& x);
  void copyFrom(const DupVector& other);

  // -- local reductions (replicas identical; no communication) -----------
  [[nodiscard]] double dot(const DupVector& other) const;
  [[nodiscard]] double norm2() const;
  [[nodiscard]] double sum() const;

  /// this = A^T * y, replicated. Each place computes a partial from its
  /// blocks, partials are reduced at the root and broadcast (the dominant
  /// communication of LinReg/LogReg).
  void transMult(const DistBlockMatrix& A, const DistVector& y);

  /// Gather a distributed vector into every replica: flat gather at the
  /// root replica followed by sync() (PageRank's Listing 2 lines 15-17
  /// pattern as one call).
  void copyFromDist(const DistVector& src);

  /// Reallocate the replicas over `newPg` (contents zeroed; restore from a
  /// snapshot to recover data). Paper §IV-A: for duplicated classes,
  /// changing the place group just means duplicating over a different
  /// number of places.
  void remake(const apgas::PlaceGroup& newPg);

  /// Erase the replicas on every place; copies that alias them find none
  /// afterwards, and only make() or remake() allocates again.
  void destroy() { plh_.destroy(); }

  /// Algorithm-based recovery: reallocate over `newPg` and repopulate
  /// every replica from a surviving replica of the CURRENT group — no
  /// snapshot involved. The data flow is survivor -> newPg(0) ->
  /// broadcast. Throws DeadPlaceException when no member of the current
  /// group is live (then only a checkpoint can recover the data).
  void remakeFromSurvivor(const apgas::PlaceGroup& newPg);

  // -- Snapshottable ------------------------------------------------------
  /// Saves ONE replica (they are identical) from the first member, which
  /// the store doubles as usual (local + next place). Checkpoint cost is
  /// therefore independent of the replica count.
  [[nodiscard]] std::shared_ptr<resilient::Snapshot> makeSnapshot()
      const override;
  /// Every place (re)loads its replica from the saved copy.
  void restoreSnapshot(const resilient::Snapshot& snapshot) override;

 private:
  DupVector(long n, apgas::PlaceGroup pg);

  long n_ = 0;
  apgas::PlaceGroup pg_;
  apgas::PlaceLocalHandle<la::Vector> plh_;
  SyncAlgorithm syncAlg_ = SyncAlgorithm::Flat;
};

}  // namespace rgml::gml
