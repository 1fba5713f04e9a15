// RESILIENT restarted GMRES(m) on a sparse nonsymmetric banded system
// A x = b — the second app of the Krylov suite.
//
// step() runs ONE restart cycle (m inner Arnoldi steps + the
// least-squares update of x), so the persistent state between steps is
// just the iterate x plus two scalars: the Krylov basis's values live
// and die inside a cycle. That makes GMRES the cheapest app to
// checkpoint and the best case for algorithm-based recovery — on a
// failure, A and b are reloaded from the replicated store, x is
// re-broadcast from any surviving replica, the ILU(0) preconditioner is
// refactored deterministically from A's values, and the run continues
// from the CURRENT cycle with zero rollback (supportsAlgorithmRecovery()
// == true). The same boundary-kill consistency requirement as
// CgResilient applies: the first collective of a cycle touches only
// scratch, so iteration-boundary failures surface before x mutates;
// mid-step dispatch kills need the rollback modes.
//
// The basis's storage persists: the app holds one gml::GmresWorkspace
// that every cycle reuses, so a steady cycle makes no place-local
// object. Neither init() nor restore() builds it; the first cycle over
// a new place group remakes it there and erases the old one.
#pragma once

#include <cstdint>

#include "framework/resilient_executor.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "gml/solvers.h"
#include "resilient/snapshottable_scalars.h"

namespace rgml::apps {

struct GmresResilientConfig {
  long nPerPlace = 16;      ///< unknowns per place (n = nPerPlace * places)
  long band = 2;            ///< half-bandwidth of the band matrix
  long blocksPerPlace = 2;  ///< row blocks per place in A
  long restart = 5;         ///< m: Arnoldi steps per cycle
  long cycles = 10;         ///< restart cycles to run (one per step())
  std::uint64_t seed = 91;
};

class GmresResilient final : public framework::ResilientIterativeApp {
 public:
  GmresResilient(const GmresResilientConfig& config,
                 const apgas::PlaceGroup& pg);

  void init();

  // -- framework programming model ---------------------------------------
  [[nodiscard]] bool isFinished() override;
  void step() override;
  void checkpoint(resilient::AppResilientStore& store) override;
  void restore(const apgas::PlaceGroup& newPlaces,
               resilient::AppResilientStore& store, long snapshotIter,
               framework::RestoreMode mode) override;
  [[nodiscard]] bool supportsAlgorithmRecovery() const override {
    return true;
  }

  /// Preconditioned residual norm after the last completed cycle.
  [[nodiscard]] double convergenceMetric() override { return residual_; }

  [[nodiscard]] long iteration() const noexcept { return iteration_; }
  [[nodiscard]] double residual() const noexcept { return residual_; }
  [[nodiscard]] const gml::DupVector& solution() const noexcept {
    return x_;
  }
  [[nodiscard]] const gml::DistBlockMatrix& matrix() const noexcept {
    return A_;
  }
  [[nodiscard]] const apgas::PlaceGroup& places() const noexcept {
    return pg_;
  }

 private:
  GmresResilientConfig config_;
  apgas::PlaceGroup pg_;

  gml::DistBlockMatrix A_;  ///< read-only: saveReadOnly at checkpoints
  gml::DistVector b_;       ///< read-only
  gml::DupVector x_;
  gml::Ilu0Preconditioner M_;                ///< refactored from A on restore
  gml::GmresWorkspace ws_;  ///< cycle scratch; never checkpointed
  resilient::SnapshottableScalars scalars_;  ///< {residual, iteration}

  double residual_ = 0.0;
  long iteration_ = 0;
};

}  // namespace rgml::apps
