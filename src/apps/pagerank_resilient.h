// RESILIENT PageRank: the PageRank algorithm in the framework's
// four-method programming model (paper §V-A2, Listing 5, Table II).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/pagerank.h"
#include "framework/resilient_executor.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "resilient/snapshottable_scalars.h"

namespace rgml::apps {

class PageRankResilient final : public framework::ResilientIterativeApp {
 public:
  PageRankResilient(const PageRankConfig& config,
                    const apgas::PlaceGroup& pg);

  void init();

  // -- framework programming model ---------------------------------------
  [[nodiscard]] bool isFinished() override;
  void step() override;
  void checkpoint(resilient::AppResilientStore& store) override;
  void restore(const apgas::PlaceGroup& newPlaces,
               resilient::AppResilientStore& store, long snapshotIter,
               framework::RestoreMode mode) override;

  /// L1 rank delta of the last step (sum |p_new - p_old|) — the power
  /// iteration's own convergence measure. Computed outside the cost
  /// model: it is harness instrumentation, not algorithm work, so it
  /// must not perturb simulated time or golden digests.
  [[nodiscard]] double convergenceMetric() override { return rankDelta_; }

  [[nodiscard]] long iteration() const noexcept { return iteration_; }
  [[nodiscard]] const gml::DupVector& ranks() const noexcept { return p_; }
  /// The (sparse, read-only) link matrix — the chaos harness checks its
  /// structure and values survive every restore path.
  [[nodiscard]] const gml::DistBlockMatrix& graph() const noexcept {
    return g_;
  }
  [[nodiscard]] double rankSum() const;
  [[nodiscard]] const apgas::PlaceGroup& places() const noexcept {
    return pg_;
  }

 private:
  PageRankConfig config_;
  apgas::PlaceGroup pg_;

  gml::DistBlockMatrix g_;  ///< read-only
  gml::DupVector p_;
  gml::DistVector u_;   ///< read-only
  gml::DistVector gp_;  ///< scratch
  resilient::SnapshottableScalars scalars_;  ///< {iteration}

  std::vector<double> prevRanks_;  ///< step()'s copy of the old ranks
  double rankDelta_ = std::numeric_limits<double>::quiet_NaN();
  long iteration_ = 0;
};

}  // namespace rgml::apps
