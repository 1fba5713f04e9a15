#include "apps/pagerank_resilient.h"

#include <cmath>
#include <vector>

#include "apgas/runtime.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::apps {

using apgas::PlaceGroup;
using apgas::Runtime;
using framework::RestoreMode;

PageRankResilient::PageRankResilient(const PageRankConfig& config,
                                     const PlaceGroup& pg)
    : config_(config), pg_(pg) {}

void PageRankResilient::init() {
  const long places = static_cast<long>(pg_.size());
  const long n = config_.pagesPerPlace * places;
  g_ = gml::DistBlockMatrix::makeSparse(
      n, n, config_.blocksPerPlace * places, 1, places, 1,
      config_.linksPerPage, pg_);
  if (config_.exactGraph) {
    g_.initFromCSR(la::makeWebGraph(n, config_.linksPerPage, config_.seed));
  } else {
    g_.initRandom(config_.seed, 0.0, 1.0 / config_.linksPerPage);
  }
  p_ = gml::DupVector::make(n, pg_);
  u_ = gml::DistVector::make(n, pg_);
  gp_ = gml::DistVector::make(n, pg_);
  scalars_ = resilient::SnapshottableScalars(1, pg_);

  const double uniform = 1.0 / static_cast<double>(n);
  p_.init(uniform);
  u_.init(1.0);
  iteration_ = 0;
}

bool PageRankResilient::isFinished() {
  return iteration_ >= config_.iterations;
}

void PageRankResilient::step() {
  gp_.mult(g_, p_);
  gp_.scale(config_.alpha);

  const long n = p_.size();
  const double utp1a =
      u_.dot(p_) * (1.0 - config_.alpha) / static_cast<double>(n);

  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    // Uncharged harness instrumentation: snapshot the old ranks before
    // they are overwritten so the L1 step delta (convergenceMetric) can
    // be computed without touching the simulated cost model. The buffer
    // is a member, so a step copies the ranks without allocating.
    const auto oldRanks = p_.local().span();
    prevRanks_.assign(oldRanks.begin(), oldRanks.end());
    gp_.copyTo(p_.local());
    la::addScalar(p_.local().span(), utp1a);
    rt.chargeDenseFlops(static_cast<double>(n));
    double delta = 0.0;
    const auto newRanks = p_.local().span();
    for (std::size_t i = 0; i < prevRanks_.size(); ++i) {
      delta += std::abs(newRanks[i] - prevRanks_[i]);
    }
    rankDelta_ = delta;
  });
  p_.sync();

  ++iteration_;
}

void PageRankResilient::checkpoint(resilient::AppResilientStore& store) {
  scalars_[0] = static_cast<double>(iteration_);
  store.startNewSnapshot();
  // The graph goes through the generic save(): the store's delta mode
  // discovers per block that nothing changed and carries every block
  // forward, matching saveReadOnly's cost without the app having to
  // promise immutability (and re-copying automatically if the graph ever
  // does change).
  store.save(g_);
  store.saveReadOnly(u_);
  store.save(p_);
  store.save(scalars_);
  store.commit();
}

void PageRankResilient::restore(const PlaceGroup& newPlaces,
                                resilient::AppResilientStore& store,
                                long snapshotIter, RestoreMode mode) {
  switch (mode) {
    case RestoreMode::Shrink:
    case RestoreMode::AlgorithmBased:  // unreachable: executor falls back
      g_.remakeShrink(newPlaces);
      break;
    case RestoreMode::ShrinkRebalance:
      g_.remakeRebalance(newPlaces);
      break;
    case RestoreMode::ReplaceRedundant:
    case RestoreMode::ReplaceElastic:
      g_.remakeSameDist(newPlaces);
      break;
  }
  u_.remake(newPlaces);
  p_.remake(newPlaces);
  gp_.remake(newPlaces);
  scalars_.remake(newPlaces);
  pg_ = newPlaces;

  store.restore();

  iteration_ = static_cast<long>(scalars_[0]);
  if (iteration_ != snapshotIter) {
    throw apgas::ApgasError(
        "PageRankResilient::restore: snapshot iteration mismatch");
  }
}

double PageRankResilient::rankSum() const { return p_.sum(); }

}  // namespace rgml::apps
