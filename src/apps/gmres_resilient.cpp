#include "apps/gmres_resilient.h"

#include <cmath>
#include <vector>

#include "la/sparse_csr.h"

namespace rgml::apps {

using apgas::PlaceGroup;
using framework::RestoreMode;

namespace {
/// Deterministic NONSYMMETRIC diagonally dominant band matrix: lower and
/// upper off-diagonals decay at different rates, the diagonal carries a
/// small per-row variation. Dominance keeps the ILU(0) pivots healthy.
la::SparseCSR bandMatrix(long n, long band) {
  std::vector<long> rowPtr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<long> colIdx;
  std::vector<double> values;
  const auto maxNnz = static_cast<std::size_t>(n * (2 * band + 1));
  colIdx.reserve(maxNnz);
  values.reserve(maxNnz);
  for (long i = 0; i < n; ++i) {
    const long lo = std::max(0L, i - band);
    const long hi = std::min(n - 1, i + band);
    for (long j = lo; j <= hi; ++j) {
      colIdx.push_back(j);
      const double d = static_cast<double>(std::labs(i - j));
      if (j == i) {
        values.push_back(2.0 * static_cast<double>(band) + 1.8 +
                         0.2 * static_cast<double>(i % 5));
      } else if (j < i) {
        values.push_back(-1.0 / (1.0 + d));
      } else {
        values.push_back(-0.6 / (1.0 + d));
      }
    }
    rowPtr[static_cast<std::size_t>(i) + 1] =
        static_cast<long>(colIdx.size());
  }
  return {n, n, std::move(rowPtr), std::move(colIdx), std::move(values)};
}
}  // namespace

GmresResilient::GmresResilient(const GmresResilientConfig& config,
                               const PlaceGroup& pg)
    : config_(config), pg_(pg) {}

void GmresResilient::init() {
  const long places = static_cast<long>(pg_.size());
  const long n = config_.nPerPlace * places;
  A_ = gml::DistBlockMatrix::makeSparse(
      n, n, config_.blocksPerPlace * places, 1, places, 1,
      2 * config_.band + 1, pg_);
  A_.initFromCSR(bandMatrix(n, config_.band));
  b_ = gml::DistVector::make(n, pg_);
  b_.initRandom(config_.seed + 1);
  x_ = gml::DupVector::make(n, pg_);
  x_.init(0.0);
  scalars_ = resilient::SnapshottableScalars(2, pg_);
  M_.setup(A_);
  residual_ = 0.0;
  iteration_ = 0;
}

bool GmresResilient::isFinished() { return iteration_ >= config_.cycles; }

void GmresResilient::step() {
  // One GMRES(m) cycle. tolerance 0 runs all m Arnoldi steps every cycle
  // (deterministic trajectory for the chaos harness); x is only updated
  // at the end of the cycle, after every collective has succeeded, which
  // is what makes iteration-boundary failures recoverable in place.
  const gml::SolveResult res =
      gml::gmres(A_, b_, x_, M_, ws_, config_.restart, 1, 0.0);
  residual_ = res.residual;
  ++iteration_;
}

void GmresResilient::checkpoint(resilient::AppResilientStore& store) {
  scalars_[0] = residual_;
  scalars_[1] = static_cast<double>(iteration_);
  store.startNewSnapshot();
  store.saveReadOnly(A_);
  store.saveReadOnly(b_);
  store.save(x_);
  store.save(scalars_);
  store.commit();
}

void GmresResilient::restore(const PlaceGroup& newPlaces,
                             resilient::AppResilientStore& store,
                             long snapshotIter, RestoreMode mode) {
  if (mode == RestoreMode::AlgorithmBased) {
    // No rollback: inputs from the replicated store, the iterate from a
    // surviving replica, the preconditioner refactored from A. The
    // scalar state (residual, iteration) lives on the host and simply
    // persists.
    A_.remakeShrink(newPlaces);
    store.restoreOnly(A_);
    b_.remake(newPlaces);
    store.restoreOnly(b_);
    x_.remakeFromSurvivor(newPlaces);
    scalars_.remake(newPlaces);
    pg_ = newPlaces;
    M_.setup(A_);
    return;
  }

  switch (mode) {
    case RestoreMode::Shrink:
    case RestoreMode::AlgorithmBased:  // handled above
      A_.remakeShrink(newPlaces);
      break;
    case RestoreMode::ShrinkRebalance:
      A_.remakeRebalance(newPlaces);
      break;
    case RestoreMode::ReplaceRedundant:
    case RestoreMode::ReplaceElastic:
      A_.remakeSameDist(newPlaces);
      break;
  }
  b_.remake(newPlaces);
  x_.remake(newPlaces);
  scalars_.remake(newPlaces);
  pg_ = newPlaces;

  store.restore();
  M_.setup(A_);

  residual_ = scalars_[0];
  iteration_ = static_cast<long>(scalars_[1]);
  if (iteration_ != snapshotIter) {
    throw apgas::ApgasError(
        "GmresResilient::restore: snapshot iteration mismatch");
  }
}

}  // namespace rgml::apps
