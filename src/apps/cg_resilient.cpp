#include "apps/cg_resilient.h"

#include <cmath>
#include <vector>

#include "la/sparse_csr.h"

namespace rgml::apps {

using apgas::PlaceGroup;
using framework::RestoreMode;

namespace {
/// Deterministic symmetric positive definite band matrix: off-diagonals
/// decay with distance, the diagonal strictly dominates the row with a
/// small per-row variation (so the Jacobi preconditioner is non-trivial).
la::SparseCSR spdBandMatrix(long n, long band) {
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
      if (j == i) {
        values.push_back(2.0 * static_cast<double>(band) + 1.5 +
                         0.25 * static_cast<double>(i % 7));
      } else {
        values.push_back(-1.0 / (1.0 + static_cast<double>(std::labs(i - j))));
      }
    }
    rowPtr[static_cast<std::size_t>(i) + 1] =
        static_cast<long>(colIdx.size());
  }
  return {n, n, std::move(rowPtr), std::move(colIdx), std::move(values)};
}
}  // namespace

CgResilient::CgResilient(const CgResilientConfig& config,
                         const PlaceGroup& pg)
    : config_(config), pg_(pg) {}

void CgResilient::init() {
  const long places = static_cast<long>(pg_.size());
  const long n = config_.nPerPlace * places;
  A_ = gml::DistBlockMatrix::makeSparse(
      n, n, config_.blocksPerPlace * places, 1, places, 1,
      2 * config_.band + 1, pg_);
  A_.initFromCSR(spdBandMatrix(n, config_.band));
  b_ = gml::DistVector::make(n, pg_);
  b_.initRandom(config_.seed + 1);
  x_ = gml::DupVector::make(n, pg_);
  r_ = gml::DupVector::make(n, pg_);
  p_ = gml::DupVector::make(n, pg_);
  z_ = gml::DupVector::make(n, pg_);
  t_ = gml::DistVector::make(n, pg_);
  rd_ = gml::DistVector::make(n, pg_);
  tDup_ = gml::DupVector::make(n, pg_);
  scalars_ = resilient::SnapshottableScalars(3, pg_);
  M_.setup(A_);

  // x0 = 0, so r0 = b; z0 = M^{-1} r0; p0 = z0.
  x_.init(0.0);
  r_.copyFromDist(b_);
  gml::applyReplicated(M_, r_, z_);
  p_.copyFrom(z_);
  rz_ = r_.dot(z_);
  normR2_ = r_.dot(r_);
  iteration_ = 0;
}

bool CgResilient::isFinished() { return iteration_ >= config_.iterations; }

void CgResilient::step() {
  // The first collectives touch only scratch state, so a place killed at
  // the previous iteration boundary surfaces here BEFORE x/r/p mutate —
  // the invariant algorithm-based recovery relies on.
  t_.mult(A_, p_);
  const double pq = t_.dot(p_);
  // Breakdown guard (solvers.h contract): no descent direction — hold
  // the iterate instead of dividing by (near-)zero.
  if (pq > 0.0 && std::isfinite(rz_ / pq)) {
    const double alpha = rz_ / pq;
    x_.axpy(alpha, p_);
    tDup_.copyFromDist(t_);
    r_.axpy(-alpha, tDup_);
    gml::applyReplicated(M_, r_, z_);
    const double rzNew = r_.dot(z_);
    const double beta = rz_ > 0.0 ? rzNew / rz_ : 0.0;
    rz_ = rzNew;
    p_.scale(beta);
    p_.cellAdd(z_);
  }
  normR2_ = r_.dot(r_);
  ++iteration_;
}

void CgResilient::checkpoint(resilient::AppResilientStore& store) {
  scalars_[0] = rz_;
  scalars_[1] = normR2_;
  scalars_[2] = static_cast<double>(iteration_);
  store.startNewSnapshot();
  store.saveReadOnly(A_);
  store.saveReadOnly(b_);
  store.save(x_);
  store.save(r_);
  store.save(p_);
  store.save(scalars_);
  store.commit();
}

void CgResilient::restore(const PlaceGroup& newPlaces,
                          resilient::AppResilientStore& store,
                          long snapshotIter, RestoreMode mode) {
  if (mode == RestoreMode::AlgorithmBased) {
    // No rollback. Read-only inputs come from the replicated store; the
    // duplicated iterate and direction survive on any live replica; the
    // residual state is rebuilt from the recurrence r = b - A x.
    A_.remakeShrink(newPlaces);
    store.restoreOnly(A_);
    b_.remake(newPlaces);
    store.restoreOnly(b_);
    x_.remakeFromSurvivor(newPlaces);
    p_.remakeFromSurvivor(newPlaces);
    r_.remake(newPlaces);
    z_.remake(newPlaces);
    t_.remake(newPlaces);
    rd_.remake(newPlaces);
    tDup_.remake(newPlaces);
    scalars_.remake(newPlaces);
    pg_ = newPlaces;
    M_.setup(A_);

    t_.mult(A_, x_);
    rd_.copyFrom(b_);
    rd_.axpy(-1.0, t_);
    r_.copyFromDist(rd_);
    gml::applyReplicated(M_, r_, z_);
    rz_ = r_.dot(z_);
    normR2_ = r_.dot(r_);
    // iteration_ deliberately untouched: the run continues from here.
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
  r_.remake(newPlaces);
  p_.remake(newPlaces);
  z_.remake(newPlaces);
  t_.remake(newPlaces);
  rd_.remake(newPlaces);
  tDup_.remake(newPlaces);
  scalars_.remake(newPlaces);
  pg_ = newPlaces;

  store.restore();
  M_.setup(A_);
  // z is derived state (not checkpointed): rebuild it from the restored
  // residual so the next step sees exactly the checkpointed trajectory.
  gml::applyReplicated(M_, r_, z_);

  rz_ = scalars_[0];
  normR2_ = scalars_[1];
  iteration_ = static_cast<long>(scalars_[2]);
  if (iteration_ != snapshotIter) {
    throw apgas::ApgasError(
        "CgResilient::restore: snapshot iteration mismatch");
  }
}

}  // namespace rgml::apps
