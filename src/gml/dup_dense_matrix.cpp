#include "gml/dup_dense_matrix.h"

#include "apgas/runtime.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::ateach;

DupDenseMatrix DupDenseMatrix::make(long m, long n, const PlaceGroup& pg) {
  if (pg.empty()) {
    throw apgas::ApgasError("DupDenseMatrix: empty place group");
  }
  DupDenseMatrix a;
  a.m_ = m;
  a.n_ = n;
  a.pg_ = pg;
  a.plh_ = apgas::PlaceLocalHandle<la::DenseMatrix>::make(
      pg, [m, n](Place) { return std::make_shared<la::DenseMatrix>(m, n); });
  return a;
}

la::DenseMatrix& DupDenseMatrix::local() const { return plh_.local(); }

void DupDenseMatrix::initRandom(std::uint64_t seed, double lo, double hi) {
  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    la::fillUniform(local().span(), seed, lo, hi);
    rt.chargeDenseFlops(static_cast<double>(local().elements()));
  });
  sync(0);
}

void DupDenseMatrix::sync(std::size_t rootIdx) {
  Runtime& rt = Runtime::world();
  const Place root = pg_(rootIdx);
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  rt.at(root, [&] {
    const la::DenseMatrix& src = local();
    for (std::size_t i = 0; i < pg_.size(); ++i) {
      if (i == rootIdx) continue;
      plh_.remote(pg_(i), [&](la::DenseMatrix& dst) {
        la::copy(src.span(), dst.span());
        return src.bytes();
      });
    }
  });
}

void DupDenseMatrix::scale(double a) {
  ateach(pg_, [&](Place) {
    la::scale(local().span(), a);
    Runtime::world().chargeDenseFlops(static_cast<double>(local().elements()));
  });
}

void DupDenseMatrix::remake(const PlaceGroup& newPg) {
  if (newPg.empty()) {
    throw apgas::ApgasError("DupDenseMatrix::remake: empty group");
  }
  plh_.destroy();
  pg_ = newPg;
  const long m = m_;
  const long n = n_;
  plh_ = apgas::PlaceLocalHandle<la::DenseMatrix>::make(
      newPg, [m, n](Place) { return std::make_shared<la::DenseMatrix>(m, n); });
}

std::shared_ptr<resilient::Snapshot> DupDenseMatrix::makeSnapshot() const {
  // One replica (plus its backup) captures the duplicated object.
  auto snapshot = std::make_shared<resilient::Snapshot>(pg_);
  Runtime::world().at(pg_(0), [&] {
    snapshot->emplace<resilient::DenseBlockValue>(0, 0, local(), 0, 0, 0, 0);
  });
  return snapshot;
}

void DupDenseMatrix::restoreSnapshot(const resilient::Snapshot& snapshot) {
  const long savedKeys = static_cast<long>(snapshot.numEntries());
  if (savedKeys == 0) {
    throw apgas::ApgasError("DupDenseMatrix::restoreSnapshot: empty snapshot");
  }
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    auto value = std::dynamic_pointer_cast<const resilient::DenseBlockValue>(
        snapshot.load(idx % savedKeys));
    if (!value || value->data().rows() != m_ || value->data().cols() != n_) {
      throw apgas::ApgasError(
          "DupDenseMatrix::restoreSnapshot: incompatible snapshot value");
    }
    la::copy(value->data().span(), local().span());
  });
}

}  // namespace rgml::gml
