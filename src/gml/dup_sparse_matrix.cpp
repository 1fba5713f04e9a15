#include "gml/dup_sparse_matrix.h"

#include "apgas/runtime.h"
#include "la/rand.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::ateach;

DupSparseMatrix DupSparseMatrix::make(long m, long n, const PlaceGroup& pg) {
  if (pg.empty()) {
    throw apgas::ApgasError("DupSparseMatrix: empty place group");
  }
  DupSparseMatrix a;
  a.m_ = m;
  a.n_ = n;
  a.pg_ = pg;
  a.plh_ = apgas::PlaceLocalHandle<la::SparseCSR>::make(
      pg, [m, n](Place) { return std::make_shared<la::SparseCSR>(m, n); });
  return a;
}

la::SparseCSR& DupSparseMatrix::local() const { return plh_.local(); }

void DupSparseMatrix::initRandom(long nnzPerRow, std::uint64_t seed,
                                 double lo, double hi) {
  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    local() = la::makeUniformSparse(m_, n_, nnzPerRow, seed, lo, hi);
    rt.chargeSparseFlops(static_cast<double>(local().nnz()));
  });
  sync(0);
}

void DupSparseMatrix::initFrom(const la::SparseCSR& matrix) {
  if (matrix.rows() != m_ || matrix.cols() != n_) {
    throw apgas::ApgasError("DupSparseMatrix::initFrom: shape mismatch");
  }
  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    local() = matrix;
    rt.chargeLocalCopy(matrix.bytes());
  });
  sync(0);
}

void DupSparseMatrix::sync(std::size_t rootIdx) {
  Runtime& rt = Runtime::world();
  const Place root = pg_(rootIdx);
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  rt.at(root, [&] {
    const la::SparseCSR& src = local();
    for (std::size_t i = 0; i < pg_.size(); ++i) {
      if (i == rootIdx) continue;
      plh_.remote(pg_(i), [&](la::SparseCSR& dst) {
        dst = src;
        return src.bytes();
      });
    }
  });
}

void DupSparseMatrix::remake(const PlaceGroup& newPg) {
  if (newPg.empty()) {
    throw apgas::ApgasError("DupSparseMatrix::remake: empty group");
  }
  plh_.destroy();
  pg_ = newPg;
  const long m = m_;
  const long n = n_;
  plh_ = apgas::PlaceLocalHandle<la::SparseCSR>::make(
      newPg, [m, n](Place) { return std::make_shared<la::SparseCSR>(m, n); });
}

std::shared_ptr<resilient::Snapshot> DupSparseMatrix::makeSnapshot() const {
  // One replica (plus its backup) captures the duplicated object.
  auto snapshot = std::make_shared<resilient::Snapshot>(pg_);
  Runtime::world().at(pg_(0), [&] {
    snapshot->emplace<resilient::SparseBlockValue>(0, 0, local(), 0, 0, 0,
                                                   0);
  });
  return snapshot;
}

void DupSparseMatrix::restoreSnapshot(const resilient::Snapshot& snapshot) {
  const long savedKeys = static_cast<long>(snapshot.numEntries());
  if (savedKeys == 0) {
    throw apgas::ApgasError(
        "DupSparseMatrix::restoreSnapshot: empty snapshot");
  }
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    auto value = std::dynamic_pointer_cast<const resilient::SparseBlockValue>(
        snapshot.load(idx % savedKeys));
    if (!value || value->data().rows() != m_ || value->data().cols() != n_) {
      throw apgas::ApgasError(
          "DupSparseMatrix::restoreSnapshot: incompatible snapshot value");
    }
    local() = value->data();
  });
}

}  // namespace rgml::gml
