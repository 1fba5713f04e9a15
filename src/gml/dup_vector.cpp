#include "gml/dup_vector.h"

#include <algorithm>
#include <vector>

#include "apgas/runtime.h"
#include "gml/collectives.h"
#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::ateach;

DupVector::DupVector(long n, PlaceGroup pg) : n_(n), pg_(std::move(pg)) {}

DupVector DupVector::make(long n, const PlaceGroup& pg) {
  if (pg.empty()) throw apgas::ApgasError("DupVector: empty place group");
  DupVector v(n, pg);
  v.plh_ = apgas::PlaceLocalHandle<la::Vector>::make(
      pg, [n](Place) { return std::make_shared<la::Vector>(n); });
  return v;
}

la::Vector& DupVector::local() const { return plh_.local(); }

void DupVector::init(double v) {
  ateach(pg_, [&](Place) {
    local().setAll(v);
    Runtime::world().chargeDenseFlops(static_cast<double>(n_));
  });
}

void DupVector::initRandom(std::uint64_t seed, double lo, double hi) {
  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    la::fillUniform(local().span(), seed, lo, hi);
    rt.chargeDenseFlops(static_cast<double>(n_));
  });
  sync(0);
}

void DupVector::init(const std::function<double(long)>& fn) {
  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    la::Vector& v = local();
    for (long i = 0; i < n_; ++i) v[i] = fn(i);
    rt.chargeDenseFlops(static_cast<double>(n_));
  });
  sync(0);
}

void DupVector::sync(std::size_t rootIdx) {
  Runtime& rt = Runtime::world();
  const Place root = pg_(rootIdx);
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  if (syncAlg_ == SyncAlgorithm::Tree) {
    // Binomial-tree cost, identical data movement.
    chargeTreeBroadcast(pg_, rootIdx,
                        static_cast<std::size_t>(n_) * sizeof(double));
    rt.at(root, [&] {
      const la::Vector& src = local();
      for (std::size_t i = 0; i < pg_.size(); ++i) {
        if (i == rootIdx) continue;
        auto dst = plh_.atPlace(pg_(i).id());  // charged as a whole above
        if (dst) la::copy(src.span(), dst->span());
      }
    });
    return;
  }
  rt.at(root, [&] {
    const la::Vector& src = local();
    for (std::size_t i = 0; i < pg_.size(); ++i) {
      if (i == rootIdx) continue;
      plh_.remote(pg_(i), [&](la::Vector& dst) {
        la::copy(src.span(), dst.span());
        return src.bytes();
      });
    }
  });
}

void DupVector::scale(double a) {
  ateach(pg_, [&](Place) {
    la::scale(local().span(), a);
    Runtime::world().chargeDenseFlops(static_cast<double>(n_));
  });
}

void DupVector::cellAdd(const DupVector& other) {
  ateach(pg_, [&](Place p) {
    if (other.pg_.indexOf(p) < 0) {
      throw apgas::ApgasError("DupVector::cellAdd: operand not duplicated "
                              "at this place");
    }
    la::cellAdd(other.local().span(), local().span());
    Runtime::world().chargeDenseFlops(static_cast<double>(n_));
  });
}

void DupVector::cellAdd(double c) {
  ateach(pg_, [&](Place) {
    la::addScalar(local().span(), c);
    Runtime::world().chargeDenseFlops(static_cast<double>(n_));
  });
}

void DupVector::axpy(double a, const DupVector& x) {
  ateach(pg_, [&](Place p) {
    if (x.pg_.indexOf(p) < 0) {
      throw apgas::ApgasError("DupVector::axpy: operand not duplicated at "
                              "this place");
    }
    la::axpy(a, x.local().span(), local().span());
    Runtime::world().chargeDenseFlops(2.0 * static_cast<double>(n_));
  });
}

void DupVector::copyFrom(const DupVector& other) {
  ateach(pg_, [&](Place p) {
    if (other.pg_.indexOf(p) < 0) {
      throw apgas::ApgasError("DupVector::copyFrom: operand not duplicated "
                              "at this place");
    }
    la::copy(other.local().span(), local().span());
    Runtime::world().chargeLocalCopy(local().bytes());
  });
}

double DupVector::dot(const DupVector& other) const {
  // Replicas are identical: compute on the caller's replica, no finish.
  Runtime::world().chargeDenseFlops(2.0 * static_cast<double>(n_));
  return la::dot(local().span(), other.local().span());
}

double DupVector::norm2() const {
  Runtime::world().chargeDenseFlops(2.0 * static_cast<double>(n_));
  return la::norm2(local().span());
}

double DupVector::sum() const {
  Runtime::world().chargeDenseFlops(static_cast<double>(n_));
  return la::sum(local().span());
}

void DupVector::transMult(const DistBlockMatrix& A, const DistVector& y) {
  if (A.cols() != n_ || A.rows() != y.size()) {
    throw apgas::ApgasError("DupVector::transMult: dimension mismatch");
  }
  Runtime& rt = Runtime::world();
  const PlaceGroup& apg = A.placeGroup();
  const long numParts = static_cast<long>(apg.size());

  // Phase 1: each matrix place computes a full-length partial result from
  // its blocks, fetching the y sub-ranges its blocks need.
  std::vector<la::Vector> partials(static_cast<std::size_t>(numParts),
                                   la::Vector(n_));
  ateach(apg, [&](Place p) {
    const long aidx = apg.indexOf(p);
    la::Vector& partial = partials[static_cast<std::size_t>(aidx)];
    const long yParts = static_cast<long>(y.placeGroup().size());
    for (const la::MatrixBlock& block : A.localBlockSet()) {
      // Gather y[rowOffset, rowOffset+rows) from its segment owners.
      la::Vector ybuf(block.rows());
      const long r0 = block.rowOffset();
      const long r1 = r0 + block.rows();
      const long sFirst = la::Grid::segmentOf(y.size(), yParts, r0);
      const long sLast = la::Grid::segmentOf(y.size(), yParts, r1 - 1);
      for (long s = sFirst; s <= sLast; ++s) {
        const long g0 = std::max(r0, y.segOffset(s));
        const long g1 = std::min(r1, y.segOffset(s) + y.segSize(s));
        const auto len = static_cast<std::size_t>(g1 - g0);
        const Place owner = y.placeGroup()(static_cast<std::size_t>(s));
        y.plh_.remote(owner, [&](const la::Vector& seg) {
          la::copy(seg.span().subspan(
                       static_cast<std::size_t>(g0 - y.segOffset(s)), len),
                   ybuf.span().subspan(static_cast<std::size_t>(g0 - r0), len));
          return len * sizeof(double);
        });
      }
      auto pslice =
          partial.span().subspan(static_cast<std::size_t>(block.colOffset()),
                                 static_cast<std::size_t>(block.cols()));
      block.transMultAdd(ybuf.span(), pslice);
      if (block.isSparse()) {
        rt.chargeSparseFlops(block.multFlops());
      } else {
        rt.chargeDenseFlops(block.multFlops());
      }
    }
  });

  // Phase 2: flat reduction of the partials at the root replica.
  const Place root = pg_(0);
  rt.at(root, [&] {
    la::Vector& dst = local();
    dst.setAll(0.0);
    rt.chargeDenseFlops(static_cast<double>(n_));
  });
  reduceAt(root, apg, static_cast<std::uint64_t>(n_) * sizeof(double),
           [&](long i) {
             la::cellAdd(partials[static_cast<std::size_t>(i)].span(),
                         local().span());
             rt.chargeDenseFlops(static_cast<double>(n_));
           });

  // ... Phase 3: broadcast the reduced result to every replica.
  sync(0);
}

void DupVector::copyFromDist(const DistVector& src) {
  if (src.size() != n_) {
    throw apgas::ApgasError("DupVector::copyFromDist: size mismatch");
  }
  Runtime& rt = Runtime::world();
  const Place root = pg_(0);
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  rt.at(root, [&] { src.copyTo(local()); });
  sync(0);
}

void DupVector::remake(const PlaceGroup& newPg) {
  if (newPg.empty()) throw apgas::ApgasError("DupVector::remake: empty group");
  plh_.destroy();
  pg_ = newPg;
  const long n = n_;
  plh_ = apgas::PlaceLocalHandle<la::Vector>::make(
      newPg, [n](Place) { return std::make_shared<la::Vector>(n); });
}

void DupVector::remakeFromSurvivor(const PlaceGroup& newPg) {
  if (newPg.empty()) {
    throw apgas::ApgasError("DupVector::remakeFromSurvivor: empty group");
  }
  Runtime& rt = Runtime::world();
  // Any live replica of the old group is a valid source — they are
  // identical by the DupVector invariant.
  Place src = Place(apgas::kInvalidPlace);
  for (std::size_t i = 0; i < pg_.size(); ++i) {
    if (!pg_(i).isDead()) {
      src = pg_(i);
      break;
    }
  }
  if (src.id() == apgas::kInvalidPlace) {
    throw apgas::DeadPlaceException(pg_(0).id());
  }
  la::Vector saved(n_);
  rt.at(src, [&] { la::copy(local().span(), saved.span()); });

  remake(newPg);

  // Populate every LIVE replica directly (flat broadcast from the
  // survivor), deferring the dead-place report until all survivors hold
  // the data. The executor computes the recovery group before armed
  // kill-during-restore faults fire, so `newPg` may already contain a
  // fresh corpse — if the exception surfaced mid-broadcast the retry
  // could pick a zeroed replica as its "survivor" and silently lose the
  // iterate. With the deferred throw, every live member is a valid
  // source for the retry.
  apgas::PlaceId firstDead = apgas::kInvalidPlace;
  const auto bytes = static_cast<std::uint64_t>(n_) * sizeof(double);
  for (std::size_t i = 0; i < newPg.size(); ++i) {
    const Place dst = newPg(i);
    if (dst.isDead()) {
      if (firstDead == apgas::kInvalidPlace) firstDead = dst.id();
      continue;
    }
    try {
      rt.at(dst, [&] {
        rt.chargeComm(src, bytes);
        la::copy(saved.span(), local().span());
      });
    } catch (const apgas::DeadPlaceException& e) {
      if (firstDead == apgas::kInvalidPlace) firstDead = e.place();
    }
  }
  if (firstDead != apgas::kInvalidPlace) {
    throw apgas::DeadPlaceException(firstDead);
  }
}

std::shared_ptr<resilient::Snapshot> DupVector::makeSnapshot() const {
  // The replicas are identical, so one copy (fanned out to the snapshot's
  // k ring-placed holders) captures the whole object; every place restores
  // from it. Saving from the first member keeps checkpoint cost independent
  // of the replica count.
  auto snapshot = std::make_shared<resilient::Snapshot>(pg_);
  Runtime::world().at(pg_(0), [&] {
    snapshot->emplace<resilient::VectorValue>(0, 0, local(), 0);
  });
  return snapshot;
}

void DupVector::restoreSnapshot(const resilient::Snapshot& snapshot) {
  const long savedKeys = static_cast<long>(snapshot.numEntries());
  if (savedKeys == 0) {
    throw apgas::ApgasError("DupVector::restoreSnapshot: empty snapshot");
  }
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    // New index keys directly into the snapshot when the group shrank;
    // modulo handles elastic growth beyond the saved replica count.
    const long key = idx % savedKeys;
    auto value = std::dynamic_pointer_cast<const resilient::VectorValue>(
        snapshot.load(key));
    if (!value || value->size() != n_) {
      throw apgas::ApgasError(
          "DupVector::restoreSnapshot: incompatible snapshot value");
    }
    la::copy(value->data().span(), local().span());
  });
}

}  // namespace rgml::gml
