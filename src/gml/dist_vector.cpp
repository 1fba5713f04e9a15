#include "gml/dist_vector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>

#include "apgas/runtime.h"
#include "gml/collectives.h"
#include "gml/dist_block_matrix.h"
#include "gml/dup_vector.h"
#include "la/grid.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::ateach;

DistVector::DistVector(long n, PlaceGroup pg) : n_(n), pg_(std::move(pg)) {}

DistVector DistVector::make(long n, const PlaceGroup& pg) {
  if (pg.empty()) throw apgas::ApgasError("DistVector: empty place group");
  if (n < static_cast<long>(pg.size())) {
    throw apgas::ApgasError("DistVector: fewer elements than places");
  }
  DistVector v(n, pg);
  v.alloc();
  return v;
}

void DistVector::alloc() {
  const long parts = static_cast<long>(pg_.size());
  segSizes_ = la::Grid::segmentSizes(n_, parts);
  segOffsets_.resize(segSizes_.size());
  long off = 0;
  for (std::size_t s = 0; s < segSizes_.size(); ++s) {
    segOffsets_[s] = off;
    off += segSizes_[s];
  }
  const auto& sizes = segSizes_;
  const PlaceGroup& pg = pg_;
  plh_ = apgas::PlaceLocalHandle<la::Vector>::make(pg_, [&sizes, &pg](Place p) {
    const long idx = pg.indexOf(p);
    return std::make_shared<la::Vector>(sizes[static_cast<std::size_t>(idx)]);
  });
}

long DistVector::segOffset(long idx) const {
  return segOffsets_[static_cast<std::size_t>(idx)];
}

long DistVector::segSize(long idx) const {
  return segSizes_[static_cast<std::size_t>(idx)];
}

la::Vector& DistVector::localSegment() const { return plh_.local(); }

void DistVector::init(double v) {
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    seg.setAll(v);
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

void DistVector::initRandom(std::uint64_t seed, double lo, double hi) {
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    la::Vector& seg = localSegment();
    const long off = segOffset(idx);
    for (long i = 0; i < seg.size(); ++i) {
      seg[i] = la::hashedUniform(seed, static_cast<std::uint64_t>(off + i),
                                 lo, hi);
    }
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

void DistVector::init(const std::function<double(long)>& fn) {
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    la::Vector& seg = localSegment();
    const long off = segOffset(idx);
    for (long i = 0; i < seg.size(); ++i) seg[i] = fn(off + i);
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

bool DistVector::multIsAligned(const DistBlockMatrix& A) const {
  // Aligned iff every block's row range falls inside the segment owned by
  // the same place that owns the block (requires A's places to be members
  // of this vector's group). Then the whole product is local per place and
  // a single fused finish suffices (GML's common fast path).
  const la::Grid& grid = A.grid();
  const la::DistMap& map = A.distMap();
  for (long b = 0; b < grid.numBlocks(); ++b) {
    const Place owner =
        A.placeGroup()(static_cast<std::size_t>(map.placeIndexOf(b)));
    const long myIdx = pg_.indexOf(owner);
    if (myIdx < 0) return false;
    const long rb = grid.blockRow(b);
    const long r0 = grid.rowBlockStart(rb);
    const long r1 = r0 + grid.rowBlockSize(rb);
    if (r0 < segOffset(myIdx) || r1 > segOffset(myIdx) + segSize(myIdx)) {
      return false;
    }
  }
  return true;
}

void DistVector::mult(const DistBlockMatrix& A, const DupVector& x) {
  if (A.rows() != n_ || A.cols() != x.size()) {
    throw apgas::ApgasError("DistVector::mult: dimension mismatch");
  }
  Runtime& rt = Runtime::world();
  if (multIsAligned(A)) {
    // Fast path: one finish; each place zeroes its segment and accumulates
    // its blocks into it directly.
    ateach(pg_, [&](Place p) {
      la::Vector& seg = localSegment();
      seg.setAll(0.0);
      rt.chargeDenseFlops(static_cast<double>(seg.size()));
      auto bs = A.blockSetAt(p.id());  // own place: no transfer
      if (!bs) return;  // this place holds no blocks of A
      if (x.placeGroup().indexOf(p) < 0) {
        throw apgas::ApgasError(
            "DistVector::mult: x is not duplicated at a matrix place");
      }
      const la::Vector& xloc = x.local();
      const long idx = pg_.indexOf(p);
      for (const la::MatrixBlock& block : *bs) {
        const auto xslice =
            xloc.span().subspan(static_cast<std::size_t>(block.colOffset()),
                                static_cast<std::size_t>(block.cols()));
        auto yslice = seg.span().subspan(
            static_cast<std::size_t>(block.rowOffset() - segOffset(idx)),
            static_cast<std::size_t>(block.rows()));
        block.multAdd(xslice, yslice);
        if (block.isSparse()) {
          rt.chargeSparseFlops(block.multFlops());
        } else {
          rt.chargeDenseFlops(block.multFlops());
        }
      }
    });
    return;
  }
  // General path, pass 1: zero the result segments.
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    seg.setAll(0.0);
    rt.chargeDenseFlops(static_cast<double>(seg.size()));
  });
  // Pass 2: every place multiplies its blocks against its local replica of
  // x and scatter-adds the partial row ranges into the owning segments.
  const PlaceGroup& apg = A.placeGroup();
  const long parts = static_cast<long>(pg_.size());
  ateach(apg, [&](Place p) {
    if (x.placeGroup().indexOf(p) < 0) {
      throw apgas::ApgasError(
          "DistVector::mult: x is not duplicated at a matrix place");
    }
    const la::Vector& xloc = x.local();
    for (const la::MatrixBlock& block : A.localBlockSet()) {
      la::Vector tmp(block.rows());
      const auto xslice =
          xloc.span().subspan(static_cast<std::size_t>(block.colOffset()),
                              static_cast<std::size_t>(block.cols()));
      block.multAdd(xslice, tmp.span());
      if (block.isSparse()) {
        rt.chargeSparseFlops(block.multFlops());
      } else {
        rt.chargeDenseFlops(block.multFlops());
      }
      // Scatter-add tmp into the segments covering the block's row range.
      const long r0 = block.rowOffset();
      const long r1 = r0 + block.rows();
      const long sFirst = la::Grid::segmentOf(n_, parts, r0);
      const long sLast = la::Grid::segmentOf(n_, parts, r1 - 1);
      for (long s = sFirst; s <= sLast; ++s) {
        const long g0 = std::max(r0, segOffset(s));
        const long g1 = std::min(r1, segOffset(s) + segSize(s));
        plh_.remote(pg_(static_cast<std::size_t>(s)), [&](la::Vector& seg) {
          // On the Threads backend several matrix places scatter-add into
          // the same owner segment concurrently; serialise the += so the
          // accumulation is race-free. The combine ORDER still depends on
          // thread scheduling there, so the unaligned path is not
          // bit-reproducible across backends — the apps keep their
          // matrices row-aligned and take the fast path above, which
          // writes only place-local segments.
          std::lock_guard<std::mutex> lock(*scatterMu_);
          for (long g = g0; g < g1; ++g) seg[g - segOffset(s)] += tmp[g - r0];
          return static_cast<std::uint64_t>(g1 - g0) * sizeof(double);
        });
        rt.chargeDenseFlops(static_cast<double>(g1 - g0));
      }
    }
  });
}

double DistVector::dot(const DupVector& x) const {
  if (x.size() != n_) {
    throw apgas::ApgasError("DistVector::dot: dimension mismatch");
  }
  return allReduceSum(pg_, [&](Place p, long idx) {
    if (x.placeGroup().indexOf(p) < 0) {
      throw apgas::ApgasError("DistVector::dot: x not duplicated here");
    }
    const la::Vector& seg = localSegment();
    const auto xslice =
        x.local().span().subspan(static_cast<std::size_t>(segOffset(idx)),
                                 static_cast<std::size_t>(seg.size()));
    Runtime::world().chargeDenseFlops(2.0 * static_cast<double>(seg.size()));
    return la::dot(seg.span(), xslice);
  });
}

double DistVector::dot(const DistVector& o) const {
  if (o.n_ != n_ || o.pg_ != pg_) {
    throw apgas::ApgasError("DistVector::dot: incompatible distributions");
  }
  return allReduceSum(pg_, [&](Place, long) {
    const la::Vector& seg = localSegment();
    const la::Vector& oseg = o.localSegment();
    Runtime::world().chargeDenseFlops(2.0 * static_cast<double>(seg.size()));
    return la::dot(seg.span(), oseg.span());
  });
}

void DistVector::scale(double a) {
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    la::scale(seg.span(), a);
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

void DistVector::cellAdd(const DistVector& o) {
  if (o.n_ != n_ || o.pg_ != pg_) {
    throw apgas::ApgasError("DistVector::cellAdd: incompatible distributions");
  }
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    const la::Vector& oseg = o.localSegment();
    la::cellAdd(oseg.span(), seg.span());
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

void DistVector::axpy(double a, const DistVector& x) {
  if (x.n_ != n_ || x.pg_ != pg_) {
    throw apgas::ApgasError("DistVector::axpy: incompatible distributions");
  }
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    const la::Vector& xseg = x.localSegment();
    la::axpy(a, xseg.span(), seg.span());
    Runtime::world().chargeDenseFlops(2.0 * static_cast<double>(seg.size()));
  });
}

void DistVector::cellMult(const DistVector& o) {
  if (o.n_ != n_ || o.pg_ != pg_) {
    throw apgas::ApgasError(
        "DistVector::cellMult: incompatible distributions");
  }
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    const la::Vector& oseg = o.localSegment();
    for (long i = 0; i < seg.size(); ++i) seg[i] *= oseg[i];
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

void DistVector::cellDiv(const DistVector& o) {
  if (o.n_ != n_ || o.pg_ != pg_) {
    throw apgas::ApgasError(
        "DistVector::cellDiv: incompatible distributions");
  }
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    const la::Vector& oseg = o.localSegment();
    for (long i = 0; i < seg.size(); ++i) seg[i] /= oseg[i];
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
  });
}

void DistVector::copyFromDup(const DupVector& src) {
  if (src.size() != n_) {
    throw apgas::ApgasError("DistVector::copyFromDup: size mismatch");
  }
  ateach(pg_, [&](Place p) {
    if (src.placeGroup().indexOf(p) < 0) {
      throw apgas::ApgasError(
          "DistVector::copyFromDup: src not duplicated at this place");
    }
    const long idx = pg_.indexOf(p);
    la::Vector& seg = localSegment();
    la::copy(src.local().span().subspan(
                 static_cast<std::size_t>(segOffset(idx)),
                 static_cast<std::size_t>(seg.size())),
             seg.span());
    Runtime::world().chargeLocalCopy(seg.bytes());
  });
}

double DistVector::max() const {
  return allReduce(
      pg_,
      [&](Place, long) {
        const la::Vector& seg = localSegment();
        double best = seg[0];
        for (long i = 1; i < seg.size(); ++i) best = std::max(best, seg[i]);
        Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
        return best;
      },
      [](double a, double b) { return std::max(a, b); },
      -std::numeric_limits<double>::infinity());
}

double DistVector::min() const {
  return allReduce(
      pg_,
      [&](Place, long) {
        const la::Vector& seg = localSegment();
        double best = seg[0];
        for (long i = 1; i < seg.size(); ++i) best = std::min(best, seg[i]);
        Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
        return best;
      },
      [](double a, double b) { return std::min(a, b); },
      std::numeric_limits<double>::infinity());
}

void DistVector::copyFrom(const DistVector& o) {
  if (o.n_ != n_ || o.pg_ != pg_) {
    throw apgas::ApgasError(
        "DistVector::copyFrom: incompatible distributions");
  }
  ateach(pg_, [&](Place) {
    la::Vector& seg = localSegment();
    const la::Vector& oseg = o.localSegment();
    la::copy(oseg.span(), seg.span());
    Runtime::world().chargeLocalCopy(seg.bytes());
  });
}

void DistVector::map(const std::function<double(double, long)>& fn,
                     double flopsPerElement) {
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    la::Vector& seg = localSegment();
    const long off = segOffset(idx);
    for (long i = 0; i < seg.size(); ++i) seg[i] = fn(seg[i], off + i);
    Runtime::world().chargeDenseFlops(flopsPerElement *
                                      static_cast<double>(seg.size()));
  });
}

void DistVector::map2(const DistVector& o,
                      const std::function<double(double, double, long)>& fn,
                      double flopsPerElement) {
  if (o.n_ != n_ || o.pg_ != pg_) {
    throw apgas::ApgasError("DistVector::map2: incompatible distributions");
  }
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    la::Vector& seg = localSegment();
    const la::Vector& oseg = o.localSegment();
    const long off = segOffset(idx);
    for (long i = 0; i < seg.size(); ++i) {
      seg[i] = fn(seg[i], oseg[i], off + i);
    }
    Runtime::world().chargeDenseFlops(flopsPerElement *
                                      static_cast<double>(seg.size()));
  });
}

double DistVector::norm2() const { return std::sqrt(dot(*this)); }

double DistVector::sum() const {
  return allReduceSum(pg_, [&](Place, long) {
    const la::Vector& seg = localSegment();
    Runtime::world().chargeDenseFlops(static_cast<double>(seg.size()));
    return la::sum(seg.span());
  });
}

void DistVector::copyTo(la::Vector& dst) const {
  if (dst.size() != n_) {
    throw apgas::ApgasError("DistVector::copyTo: size mismatch");
  }
  for (std::size_t s = 0; s < pg_.size(); ++s) {
    plh_.remote(pg_(s), [&](const la::Vector& seg) {
      la::copy(seg.span(),
               dst.span().subspan(
                   static_cast<std::size_t>(segOffset(static_cast<long>(s))),
                   static_cast<std::size_t>(seg.size())));
      return seg.bytes();
    });
  }
}

void DistVector::copyFrom(const la::Vector& src) {
  if (src.size() != n_) {
    throw apgas::ApgasError("DistVector::copyFrom: size mismatch");
  }
  for (std::size_t s = 0; s < pg_.size(); ++s) {
    plh_.remote(pg_(s), [&](la::Vector& seg) {
      la::copy(src.span().subspan(
                   static_cast<std::size_t>(segOffset(static_cast<long>(s))),
                   static_cast<std::size_t>(seg.size())),
               seg.span());
      return seg.bytes();
    });
  }
}

double DistVector::at(long i) const {
  if (i < 0 || i >= n_) throw apgas::ApgasError("DistVector::at: range");
  const long s = la::Grid::segmentOf(n_, static_cast<long>(pg_.size()), i);
  const Place owner = pg_(static_cast<std::size_t>(s));
  double v = 0.0;
  plh_.remote(owner, [&](const la::Vector& seg) -> std::uint64_t {
    v = seg[i - segOffset(s)];
    // An element read in place moves nothing.
    return owner == Runtime::world().here() ? 0 : sizeof(double);
  });
  return v;
}

void DistVector::remake(const PlaceGroup& newPg) {
  if (newPg.empty()) {
    throw apgas::ApgasError("DistVector::remake: empty group");
  }
  plh_.destroy();
  pg_ = newPg;
  alloc();
}

std::shared_ptr<resilient::Snapshot> DistVector::makeSnapshot() const {
  auto snapshot = std::make_shared<resilient::Snapshot>(pg_);
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    snapshot->emplace<resilient::VectorValue>(idx, 0, localSegment(),
                                              segOffset(idx));
  });
  return snapshot;
}

void DistVector::restoreSnapshot(const resilient::Snapshot& snapshot) {
  Runtime& rt = Runtime::world();
  const auto keys = snapshot.keys();
  ateach(pg_, [&](Place p) {
    const long idx = pg_.indexOf(p);
    la::Vector& seg = localSegment();
    const long myStart = segOffset(idx);
    const long myEnd = myStart + seg.size();
    for (long key : keys) {
      const auto located = snapshot.locate(key);
      auto value = std::dynamic_pointer_cast<const resilient::VectorValue>(
          located.value);
      if (!value) {
        throw apgas::ApgasError(
            "DistVector::restoreSnapshot: incompatible snapshot value");
      }
      const long vStart = value->offset();
      const long vEnd = vStart + value->size();
      const long g0 = std::max(myStart, vStart);
      const long g1 = std::min(myEnd, vEnd);
      if (g0 >= g1) continue;  // no overlap with this saved segment
      const auto bytes = static_cast<std::uint64_t>(g1 - g0) * sizeof(double);
      if (located.holder != p) {
        rt.chargeComm(located.holder, bytes);
      }
      rt.chargeSerialization(bytes);
      la::copy(value->data().span().subspan(
                   static_cast<std::size_t>(g0 - vStart),
                   static_cast<std::size_t>(g1 - g0)),
               seg.span().subspan(static_cast<std::size_t>(g0 - myStart),
                                  static_cast<std::size_t>(g1 - g0)));
    }
  });
}

}  // namespace rgml::gml
