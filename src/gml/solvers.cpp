#include "gml/solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "apgas/runtime.h"
#include "la/kernels.h"

namespace rgml::gml {

using apgas::Place;
using apgas::Runtime;

namespace {
/// True when |v| is large enough to divide by without drifting into
/// Inf/NaN territory (rejects zero and denormals).
bool safePivot(double v) {
  return std::abs(v) >= std::numeric_limits<double>::min() &&
         std::isfinite(v);
}
}  // namespace

SolveResult conjugateGradientNormal(const DistBlockMatrix& A,
                                    const DistVector& b, DupVector& x,
                                    double lambda, long maxIterations,
                                    double tolerance) {
  if (A.rows() != b.size() || A.cols() != x.size()) {
    throw apgas::ApgasError("conjugateGradientNormal: dimension mismatch");
  }
  const auto& pg = A.placeGroup();
  const long n = A.cols();
  auto t = DistVector::make(A.rows(), pg);  // scratch: A * direction
  auto q = DupVector::make(n, pg);          // scratch: A^T A p + lambda p
  auto r = DupVector::make(n, pg);
  auto p = DupVector::make(n, pg);

  // r = A^T b - (A^T A + lambda I) x0.
  t.mult(A, x);
  q.transMult(A, t);
  q.axpy(lambda, x);
  r.transMult(A, b);
  r.axpy(-1.0, q);
  p.copyFrom(r);
  double normR2 = r.dot(r);

  SolveResult result;
  for (long k = 0; k < maxIterations; ++k) {
    if (std::sqrt(normR2) <= tolerance) {
      result.converged = true;
      break;
    }
    t.mult(A, p);
    q.transMult(A, t);
    q.axpy(lambda, p);
    const double pq = p.dot(q);
    const double alpha = normR2 / pq;
    // The system is SPD, so p'q == 0 only for a null search direction:
    // converged to machine precision, or underflow annihilated the
    // direction. Updating would divide by (near-)zero and poison x with
    // NaN — hold the current iterate instead (header contract).
    if (!(pq > 0.0) || !std::isfinite(alpha)) break;
    x.axpy(alpha, p);
    r.axpy(-alpha, q);
    const double next = r.dot(r);
    const double beta = next / normR2;
    normR2 = next;
    p.scale(beta);
    p.cellAdd(r);
    ++result.iterations;
  }
  result.residual = std::sqrt(normR2);
  result.converged = result.converged || result.residual <= tolerance;
  return result;
}

SolveResult powerIteration(const DistBlockMatrix& A, DupVector& x,
                           double& eigenvalue, long maxIterations,
                           double tolerance) {
  if (A.rows() != A.cols() || A.cols() != x.size()) {
    throw apgas::ApgasError("powerIteration: need a square system");
  }
  const auto& pg = A.placeGroup();
  auto y = DistVector::make(A.rows(), pg);

  // Normalise the starting vector.
  const double norm0 = x.norm2();
  if (norm0 == 0.0) throw apgas::ApgasError("powerIteration: zero start");
  x.scale(1.0 / norm0);

  SolveResult result;
  eigenvalue = 0.0;
  for (long k = 0; k < maxIterations; ++k) {
    y.mult(A, x);
    const double next = y.dot(x);  // Rayleigh quotient (x normalised)
    x.copyFromDist(y);
    const double norm = x.norm2();
    if (norm == 0.0) {
      throw apgas::ApgasError("powerIteration: A annihilated the iterate");
    }
    x.scale(1.0 / norm);
    ++result.iterations;
    result.residual = std::abs(next - eigenvalue);
    eigenvalue = next;
    if (result.residual <= tolerance && k > 0) {
      result.converged = true;
      break;
    }
  }
  return result;
}

SolveResult jacobi(const DistBlockMatrix& A, const DistVector& b,
                   DupVector& x, long maxIterations, double tolerance) {
  if (A.rows() != A.cols() || A.rows() != b.size() ||
      A.cols() != x.size()) {
    throw apgas::ApgasError("jacobi: need a square system");
  }
  if (A.isSparse()) {
    throw apgas::ApgasError("jacobi: dense matrices only");
  }
  const auto& pg = A.placeGroup();
  const long n = A.rows();
  Runtime& rt = Runtime::world();

  // Extract the diagonal once into a distributed vector aligned with b.
  auto diag = DistVector::make(n, pg);
  apgas::ateach(pg, [&](Place p) {
    const long idx = pg.indexOf(p);
    la::Vector& seg = diag.localSegment();
    const long off = diag.segOffset(idx);
    auto bs = A.blockSetAt(p.id());  // own place: no transfer
    if (!bs) throw apgas::DeadPlaceException(p.id());
    for (const la::MatrixBlock& block : *bs) {
      for (long i = 0; i < block.rows(); ++i) {
        const long g = block.rowOffset() + i;
        const long col = g - block.colOffset();
        if (col < 0 || col >= block.cols()) continue;  // diag not here
        if (g >= off && g < off + seg.size()) {
          seg[g - off] = block.dense()(i, col);
        }
      }
    }
    rt.chargeDenseFlops(static_cast<double>(seg.size()));
  });

  // The iteration divides the residual by every diagonal entry each
  // step; a (near-)zero one would emit Inf/NaN into x forever after.
  // Fail loudly up front, naming the row (header contract).
  {
    la::Vector d(n);
    diag.copyTo(d);
    for (long i = 0; i < n; ++i) {
      if (!safePivot(d[i])) {
        throw apgas::ApgasError(
            "jacobi: zero (or near-zero) diagonal at row " +
            std::to_string(i) + " (value " + std::to_string(d[i]) +
            "); D^{-1} does not exist");
      }
    }
  }

  auto t = DistVector::make(n, pg);
  auto resid = DistVector::make(n, pg);
  auto deltaDup = DupVector::make(n, pg);

  SolveResult result;
  for (long k = 0; k < maxIterations; ++k) {
    // resid = b - A x; x += D^{-1} resid.
    t.mult(A, x);
    resid.copyFrom(b);
    t.scale(-1.0);
    resid.cellAdd(t);
    result.residual = resid.norm2();
    if (result.residual <= tolerance) {
      result.converged = true;
      break;
    }
    resid.cellDiv(diag);
    deltaDup.copyFromDist(resid);
    x.cellAdd(deltaDup);
    ++result.iterations;
  }
  return result;
}

// -- Krylov suite ---------------------------------------------------------

void IdentityPreconditioner::setup(const DistBlockMatrix&) {}

void IdentityPreconditioner::apply(const la::Vector& r, la::Vector& z) const {
  if (r.size() != z.size()) {
    throw apgas::ApgasError("IdentityPreconditioner: dimension mismatch");
  }
  la::copy(r.span(), z.span());
}

void JacobiPreconditioner::setup(const DistBlockMatrix& A) {
  if (A.rows() != A.cols()) {
    throw apgas::ApgasError("JacobiPreconditioner: need a square matrix");
  }
  const long n = A.rows();
  invDiag_ = la::Vector(n);
  const Place here = Runtime::world().here();
  for (apgas::PlaceId p : A.placeGroup()) {
    A.remoteBlockSet(Place(p), [&](const la::BlockSet& bs) -> std::uint64_t {
      std::uint64_t pulled = 0;
      for (const la::MatrixBlock& block : bs) {
        const long r0 = block.rowOffset();
        const long c0 = block.colOffset();
        const long lo = std::max(r0, c0);
        const long hi = std::min(r0 + block.rows(), c0 + block.cols());
        for (long g = lo; g < hi; ++g) {
          invDiag_[g] = block.at(g - r0, g - c0);
        }
        pulled += static_cast<std::uint64_t>(std::max(0L, hi - lo));
      }
      // The caller's own blocks are read in place.
      return Place(p) == here ? 0 : pulled * sizeof(double);
    });
  }
  for (long i = 0; i < n; ++i) {
    if (!safePivot(invDiag_[i])) {
      throw apgas::ApgasError(
          "JacobiPreconditioner: zero (or near-zero) diagonal at row " +
          std::to_string(i));
    }
    invDiag_[i] = 1.0 / invDiag_[i];
  }
}

void JacobiPreconditioner::apply(const la::Vector& r, la::Vector& z) const {
  if (r.size() != invDiag_.size() || z.size() != invDiag_.size()) {
    throw apgas::ApgasError("JacobiPreconditioner: dimension mismatch");
  }
  for (long i = 0; i < r.size(); ++i) z[i] = r[i] * invDiag_[i];
}

la::SparseCSR gatherCSR(const DistBlockMatrix& A) {
  const long n = A.rows();
  const Place here = Runtime::world().here();
  // Slot k = (row k / C, column block k % C). start[k + 1] first counts
  // slot k's entries; after the prefix sum start[k] is where they begin,
  // so the fill writes every block row straight to its final place and
  // each row comes out column-sorted.
  const long C = A.grid().colBlocks();
  const auto slot = [C](const la::MatrixBlock& block, long i) {
    return static_cast<std::size_t>((block.rowOffset() + i) * C +
                                    block.blockCol());
  };
  std::vector<long> start(static_cast<std::size_t>(n * C) + 1, 0);
  for (apgas::PlaceId p : A.placeGroup()) {
    auto bs = A.blockSetAt(p);  // uncharged metadata walk
    if (!bs) continue;  // dead: the fill below throws for it
    for (const la::MatrixBlock& block : *bs) {
      const auto& rowPtr = block.sparse().rowPtr();
      for (long i = 0; i < block.rows(); ++i) {
        start[slot(block, i) + 1] += rowPtr[static_cast<std::size_t>(i) + 1] -
                                     rowPtr[static_cast<std::size_t>(i)];
      }
    }
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<long> colIdx(static_cast<std::size_t>(start.back()));
  std::vector<double> values(colIdx.size());
  for (apgas::PlaceId p : A.placeGroup()) {
    A.remoteBlockSet(Place(p), [&](const la::BlockSet& bs) -> std::uint64_t {
      std::uint64_t bytes = 0;
      for (const la::MatrixBlock& block : bs) {
        const la::SparseCSR& sub = block.sparse();
        for (long i = 0; i < block.rows(); ++i) {
          const long k0 = sub.rowPtr()[static_cast<std::size_t>(i)];
          const long k1 = sub.rowPtr()[static_cast<std::size_t>(i) + 1];
          const long dst = start[slot(block, i)];
          std::transform(sub.colIdx().begin() + k0, sub.colIdx().begin() + k1,
                         colIdx.begin() + dst,
                         [&](long c) { return c + block.colOffset(); });
          std::copy(sub.values().begin() + k0, sub.values().begin() + k1,
                    values.begin() + dst);
        }
        bytes += block.bytes();
      }
      // The caller's own blocks are read in place.
      return Place(p) == here ? 0 : bytes;
    });
  }
  std::vector<long> rowPtr(static_cast<std::size_t>(n) + 1);
  for (long r = 0; r <= n; ++r) {
    rowPtr[static_cast<std::size_t>(r)] =
        start[static_cast<std::size_t>(r * C)];
  }
  return {n, A.cols(), std::move(rowPtr), std::move(colIdx),
          std::move(values)};
}

void Ilu0Preconditioner::setup(const DistBlockMatrix& A) {
  if (A.rows() != A.cols()) {
    throw apgas::ApgasError("Ilu0Preconditioner: need a square matrix");
  }
  if (!A.isSparse()) {
    throw apgas::ApgasError("Ilu0Preconditioner: sparse matrices only");
  }
  // The factorization is serial and replicated on one global CSR, which
  // keeps apply() independent of A's partitioning.
  factors_ = la::ilu0Factor(gatherCSR(A));
  // Factorization cost ~ one pattern-restricted elimination pass.
  Runtime::world().chargeSparseFlops(2.0 *
                                     static_cast<double>(factors_.lu.nnz()));
}

void Ilu0Preconditioner::apply(const la::Vector& r, la::Vector& z) const {
  la::ilu0Solve(factors_, r, z);
}

void applyReplicated(const Preconditioner& M, const DupVector& r,
                     DupVector& z) {
  if (r.size() != z.size()) {
    throw apgas::ApgasError("applyReplicated: dimension mismatch");
  }
  apgas::ateach(r.placeGroup(), [&](Place p) {
    if (z.placeGroup().indexOf(p) < 0) {
      throw apgas::ApgasError(
          "applyReplicated: z not duplicated at this place");
    }
    M.apply(r.local(), z.local());
    Runtime::world().chargeSparseFlops(M.applyFlops());
  });
}

SolveResult pcg(const DistBlockMatrix& A, const DistVector& b, DupVector& x,
                const Preconditioner& M, long maxIterations,
                double tolerance) {
  if (A.rows() != A.cols() || A.rows() != b.size() ||
      A.cols() != x.size()) {
    throw apgas::ApgasError("pcg: need a square system");
  }
  const auto& pg = A.placeGroup();
  const long n = A.cols();
  auto t = DistVector::make(n, pg);      // scratch: A * direction
  auto rDist = DistVector::make(n, pg);  // scratch: distributed residual
  auto r = DupVector::make(n, pg);
  auto z = DupVector::make(n, pg);
  auto p = DupVector::make(n, pg);
  auto tDup = DupVector::make(n, pg);

  // r0 = b - A x0; z0 = M^{-1} r0; p0 = z0.
  t.mult(A, x);
  rDist.copyFrom(b);
  rDist.axpy(-1.0, t);
  r.copyFromDist(rDist);
  applyReplicated(M, r, z);
  p.copyFrom(z);
  double rz = r.dot(z);

  SolveResult result;
  result.residual = r.norm2();
  for (long k = 0; k < maxIterations; ++k) {
    if (result.residual <= tolerance) {
      result.converged = true;
      break;
    }
    t.mult(A, p);
    const double pq = t.dot(p);
    const double alpha = rz / pq;
    // Breakdown guard (header contract): non-positive curvature means no
    // SPD descent direction — hold the iterate instead of poisoning it.
    if (!(pq > 0.0) || !std::isfinite(alpha)) break;
    x.axpy(alpha, p);
    tDup.copyFromDist(t);
    r.axpy(-alpha, tDup);
    applyReplicated(M, r, z);
    const double rzNew = r.dot(z);
    const double beta = rz > 0.0 ? rzNew / rz : 0.0;
    rz = rzNew;
    p.scale(beta);
    p.cellAdd(z);
    ++result.iterations;
    result.residual = r.norm2();
  }
  result.converged = result.converged || result.residual <= tolerance;
  return result;
}

void GmresWorkspace::fit(const apgas::PlaceGroup& pg, long n, long m) {
  if (static_cast<long>(V.size()) == m + 1 && t.size() == n &&
      t.placeGroup() == pg) {
    return;
  }
  // Remake: erase the old objects on every place, then make the new ones.
  // V is filled last, so a make that throws on a dead place leaves it
  // short and the next call remakes again.
  for (DupVector& v : V) v.destroy();
  V.clear();
  t.destroy();
  rDist.destroy();
  w.destroy();
  z.destroy();
  t = DistVector::make(n, pg);
  rDist = DistVector::make(n, pg);
  w = DupVector::make(n, pg);
  z = DupVector::make(n, pg);
  V.reserve(static_cast<std::size_t>(m) + 1);
  for (long j = 0; j <= m; ++j) V.push_back(DupVector::make(n, pg));
}

SolveResult gmres(const DistBlockMatrix& A, const DistVector& b,
                  DupVector& x, const Preconditioner& M, GmresWorkspace& ws,
                  long restart, long maxRestarts, double tolerance) {
  if (A.rows() != A.cols() || A.rows() != b.size() ||
      A.cols() != x.size()) {
    throw apgas::ApgasError("gmres: need a square system");
  }
  if (restart < 1) throw apgas::ApgasError("gmres: restart < 1");
  const long n = A.cols();
  const long m = std::min(restart, n);
  ws.fit(A.placeGroup(), n, m);
  DistVector& t = ws.t;
  DistVector& rDist = ws.rDist;
  DupVector& w = ws.w;
  DupVector& z = ws.z;
  std::vector<DupVector>& V = ws.V;

  // Hessenberg column-major, plus the Givens rotations and the rotated
  // right-hand side g (all replicated host-side scalars).
  std::vector<double> H(static_cast<std::size_t>((m + 1) * m), 0.0);
  auto h = [&](long i, long j) -> double& {
    return H[static_cast<std::size_t>(j * (m + 1) + i)];
  };
  std::vector<double> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<double> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<double> g(static_cast<std::size_t>(m) + 1, 0.0);

  SolveResult result;
  for (long outer = 0; outer < maxRestarts; ++outer) {
    // w = M^{-1}(b - A x).
    t.mult(A, x);
    rDist.copyFrom(b);
    rDist.axpy(-1.0, t);
    z.copyFromDist(rDist);
    applyReplicated(M, z, w);
    const double beta = w.norm2();
    result.residual = beta;
    if (!(beta > tolerance) || !std::isfinite(beta)) {
      // Converged — or non-finite state, where the guard holds the
      // iterate rather than normalising by a NaN.
      result.converged = beta <= tolerance;
      return result;
    }
    V[0].copyFrom(w);
    V[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    long cols = 0;     // Arnoldi columns completed this cycle
    bool happy = false;
    for (long j = 0; j < m; ++j) {
      // w = M^{-1} A v_j, orthogonalised against the basis (MGS).
      t.mult(A, V[static_cast<std::size_t>(j)]);
      z.copyFromDist(t);
      applyReplicated(M, z, w);
      for (long i = 0; i <= j; ++i) {
        h(i, j) = w.dot(V[static_cast<std::size_t>(i)]);
        w.axpy(-h(i, j), V[static_cast<std::size_t>(i)]);
      }
      const double hnext = w.norm2();
      if (!std::isfinite(hnext)) break;  // guard: abandon the cycle
      h(j + 1, j) = hnext;
      // Happy breakdown: the Krylov space is exhausted — the cycle's
      // least-squares solution is exact in span(V_0..j).
      if (hnext <= 1e-14 * std::max(1.0, beta)) {
        happy = true;
      } else {
        V[static_cast<std::size_t>(j + 1)].copyFrom(w);
        V[static_cast<std::size_t>(j + 1)].scale(1.0 / hnext);
      }
      // Apply the accumulated Givens rotations, then a new one zeroing
      // h(j+1, j); |g[j+1]| tracks the preconditioned residual norm.
      for (long i = 0; i < j; ++i) {
        const double tmp = cs[static_cast<std::size_t>(i)] * h(i, j) +
                           sn[static_cast<std::size_t>(i)] * h(i + 1, j);
        h(i + 1, j) = -sn[static_cast<std::size_t>(i)] * h(i, j) +
                      cs[static_cast<std::size_t>(i)] * h(i + 1, j);
        h(i, j) = tmp;
      }
      const double denom = std::hypot(h(j, j), h(j + 1, j));
      if (denom > 0.0 && std::isfinite(denom)) {
        cs[static_cast<std::size_t>(j)] = h(j, j) / denom;
        sn[static_cast<std::size_t>(j)] = h(j + 1, j) / denom;
      } else {
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      }
      h(j, j) = cs[static_cast<std::size_t>(j)] * h(j, j) +
                sn[static_cast<std::size_t>(j)] * h(j + 1, j);
      h(j + 1, j) = 0.0;
      g[static_cast<std::size_t>(j + 1)] =
          -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] *= cs[static_cast<std::size_t>(j)];
      ++result.iterations;
      cols = j + 1;
      result.residual = std::abs(g[static_cast<std::size_t>(j + 1)]);
      if (happy || result.residual <= tolerance) break;
    }

    // Back-substitute y from the rotated Hessenberg and update x.
    std::vector<double> y(static_cast<std::size_t>(cols), 0.0);
    bool solvable = true;
    for (long i = cols - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (long l = i + 1; l < cols; ++l) {
        acc -= h(i, l) * y[static_cast<std::size_t>(l)];
      }
      if (!safePivot(h(i, i)) || !std::isfinite(acc)) {
        // Guard: a singular least-squares pivot cannot produce a finite
        // update — hold the iterate (header contract).
        solvable = false;
        break;
      }
      y[static_cast<std::size_t>(i)] = acc / h(i, i);
    }
    if (!solvable) return result;
    for (long i = 0; i < cols; ++i) {
      if (y[static_cast<std::size_t>(i)] != 0.0) {
        x.axpy(y[static_cast<std::size_t>(i)],
               V[static_cast<std::size_t>(i)]);
      }
    }
    if (result.residual <= tolerance || happy) {
      result.converged = result.residual <= tolerance;
      return result;
    }
  }
  result.converged = result.residual <= tolerance;
  return result;
}

}  // namespace rgml::gml
