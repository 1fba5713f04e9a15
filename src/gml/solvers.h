// Reusable distributed iterative solvers built on the public GML API —
// the "library of building blocks" role GML plays for applications
// (paper §I, §III). Each solver is expressed purely in terms of
// DistBlockMatrix / DistVector / DupVector operations, so it inherits
// their distribution, cost accounting and failure semantics.
//
// Breakdown-guard contract: none of the solvers here may poison the
// iterate with NaN/Inf. When an update coefficient degenerates — a
// (near-)zero curvature p'Ap in the CG family, a vanishing Arnoldi
// column norm or singular least-squares pivot in GMRES, a zero diagonal
// in Jacobi — the solver either stops and returns the CURRENT iterate
// (with `converged` reflecting the actual residual) or, where the input
// itself is unusable (Jacobi's zero diagonal, an unfactorable ILU(0)
// pattern), throws a descriptive ApgasError naming the offending row.
// Callers can therefore always trust x to be finite after a solve.
#pragma once

#include <functional>
#include <vector>

#include "gml/dist_block_matrix.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "la/ilu0.h"
#include "la/vector.h"

namespace rgml::gml {

/// Result of an iterative solve.
struct SolveResult {
  long iterations = 0;    ///< iterations actually run
  double residual = 0.0;  ///< final residual metric (solver-specific)
  bool converged = false;
};

/// Conjugate gradient on the regularised normal equations:
/// solve (A^T A + lambda I) x = A^T b for x (duplicated), with A an
/// m x n row-partitioned matrix and b a distributed m-vector.
/// Stops after `maxIterations` or when the residual norm falls below
/// `tolerance`. x must be sized n over A's place group; its content is
/// the starting guess.
SolveResult conjugateGradientNormal(const DistBlockMatrix& A,
                                    const DistVector& b, DupVector& x,
                                    double lambda, long maxIterations,
                                    double tolerance);

/// Power iteration for the dominant eigenpair of a square n x n
/// row-partitioned matrix: x converges to the dominant eigenvector
/// (normalised), the returned residual is |lambda_k - lambda_{k-1}|, and
/// the eigenvalue estimate is written to `eigenvalue`.
SolveResult powerIteration(const DistBlockMatrix& A, DupVector& x,
                           double& eigenvalue, long maxIterations,
                           double tolerance);

/// Jacobi iteration for a strictly diagonally dominant square system
/// A x = b with A row-partitioned and dense: x_{k+1} = D^{-1}(b - R x_k).
/// Throws ApgasError naming the row when a diagonal entry is
/// (near-)zero — inverting it would fill x with Inf/NaN.
SolveResult jacobi(const DistBlockMatrix& A, const DistVector& b,
                   DupVector& x, long maxIterations, double tolerance);

// -- Krylov suite (PCG + restarted GMRES) ---------------------------------

/// Preconditioner for the Krylov solvers. Applied REPLICATED: setup()
/// builds global factors from A's values only — never from its block
/// layout — so a restored or re-partitioned matrix yields bit-identical
/// factors, and apply() runs independently at every place on that
/// place's (identical) replica of the residual. This partition
/// independence is what lets the chaos harness compare a post-failure
/// run against the golden trajectory (a block-local preconditioner would
/// legitimately change the iteration after a shrink).
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// (Re)build the factors from A. Deterministic in A's values.
  virtual void setup(const DistBlockMatrix& A) = 0;

  /// z = M^{-1} r on one replica; no communication. |r| == |z| == n.
  virtual void apply(const la::Vector& r, la::Vector& z) const = 0;

  /// Flops one apply() costs (charged by applyReplicated per place).
  [[nodiscard]] virtual double applyFlops() const { return 0.0; }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// M = I (plain CG / GMRES).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void setup(const DistBlockMatrix& A) override;
  void apply(const la::Vector& r, la::Vector& z) const override;
  [[nodiscard]] const char* name() const override { return "identity"; }
};

/// M = diag(A). Works for dense and sparse blocks; throws ApgasError
/// naming the row on a (near-)zero diagonal entry.
class JacobiPreconditioner final : public Preconditioner {
 public:
  void setup(const DistBlockMatrix& A) override;
  void apply(const la::Vector& r, la::Vector& z) const override;
  [[nodiscard]] double applyFlops() const override {
    return static_cast<double>(invDiag_.size());
  }
  [[nodiscard]] const char* name() const override { return "jacobi"; }

 private:
  la::Vector invDiag_;
};

/// A's sparse blocks as one global CSR at the calling place, assembled
/// once at its final size: an uncharged metadata walk counts each row's
/// entries, then one remoteBlockSet access per place of A's group copies
/// them, charging that place's block bytes (nothing for the caller's own
/// blocks, which are read in place). Equal to pasting every block into
/// an empty matrix with SparseCSR::pasteSubFrom.
[[nodiscard]] la::SparseCSR gatherCSR(const DistBlockMatrix& A);

/// M = L U from ILU(0) on A's global sparsity pattern (sparse blocks
/// only). setup() gathers A into one global CSR (gatherCSR) and factors
/// serially — the factors are then replicated, keeping apply() partition
/// independent. Throws ApgasError (via ilu0Factor) when the pattern has
/// no diagonal or a pivot degenerates.
class Ilu0Preconditioner final : public Preconditioner {
 public:
  void setup(const DistBlockMatrix& A) override;
  void apply(const la::Vector& r, la::Vector& z) const override;
  [[nodiscard]] double applyFlops() const override {
    return 2.0 * static_cast<double>(factors_.lu.nnz());
  }
  [[nodiscard]] const char* name() const override { return "ilu0"; }
  [[nodiscard]] const la::Ilu0& factors() const noexcept { return factors_; }

 private:
  la::Ilu0 factors_;
};

/// z = M^{-1} r at every replica (one finish; inputs are identical by the
/// DupVector invariant, so the replicas stay consistent).
void applyReplicated(const Preconditioner& M, const DupVector& r,
                     DupVector& z);

/// Preconditioned conjugate gradient for a square SPD system A x = b
/// with A row-partitioned, b distributed and x duplicated (start guess).
/// Residual is ||b - A x||_2. Breakdown (p'Ap <= 0 or a non-finite
/// step) stops the iteration and returns the current iterate per the
/// header contract.
SolveResult pcg(const DistBlockMatrix& A, const DistVector& b, DupVector& x,
                const Preconditioner& M, long maxIterations,
                double tolerance);

/// The caller-held scratch of gmres(): t and rDist (A * v and the
/// residual, distributed like b), w and z (the new basis candidate and
/// the gather it is preconditioned from) and the m+1 Krylov basis
/// vectors. gmres()
/// builds it on first use and remakes it only when A's place group, n or
/// m changes, erasing the old objects on every place, so a caller that
/// passes the same workspace to every call makes no place-local object
/// after the first. Each op gmres() runs overwrites its output in full,
/// so a reused workspace gives bitwise the same results as a fresh one.
struct GmresWorkspace {
  DistVector t;
  DistVector rDist;
  DupVector w;
  DupVector z;
  std::vector<DupVector> V;

  /// Makes the vectors for an n-unknown GMRES(m) over `pg`, unless they
  /// already have that shape.
  void fit(const apgas::PlaceGroup& pg, long n, long m);
};

/// Restarted GMRES(m) with left preconditioning for a square (generally
/// nonsymmetric) system A x = b: at most `maxRestarts` cycles of a
/// `restart`-dimensional Arnoldi process (modified Gram-Schmidt + Givens
/// rotations), on the vectors of `ws`. `iterations` counts inner Arnoldi
/// steps; `residual` is the PRECONDITIONED residual norm
/// ||M^{-1}(b - A x)||_2. A vanishing new-basis norm is the happy
/// breakdown (the Krylov space is exhausted and the cycle's solution is
/// exact in it); non-finite arithmetic or a singular least-squares pivot
/// abandons the cycle with the iterate held, per the header contract.
SolveResult gmres(const DistBlockMatrix& A, const DistVector& b,
                  DupVector& x, const Preconditioner& M, GmresWorkspace& ws,
                  long restart, long maxRestarts, double tolerance);

}  // namespace rgml::gml
