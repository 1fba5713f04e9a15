// Property tests for the Krylov suite (PCG + restarted GMRES), the
// replicated preconditioners and the ILU(0) factorization: oracle
// agreement on band systems, preconditioner equivalence (every M must
// reach the same solution of the same system), the breakdown contract
// (degenerate curvature / singular pivots hold a finite iterate or throw
// a descriptive error), and replica consistency of applyReplicated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apgas/runtime.h"
#include "gml/solvers.h"
#include "la/ilu0.h"
#include "la/kernels.h"

namespace rgml::gml {
namespace {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

class KrylovSolversTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::init(4); }
};

/// Band CSR with entry (i, j) = fn(i, j) inside the band.
la::SparseCSR bandCSR(long n, long band,
                      const std::function<double(long, long)>& fn) {
  std::vector<long> rowPtr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<long> colIdx;
  std::vector<double> values;
  for (long i = 0; i < n; ++i) {
    const long lo = std::max(0L, i - band);
    const long hi = std::min(n - 1, i + band);
    for (long j = lo; j <= hi; ++j) {
      colIdx.push_back(j);
      values.push_back(fn(i, j));
    }
    rowPtr[static_cast<std::size_t>(i) + 1] =
        static_cast<long>(colIdx.size());
  }
  return {n, n, std::move(rowPtr), std::move(colIdx), std::move(values)};
}

/// Deterministic SPD band matrix (same family as the CgResilient app):
/// strictly diagonally dominant, symmetric, half-bandwidth `band`.
la::SparseCSR spdBandCSR(long n, long band) {
  return bandCSR(n, band, [band](long i, long j) {
    if (j == i) {
      return 2.0 * static_cast<double>(band) + 1.5 +
             0.25 * static_cast<double>(i % 7);
    }
    return -1.0 / (1.0 + static_cast<double>(std::labs(i - j)));
  });
}

/// Nonsymmetric diagonally dominant band matrix (GMRES territory).
la::SparseCSR nonsymBandCSR(long n, long band) {
  return bandCSR(n, band, [band](long i, long j) {
    const double d = static_cast<double>(std::labs(i - j));
    if (j == i) {
      return 2.0 * static_cast<double>(band) + 1.8 +
             0.2 * static_cast<double>(i % 5);
    }
    return j < i ? -1.0 / (1.0 + d) : -0.6 / (1.0 + d);
  });
}

DistBlockMatrix distFromCSR(const la::SparseCSR& global, long band,
                            const PlaceGroup& pg) {
  const long places = static_cast<long>(pg.size());
  auto a = DistBlockMatrix::makeSparse(global.rows(), global.cols(),
                                       2 * places, 1, places, 1,
                                       2 * band + 1, pg);
  a.initFromCSR(global);
  return a;
}

/// True residual ||b - A x||_2 computed with distributed ops.
double trueResidual(const DistBlockMatrix& a, const DistVector& b,
                    const DupVector& x) {
  auto t = DistVector::make(a.rows(), a.placeGroup());
  t.mult(a, x);
  auto r = DistVector::make(a.rows(), a.placeGroup());
  r.copyFrom(b);
  r.axpy(-1.0, t);
  return std::sqrt(r.dot(r));
}

TEST_F(KrylovSolversTest, PcgSolvesSpdBandSystem) {
  auto pg = PlaceGroup::world();
  const long n = 48, band = 2;
  auto a = distFromCSR(spdBandCSR(n, band), band, pg);
  auto b = DistVector::make(n, pg);
  b.initRandom(11);
  auto x = DupVector::make(n, pg);
  x.init(0.0);

  JacobiPreconditioner m;
  m.setup(a);
  auto result = pcg(a, b, x, m, 100, 1e-10);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-10);
  EXPECT_LT(trueResidual(a, b, x), 1e-8);
}

TEST_F(KrylovSolversTest, PreconditionersAgreeOnTheSolution) {
  // Identity, Jacobi and ILU(0) precondition the SAME system; all three
  // runs must land on the same solution (the preconditioner changes the
  // trajectory, never the fixed point).
  auto pg = PlaceGroup::world();
  const long n = 40, band = 2;
  const la::SparseCSR global = spdBandCSR(n, band);

  IdentityPreconditioner ident;
  JacobiPreconditioner jac;
  Ilu0Preconditioner ilu;
  Preconditioner* preconditioners[] = {&ident, &jac, &ilu};

  std::vector<la::Vector> solutions;
  for (Preconditioner* m : preconditioners) {
    auto a = distFromCSR(global, band, pg);
    auto b = DistVector::make(n, pg);
    b.initRandom(13);
    auto x = DupVector::make(n, pg);
    x.init(0.0);
    m->setup(a);
    auto result = pcg(a, b, x, *m, 200, 1e-12);
    EXPECT_TRUE(result.converged) << m->name();
    la::Vector xv;
    apgas::at(Place(0), [&] { xv = x.local(); });
    solutions.push_back(std::move(xv));
  }
  for (std::size_t k = 1; k < solutions.size(); ++k) {
    for (long i = 0; i < n; ++i) {
      EXPECT_NEAR(solutions[k][i], solutions[0][i], 1e-8)
          << preconditioners[k]->name() << " vs identity at " << i;
    }
  }
}

TEST_F(KrylovSolversTest, PcgIndefiniteBreakdownHoldsIterate) {
  // Diagonal matrix with one negative eigenvalue and b along that
  // direction: the very first curvature p'Ap is negative, so the guard
  // must stop before any update — zero iterations, x still the (finite)
  // starting guess.
  auto pg = PlaceGroup::world();
  const long n = 8;
  const la::SparseCSR global = bandCSR(
      n, 0, [n](long i, long) { return i == n - 1 ? -1.0 : 1.0; });
  auto a = distFromCSR(global, 0, pg);
  auto b = DistVector::make(n, pg);
  b.init([n](long i) { return i == n - 1 ? 1.0 : 0.0; });
  auto x = DupVector::make(n, pg);
  x.init(0.0);

  IdentityPreconditioner m;
  m.setup(a);
  auto result = pcg(a, b, x, m, 20, 0.0);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  apgas::at(Place(0), [&] {
    for (long i = 0; i < n; ++i) {
      EXPECT_EQ(x.local()[i], 0.0);
    }
  });
}

TEST_F(KrylovSolversTest, GmresSolvesNonsymmetricSystem) {
  auto pg = PlaceGroup::world();
  const long n = 48, band = 2;
  auto a = distFromCSR(nonsymBandCSR(n, band), band, pg);
  auto b = DistVector::make(n, pg);
  b.initRandom(17);
  auto x = DupVector::make(n, pg);
  x.init(0.0);

  Ilu0Preconditioner m;
  m.setup(a);
  GmresWorkspace ws;
  auto result = gmres(a, b, x, m, ws, 8, 20, 1e-10);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(trueResidual(a, b, x), 1e-7);
}

TEST_F(KrylovSolversTest, GmresHappyBreakdownOnIdentity) {
  // A = I: the first Arnoldi vector already spans the Krylov space, the
  // new-basis norm vanishes (happy breakdown) and the cycle's solution
  // is exact after a single inner step.
  auto pg = PlaceGroup::world();
  const long n = 16;
  const la::SparseCSR eye = bandCSR(n, 0, [](long, long) { return 1.0; });
  auto a = distFromCSR(eye, 0, pg);
  auto b = DistVector::make(n, pg);
  b.initRandom(19);
  auto x = DupVector::make(n, pg);
  x.init(0.0);

  IdentityPreconditioner m;
  m.setup(a);
  GmresWorkspace ws;
  auto result = gmres(a, b, x, m, ws, 5, 3, 1e-12);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1);
  la::Vector bv(n);
  b.copyTo(bv);
  apgas::at(Place(0), [&] {
    for (long i = 0; i < n; ++i) {
      EXPECT_NEAR(x.local()[i], bv[i], 1e-12);
    }
  });
}

TEST_F(KrylovSolversTest, Ilu0IsExactLuOnTridiagonal) {
  // On a tridiagonal pattern ILU(0) has no dropped fill, so it IS the LU
  // factorization: applying the preconditioner solves the system exactly.
  const long n = 12;
  const la::SparseCSR a = spdBandCSR(n, 1);
  const la::Ilu0 f = la::ilu0Factor(a);
  la::Vector r(n), z(n), az(n);
  for (long i = 0; i < n; ++i) r[i] = 0.3 + 0.1 * static_cast<double>(i);
  la::ilu0Solve(f, r, z);
  la::spmv(a, z.span(), az.span());
  for (long i = 0; i < n; ++i) {
    EXPECT_NEAR(az[i], r[i], 1e-10) << "row " << i;
  }
}

TEST_F(KrylovSolversTest, Ilu0ThrowsNamingRowOnMissingDiagonal) {
  // Row 2 has no structural diagonal — unfactorable on its own pattern.
  la::SparseCSR a(4, 4, {0, 1, 2, 3, 4}, {0, 1, 3, 3},
                  {2.0, 2.0, 1.0, 2.0});
  try {
    static_cast<void>(la::ilu0Factor(a));
    FAIL() << "ilu0Factor accepted a missing diagonal";
  } catch (const apgas::ApgasError& e) {
    EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos)
        << e.what();
  }
}

TEST_F(KrylovSolversTest, Ilu0ThrowsOnDegeneratePivot) {
  // [[1,1],[1,1]]: u11 = 1, l21 = 1, u22 = 1 - 1*1 = 0 — pivot
  // degenerates at row 1 and ILU(0) has no pivoting to recover.
  la::SparseCSR a(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {1.0, 1.0, 1.0, 1.0});
  try {
    static_cast<void>(la::ilu0Factor(a));
    FAIL() << "ilu0Factor accepted a zero pivot";
  } catch (const apgas::ApgasError& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }
}

TEST_F(KrylovSolversTest, JacobiPreconditionerRejectsZeroDiagonal) {
  auto pg = PlaceGroup::world();
  const long n = 8, band = 1;
  // Diagonally dominant tridiagonal except row 3, whose diagonal is 0.
  const la::SparseCSR global = bandCSR(n, band, [](long i, long j) {
    if (i == j) return i == 3 ? 0.0 : 4.0;
    return -1.0;
  });
  auto a = distFromCSR(global, band, pg);
  JacobiPreconditioner m;
  try {
    m.setup(a);
    FAIL() << "JacobiPreconditioner accepted a zero diagonal";
  } catch (const apgas::ApgasError& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos)
        << e.what();
  }
}

TEST_F(KrylovSolversTest, ApplyReplicatedKeepsReplicasConsistent) {
  // z = M^{-1} r must hold the SAME values at every replica, and agree
  // with a host-side apply on the same data.
  auto pg = PlaceGroup::world();
  const long n = 24, band = 2;
  auto a = distFromCSR(spdBandCSR(n, band), band, pg);
  Ilu0Preconditioner m;
  m.setup(a);

  auto r = DupVector::make(n, pg);
  r.initRandom(23);
  auto z = DupVector::make(n, pg);
  z.init(0.0);
  applyReplicated(m, r, z);

  la::Vector rv;
  apgas::at(Place(0), [&] { rv = r.local(); });
  la::Vector expect(n);
  m.apply(rv, expect);
  for (apgas::PlaceId p : pg) {
    la::Vector zv;
    apgas::at(Place(p), [&] { zv = z.local(); });
    ASSERT_EQ(zv.size(), n);
    for (long i = 0; i < n; ++i) {
      EXPECT_EQ(zv[i], expect[i]) << "place " << p << " row " << i;
    }
  }
}

// -- the GMRES workspace and the one-pass ILU(0) assembly, on both engines

/// Four solve places plus one spare (place 4) for the replace restore.
class GmresWorkspaceTest : public ::testing::TestWithParam<apgas::Backend> {
 protected:
  void SetUp() override {
    apgas::RuntimeConfig cfg;
    cfg.numPlaces = 5;
    cfg.resilientFinish = true;
    cfg.backend = GetParam();
    Runtime::init(cfg);
  }

  static constexpr long kN = 48;
  static constexpr long kBand = 2;
  static constexpr long kRestart = 6;
  const PlaceGroup pg_{0, 1, 2, 3};
};

/// Every replica of `x` equals the same replica of `y` bit for bit.
void expectSameReplicas(const DupVector& x, const DupVector& y) {
  ASSERT_EQ(x.placeGroup(), y.placeGroup());
  for (apgas::PlaceId p : x.placeGroup()) {
    apgas::at(Place(p), [&] { EXPECT_EQ(x.local(), y.local()) << p; });
  }
}

/// One GMRES(kRestart) cycle with tolerance 0, as GmresResilient::step.
SolveResult cycle(const DistBlockMatrix& a, const DistVector& b, DupVector& x,
                  const Preconditioner& m, GmresWorkspace& ws, long restart) {
  return gmres(a, b, x, m, ws, restart, 1, 0.0);
}

TEST_P(GmresWorkspaceTest, SharedWorkspaceMatchesAFreshOneBitwise) {
  auto a = distFromCSR(nonsymBandCSR(kN, kBand), kBand, pg_);
  auto b = DistVector::make(kN, pg_);
  b.initRandom(29);
  auto xShared = DupVector::make(kN, pg_);
  xShared.init(0.0);
  auto xFresh = DupVector::make(kN, pg_);
  xFresh.init(0.0);
  Ilu0Preconditioner m;
  m.setup(a);

  GmresWorkspace shared;
  for (int c = 0; c < 4; ++c) {
    const SolveResult s = cycle(a, b, xShared, m, shared, kRestart);
    GmresWorkspace fresh;
    const SolveResult f = cycle(a, b, xFresh, m, fresh, kRestart);
    EXPECT_EQ(s.residual, f.residual) << "cycle " << c;
    EXPECT_EQ(s.iterations, f.iterations) << "cycle " << c;
    expectSameReplicas(xShared, xFresh);
  }
}

TEST_P(GmresWorkspaceTest, CyclesAfterTheFirstMakeNoHandle) {
  auto a = distFromCSR(nonsymBandCSR(kN, kBand), kBand, pg_);
  auto b = DistVector::make(kN, pg_);
  b.initRandom(31);
  auto x = DupVector::make(kN, pg_);
  x.init(0.0);
  Ilu0Preconditioner m;
  m.setup(a);
  GmresWorkspace ws;
  static_cast<void>(cycle(a, b, x, m, ws, kRestart));

  // allocHandleId() hands out consecutive ids: reading it twice around
  // the cycles shows how many handles they made in between.
  Runtime& rt = Runtime::world();
  const std::uint64_t before = rt.allocHandleId();
  for (int c = 0; c < 3; ++c) {
    static_cast<void>(cycle(a, b, x, m, ws, kRestart));
  }
  EXPECT_EQ(rt.allocHandleId(), before + 1);

  // Another restart length is another shape: the workspace is remade.
  static_cast<void>(cycle(a, b, x, m, ws, kRestart - 1));
  EXPECT_EQ(ws.V.size(), static_cast<std::size_t>(kRestart));
  EXPECT_GT(rt.allocHandleId(), before + 2);
}

TEST_P(GmresWorkspaceTest, KillAndRestoreRemakeOverTheNewGroup) {
  const la::SparseCSR global = nonsymBandCSR(kN, kBand);
  auto a = distFromCSR(global, kBand, pg_);
  auto b = DistVector::make(kN, pg_);
  b.initRandom(37);
  auto x = DupVector::make(kN, pg_);
  x.init(0.0);
  Ilu0Preconditioner m;
  m.setup(a);
  GmresWorkspace ws;
  static_cast<void>(cycle(a, b, x, m, ws, kRestart));
  const GmresWorkspace old = ws;  // copies alias the old objects

  // Kill place 2 and restore as GmresResilient's algorithm-based path
  // does: the inputs are rebuilt over the new group, x comes from a
  // survivor, M is refactored. The workspace is left alone.
  Runtime::world().kill(2);
  const PlaceGroup next = pg_.replaceDead({4});
  ASSERT_EQ(next, PlaceGroup({0, 1, 4, 3}));
  a = distFromCSR(global, kBand, next);
  b = DistVector::make(kN, next);
  b.initRandom(37);
  x.remakeFromSurvivor(next);
  m.setup(a);
  auto xFresh = DupVector::make(kN, next);
  xFresh.copyFrom(x);

  static_cast<void>(cycle(a, b, x, m, ws, kRestart));
  EXPECT_EQ(ws.t.placeGroup(), next);
  EXPECT_EQ(ws.rDist.placeGroup(), next);
  EXPECT_EQ(ws.w.placeGroup(), next);
  EXPECT_EQ(ws.z.placeGroup(), next);
  ASSERT_EQ(ws.V.size(), static_cast<std::size_t>(kRestart + 1));
  for (const DupVector& v : ws.V) EXPECT_EQ(v.placeGroup(), next);

  // The old objects are erased on every surviving place.
  for (apgas::PlaceId p : {0, 1, 3}) {
    apgas::at(Place(p), [&] {
      EXPECT_THROW(static_cast<void>(old.t.localSegment()),
                   apgas::ApgasError);
      EXPECT_THROW(static_cast<void>(old.rDist.localSegment()),
                   apgas::ApgasError);
      EXPECT_THROW(static_cast<void>(old.w.local()), apgas::ApgasError);
      EXPECT_THROW(static_cast<void>(old.z.local()), apgas::ApgasError);
      for (const DupVector& v : old.V) {
        EXPECT_THROW(static_cast<void>(v.local()), apgas::ApgasError);
      }
    });
  }

  GmresWorkspace fresh;
  static_cast<void>(cycle(a, b, xFresh, m, fresh, kRestart));
  expectSameReplicas(x, xFresh);
}

TEST_P(GmresWorkspaceTest, OnePassIlu0AssemblyEqualsPastedBlocks) {
  // An uneven grid: 29 rows in 5 row blocks and 3 column blocks over a
  // 2 x 2 place grid, so a place holds blocks of several column blocks
  // and the fill visits a row's blocks out of column order.
  const long n = 29, band = 3;
  const la::SparseCSR global = nonsymBandCSR(n, band);
  auto a = DistBlockMatrix::makeSparse(n, n, 5, 3, 2, 2, 2 * band + 1, pg_);
  a.initFromCSR(global);

  la::SparseCSR pasted(n, n);
  for (apgas::PlaceId p : pg_) {
    for (const la::MatrixBlock& block : *a.blockSetAt(p)) {
      pasted.pasteSubFrom(block.sparse(), block.rowOffset(),
                          block.colOffset());
    }
  }
  ASSERT_EQ(pasted, global);
  EXPECT_EQ(gatherCSR(a), pasted);

  Ilu0Preconditioner m;
  m.setup(a);
  const la::Ilu0 expected = la::ilu0Factor(pasted);
  EXPECT_EQ(m.factors().lu, expected.lu);
  EXPECT_EQ(m.factors().diagPos, expected.diagPos);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, GmresWorkspaceTest,
    ::testing::Values(apgas::Backend::Simulated, apgas::Backend::Threads),
    [](const ::testing::TestParamInfo<apgas::Backend>& info) {
      return std::string(apgas::toString(info.param));
    });

}  // namespace
}  // namespace rgml::gml
