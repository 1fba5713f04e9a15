// Golden-equivalence property tests for the optimised local kernels.
//
// The register-blocked gemv/gemvTrans, blocked gemm and pointer-stepped
// spmm promise bit-identical results to their naive *_ref counterparts
// (kernels.h), so the primary checks are exact. Independent oracles with
// different summation orders guard against a bug shared by both
// implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "la/dense_matrix.h"
#include "la/kernels.h"
#include "la/rand.h"
#include "la/sparse_csr.h"

namespace rgml::la {
namespace {

/// Random dense matrix where roughly `zeroPct` percent of the entries are
/// exactly zero — exercises the kernels' zero-skip paths.
DenseMatrix makeSparsishDense(long m, long n, std::uint64_t seed,
                              int zeroPct) {
  DenseMatrix a = makeUniformDense(m, n, seed, -1.0, 1.0);
  SplitMix64 rng(seed ^ 0xA5A5A5A5ULL);
  for (double& v : a.span()) {
    if (rng.nextLong(100) < zeroPct) v = 0.0;
  }
  return a;
}

// Shapes that run every unroll tail: odd row counts leave a row after the
// row pairs, and column counts cover each remainder of the 4-column (gemv)
// and 8/4/2/1-column (gemvTrans) groups.
constexpr long kGemvRows[] = {1, 2, 3, 7, 8, 9, 31, 5000};
constexpr long kGemvCols[] = {1, 3, 4, 5, 7, 8, 9, 13, 100};

/// Uniform vector; with `withZeros`, about a quarter of the entries (and
/// always the middle one) are exact zeros of either sign.
std::vector<double> makeGemvOperand(long n, std::uint64_t seed,
                                    bool withZeros) {
  std::vector<double> v(static_cast<std::size_t>(n));
  fillUniform(v, seed, -1.0, 1.0);
  if (!withZeros) return v;
  SplitMix64 rng(seed ^ 0x5A5A5A5AULL);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (rng.nextLong(4) == 0) v[i] = i % 2 == 0 ? 0.0 : -0.0;
  }
  v[v.size() / 2] = -0.0;
  return v;
}

/// y with a -0.0 first entry: adding a zero product would flip it to +0.0.
std::vector<double> makeGemvOutput(long n, std::uint64_t seed) {
  std::vector<double> y(static_cast<std::size_t>(n));
  fillUniform(y, seed, -1.0, 1.0);
  y[0] = -0.0;
  return y;
}

TEST(KernelsProperty, GemvMatchesRefBitIdentical) {
  // gemv_ref skips a column whose x entry is zero. Filling those columns
  // with NaN and ±Inf makes a kernel that multiplies them instead fail.
  const double nonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  std::uint64_t seed = 100;
  for (long m : kGemvRows) {
    for (long n : kGemvCols) {
      for (bool withZeros : {false, true}) {
        seed += 3;
        const std::vector<double> x = makeGemvOperand(n, seed, withZeros);
        DenseMatrix a = makeUniformDense(m, n, seed + 1, -1.0, 1.0);
        for (long j = 0; j < n; ++j) {
          if (x[static_cast<std::size_t>(j)] != 0.0) continue;
          for (long i = 0; i < m; ++i) a(i, j) = nonFinite[(i + j) % 3];
        }
        for (double beta : {0.0, 1.0, 0.5}) {
          std::vector<double> y = makeGemvOutput(m, seed + 2);
          std::vector<double> yRef = y;
          gemv(a, x, y, beta);
          gemv_ref(a, x, yRef, beta);
          ASSERT_EQ(std::memcmp(y.data(), yRef.data(),
                                y.size() * sizeof(double)),
                    0)
              << "m=" << m << " n=" << n << " beta=" << beta
              << " withZeros=" << withZeros;
        }
      }
    }
  }
}

TEST(KernelsProperty, GemvTransMatchesRefBitIdentical) {
  // gemvTrans_ref does not skip zero x entries, so a ±Inf in such a row
  // turns its column's sum into NaN; a kernel that skips the row stays
  // finite and fails. Every third column of such a row is poisoned, so the
  // other columns still check finite sums over signed-zero x entries. The
  // only NaN is the one Inf*0 produces, so the bits do not depend on the
  // operand order the compiler picks for an add.
  const double inf = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 200;
  for (long m : kGemvRows) {
    for (long n : kGemvCols) {
      for (bool withZeros : {false, true}) {
        seed += 3;
        const std::vector<double> x = makeGemvOperand(m, seed, withZeros);
        DenseMatrix a = makeUniformDense(m, n, seed + 1, -1.0, 1.0);
        for (long i = 0; i < m; ++i) {
          if (x[static_cast<std::size_t>(i)] != 0.0) continue;
          for (long j = (3 - i % 3) % 3; j < n; j += 3) {
            a(i, j) = i % 2 == 0 ? inf : -inf;
          }
        }
        for (double beta : {0.0, 1.0, 0.5}) {
          std::vector<double> y = makeGemvOutput(n, seed + 2);
          std::vector<double> yRef = y;
          gemvTrans(a, x, y, beta);
          gemvTrans_ref(a, x, yRef, beta);
          ASSERT_EQ(std::memcmp(y.data(), yRef.data(),
                                y.size() * sizeof(double)),
                    0)
              << "m=" << m << " n=" << n << " beta=" << beta
              << " withZeros=" << withZeros;
        }
      }
    }
  }
}

TEST(KernelsProperty, GemmMatchesRefBitIdentical) {
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const long m = 1 + rng.nextLong(97);
    const long n = 1 + rng.nextLong(23);
    const long k = 1 + rng.nextLong(97);
    const int zeroPct = trial % 3 == 0 ? 40 : 0;
    const DenseMatrix a = makeSparsishDense(m, k, 7 * trial + 1, zeroPct);
    const DenseMatrix b = makeSparsishDense(k, n, 7 * trial + 2, zeroPct);
    for (double beta : {0.0, 1.0, 0.5}) {
      DenseMatrix c = makeUniformDense(m, n, 7 * trial + 3, -1.0, 1.0);
      DenseMatrix cRef = c;
      gemm(a, b, c, beta);
      gemm_ref(a, b, cRef, beta);
      for (long j = 0; j < n; ++j) {
        for (long i = 0; i < m; ++i) {
          ASSERT_EQ(c(i, j), cRef(i, j))
              << "trial=" << trial << " beta=" << beta << " m=" << m
              << " n=" << n << " k=" << k << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(KernelsProperty, GemmMatchesIndependentDotOracle) {
  SplitMix64 rng(4048);
  for (int trial = 0; trial < 10; ++trial) {
    const long m = 1 + rng.nextLong(31);
    const long n = 1 + rng.nextLong(11);
    const long k = 1 + rng.nextLong(31);
    const DenseMatrix a = makeUniformDense(m, k, 13 * trial + 1, -1.0, 1.0);
    const DenseMatrix b = makeUniformDense(k, n, 13 * trial + 2, -1.0, 1.0);
    for (double beta : {0.0, 1.0, 0.5}) {
      DenseMatrix c = makeUniformDense(m, n, 13 * trial + 3, -1.0, 1.0);
      const DenseMatrix c0 = c;
      gemm(a, b, c, beta);
      // Oracle: per-element dot product, i.e. the transposed (ijk) loop
      // order — a different accumulation order than the jki kernels use.
      for (long i = 0; i < m; ++i) {
        for (long j = 0; j < n; ++j) {
          double acc = beta * c0(i, j);
          for (long kk = 0; kk < k; ++kk) acc += a(i, kk) * b(kk, j);
          ASSERT_NEAR(c(i, j), acc, 1e-10 * (1.0 + std::fabs(acc)));
        }
      }
    }
  }
}

TEST(KernelsProperty, SpmmMatchesRefBitIdentical) {
  SplitMix64 rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const long m = 1 + rng.nextLong(61);
    const long k = 1 + rng.nextLong(61);
    const long n = 1 + rng.nextLong(17);
    const long nnzPerRow = 1 + rng.nextLong(std::min(k, 8L));
    const SparseCSR a = makeUniformSparse(m, k, nnzPerRow, 11 * trial + 1,
                                          -1.0, 1.0);
    const DenseMatrix b = makeUniformDense(k, n, 11 * trial + 2, -1.0, 1.0);
    for (double beta : {0.0, 1.0, 0.5}) {
      DenseMatrix c = makeUniformDense(m, n, 11 * trial + 3, -1.0, 1.0);
      DenseMatrix cRef = c;
      spmm(a, b, c, beta);
      spmm_ref(a, b, cRef, beta);
      for (long j = 0; j < n; ++j) {
        for (long i = 0; i < m; ++i) {
          ASSERT_EQ(c(i, j), cRef(i, j))
              << "trial=" << trial << " beta=" << beta << " m=" << m
              << " n=" << n << " k=" << k << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(KernelsProperty, SpmmMatchesDenseGemmOracle) {
  SplitMix64 rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    const long m = 1 + rng.nextLong(25);
    const long k = 1 + rng.nextLong(25);
    const long n = 1 + rng.nextLong(9);
    const long nnzPerRow = 1 + rng.nextLong(std::min(k, 4L));
    const SparseCSR a = makeUniformSparse(m, k, nnzPerRow, 17 * trial + 1,
                                          -1.0, 1.0);
    // Densify A and push it through the dense reference kernel.
    DenseMatrix aDense(m, k);
    for (long i = 0; i < m; ++i) {
      for (long p = a.rowPtr()[static_cast<std::size_t>(i)];
           p < a.rowPtr()[static_cast<std::size_t>(i) + 1]; ++p) {
        aDense(i, a.colIdx()[static_cast<std::size_t>(p)]) =
            a.values()[static_cast<std::size_t>(p)];
      }
    }
    const DenseMatrix b = makeUniformDense(k, n, 17 * trial + 2, -1.0, 1.0);
    for (double beta : {0.0, 1.0, 0.5}) {
      DenseMatrix c = makeUniformDense(m, n, 17 * trial + 3, -1.0, 1.0);
      DenseMatrix cDense = c;
      spmm(a, b, c, beta);
      gemm_ref(aDense, b, cDense, beta);
      for (long j = 0; j < n; ++j) {
        for (long i = 0; i < m; ++i) {
          ASSERT_NEAR(c(i, j), cDense(i, j),
                      1e-10 * (1.0 + std::fabs(cDense(i, j))));
        }
      }
    }
  }
}

}  // namespace
}  // namespace rgml::la
