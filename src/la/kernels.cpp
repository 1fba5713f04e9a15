#include "la/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

namespace rgml::la {

namespace {

// Two doubles in one 16-byte register (GCC/Clang vector extension). Each
// lane's + and * is the scalar IEEE-754 operation, so a Pair op gives the
// same bits as the two scalar ops it replaces.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair loadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void storePair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// y += a*xj over m rows, unless xj is zero: gemv_ref's per-column update.
void addColumn(const double* a, double xj, double* y, long m) {
  if (xj == 0.0) return;
  for (long i = 0; i < m; ++i) y[i] += a[i] * xj;
}

/// y(:) += A(:, j..j+3) x(j..j+3) with every x entry non-zero. Each y[i]
/// takes the four products in ascending j, as four separate adds, so the
/// bits match four addColumn passes; y is loaded and stored once per row
/// pair instead of once per column.
void addFourColumns(const DenseMatrix& A, long j, std::span<const double> x,
                    double* y) {
  const long m = A.rows();
  const double* a0 = A.col(j).data();
  const double* a1 = a0 + m;
  const double* a2 = a1 + m;
  const double* a3 = a2 + m;
  const auto ju = static_cast<std::size_t>(j);
  const double x0 = x[ju], x1 = x[ju + 1], x2 = x[ju + 2], x3 = x[ju + 3];
  const Pair v0 = {x0, x0}, v1 = {x1, x1}, v2 = {x2, x2}, v3 = {x3, x3};
  long i = 0;
  for (; i + 1 < m; i += 2) {
    Pair c = loadPair(y + i);
    c += loadPair(a0 + i) * v0;
    c += loadPair(a1 + i) * v1;
    c += loadPair(a2 + i) * v2;
    c += loadPair(a3 + i) * v3;
    storePair(y + i, c);
  }
  if (i < m) {
    double c = y[i];
    c += a0[i] * x0;
    c += a1[i] * x1;
    c += a2[i] * x2;
    c += a3[i] * x3;
    y[i] = c;
  }
}

/// y(j+K) = prev + A(:, j+K) . x for each K, where prev is beta*y(j+K) or 0.
/// Every column keeps its own accumulator, starting at 0.0 and adding in
/// ascending i as dot() does; the columns share each x[i] load, so there
/// are sizeof...(K) independent add chains instead of one.
template <std::size_t... K>
void dotColumns(const DenseMatrix& A, long j, std::span<const double> x,
                std::span<double> y, double beta, std::index_sequence<K...>) {
  const long m = A.rows();
  const double* a = A.col(j).data();
  double acc[sizeof...(K)] = {};
  for (long i = 0; i < m; ++i) {
    const double xi = x[static_cast<std::size_t>(i)];
    ((acc[K] += a[static_cast<long>(K) * m + i] * xi), ...);
  }
  for (std::size_t k = 0; k < sizeof...(K); ++k) {
    double& yj = y[static_cast<std::size_t>(j) + k];
    const double prev = beta == 0.0 ? 0.0 : beta * yj;
    yj = prev + acc[k];
  }
}

}  // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void axpy(double a, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void scale(std::span<double> x, double a) {
  for (double& v : x) v *= a;
}

void cellAdd(std::span<const double> x, std::span<double> y) {
  axpy(1.0, x, y);
}

void copy(std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  std::memcpy(y.data(), x.data(), x.size() * sizeof(double));
}

void addScalar(std::span<double> y, double c) {
  for (double& v : y) v += c;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

void gemv(const DenseMatrix& A, std::span<const double> x,
          std::span<double> y, double beta) {
  assert(static_cast<long>(x.size()) == A.cols());
  assert(static_cast<long>(y.size()) == A.rows());
  if (beta == 0.0) {
    std::memset(y.data(), 0, y.size() * sizeof(double));
  } else if (beta != 1.0) {
    scale(y, beta);
  }
  // Columns in groups of four. gemv_ref skips a column whose x entry is
  // zero, and skipping differs from adding a*0 when a is NaN or ±Inf or
  // y[i] is -0.0, so a group holding a zero runs column by column.
  const long m = A.rows();
  const long n = A.cols();
  long j = 0;
  for (; j + 3 < n; j += 4) {
    const auto ju = static_cast<std::size_t>(j);
    if (x[ju] != 0.0 && x[ju + 1] != 0.0 && x[ju + 2] != 0.0 &&
        x[ju + 3] != 0.0) {
      addFourColumns(A, j, x, y.data());
    } else {
      for (long k = j; k < j + 4; ++k) {
        addColumn(A.col(k).data(), x[static_cast<std::size_t>(k)], y.data(),
                  m);
      }
    }
  }
  for (; j < n; ++j) {
    addColumn(A.col(j).data(), x[static_cast<std::size_t>(j)], y.data(), m);
  }
}

void gemv_ref(const DenseMatrix& A, std::span<const double> x,
              std::span<double> y, double beta) {
  assert(static_cast<long>(x.size()) == A.cols());
  assert(static_cast<long>(y.size()) == A.rows());
  if (beta == 0.0) {
    std::memset(y.data(), 0, y.size() * sizeof(double));
  } else if (beta != 1.0) {
    scale(y, beta);
  }
  // Column-major traversal: one pass over each column, unit stride.
  for (long j = 0; j < A.cols(); ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    const auto col = A.col(j);
    for (long i = 0; i < A.rows(); ++i) {
      y[static_cast<std::size_t>(i)] += col[static_cast<std::size_t>(i)] * xj;
    }
  }
}

void gemvTrans(const DenseMatrix& A, std::span<const double> x,
               std::span<double> y, double beta) {
  assert(static_cast<long>(x.size()) == A.rows());
  assert(static_cast<long>(y.size()) == A.cols());
  // Eight columns at a time, then at most one group each of 4, 2 and 1.
  const long n = A.cols();
  long j = 0;
  for (; j + 7 < n; j += 8) {
    dotColumns(A, j, x, y, beta, std::make_index_sequence<8>{});
  }
  if (j + 3 < n) {
    dotColumns(A, j, x, y, beta, std::make_index_sequence<4>{});
    j += 4;
  }
  if (j + 1 < n) {
    dotColumns(A, j, x, y, beta, std::make_index_sequence<2>{});
    j += 2;
  }
  if (j < n) dotColumns(A, j, x, y, beta, std::make_index_sequence<1>{});
}

void gemvTrans_ref(const DenseMatrix& A, std::span<const double> x,
                   std::span<double> y, double beta) {
  assert(static_cast<long>(x.size()) == A.rows());
  assert(static_cast<long>(y.size()) == A.cols());
  for (long j = 0; j < A.cols(); ++j) {
    const double prev =
        beta == 0.0 ? 0.0 : beta * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(j)] = prev + dot(A.col(j), x);
  }
}

void gemm(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C,
          double beta) {
  assert(A.cols() == B.rows());
  assert(C.rows() == A.rows() && C.cols() == B.cols());
  if (beta == 0.0) {
    C.setAll(0.0);
  } else if (beta != 1.0) {
    scale(C.span(), beta);
  }
  // Cache-blocked jki: a kBlockI-row tile of C(:,j) stays resident while
  // kBlockK columns of A stream through it, and adjacent k-columns are
  // paired so each pass touches the C tile once for two rank-1 updates.
  // Per element, the k-accumulations still happen in ascending k (blocks
  // ascend, k ascends within a block, and each row i lives in exactly one
  // tile), so results are bit-identical to gemm_ref.
  constexpr long kBlockI = 512;  // 4 KB of a C column per tile
  constexpr long kBlockK = 32;
  const long m = A.rows();
  const long n = B.cols();
  const long depth = A.cols();
  for (long j = 0; j < n; ++j) {
    double* cj = C.col(j).data();
    for (long kb = 0; kb < depth; kb += kBlockK) {
      const long kEnd = std::min(kb + kBlockK, depth);
      for (long ib = 0; ib < m; ib += kBlockI) {
        const long iEnd = std::min(ib + kBlockI, m);
        long k = kb;
        for (; k + 1 < kEnd; k += 2) {
          const double b0 = B(k, j);
          const double b1 = B(k + 1, j);
          if (b0 == 0.0 && b1 == 0.0) continue;
          const double* a0 = A.col(k).data();
          const double* a1 = A.col(k + 1).data();
          if (b0 != 0.0 && b1 != 0.0) {
            for (long i = ib; i < iEnd; ++i) {
              double c = cj[i];
              c += a0[i] * b0;
              c += a1[i] * b1;
              cj[i] = c;
            }
          } else if (b0 != 0.0) {
            for (long i = ib; i < iEnd; ++i) cj[i] += a0[i] * b0;
          } else {
            for (long i = ib; i < iEnd; ++i) cj[i] += a1[i] * b1;
          }
        }
        if (k < kEnd) {
          const double bkj = B(k, j);
          if (bkj != 0.0) {
            const double* ak = A.col(k).data();
            for (long i = ib; i < iEnd; ++i) cj[i] += ak[i] * bkj;
          }
        }
      }
    }
  }
}

void gemm_ref(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C,
              double beta) {
  assert(A.cols() == B.rows());
  assert(C.rows() == A.rows() && C.cols() == B.cols());
  if (beta == 0.0) {
    C.setAll(0.0);
  } else if (beta != 1.0) {
    scale(C.span(), beta);
  }
  // jki ordering: C(:,j) += A(:,k) * B(k,j); unit-stride inner loop.
  for (long j = 0; j < B.cols(); ++j) {
    auto cj = C.col(j);
    for (long k = 0; k < A.cols(); ++k) {
      const double bkj = B(k, j);
      if (bkj == 0.0) continue;
      const auto ak = A.col(k);
      for (long i = 0; i < A.rows(); ++i) {
        cj[static_cast<std::size_t>(i)] +=
            ak[static_cast<std::size_t>(i)] * bkj;
      }
    }
  }
}

void spmm(const SparseCSR& A, const DenseMatrix& B, DenseMatrix& C,
          double beta) {
  assert(A.cols() == B.rows());
  assert(C.rows() == A.rows() && C.cols() == B.cols());
  if (beta == 0.0) {
    C.setAll(0.0);
  } else if (beta != 1.0) {
    scale(C.span(), beta);
  }
  const auto& rowPtr = A.rowPtr();
  const auto& colIdx = A.colIdx();
  const auto& values = A.values();
  // Walk C's row i and B's row col by pointer, stepping by the leading
  // dimension, instead of recomputing j*ld + i per element as spmm_ref
  // does. Accumulation order is unchanged, so results are bit-identical.
  const long n = B.cols();
  const long ldb = B.rows();
  const long ldc = C.rows();
  const double* bdata = B.span().data();
  double* cdata = C.span().data();
  for (long i = 0; i < A.rows(); ++i) {
    for (long k = rowPtr[static_cast<std::size_t>(i)];
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const long col = colIdx[static_cast<std::size_t>(k)];
      const double v = values[static_cast<std::size_t>(k)];
      double* cp = cdata + i;
      const double* bp = bdata + col;
      for (long j = 0; j < n; ++j, cp += ldc, bp += ldb) {
        *cp += v * *bp;
      }
    }
  }
}

void spmm_ref(const SparseCSR& A, const DenseMatrix& B, DenseMatrix& C,
              double beta) {
  assert(A.cols() == B.rows());
  assert(C.rows() == A.rows() && C.cols() == B.cols());
  if (beta == 0.0) {
    C.setAll(0.0);
  } else if (beta != 1.0) {
    scale(C.span(), beta);
  }
  const auto& rowPtr = A.rowPtr();
  const auto& colIdx = A.colIdx();
  const auto& values = A.values();
  for (long i = 0; i < A.rows(); ++i) {
    for (long k = rowPtr[static_cast<std::size_t>(i)];
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const long col = colIdx[static_cast<std::size_t>(k)];
      const double v = values[static_cast<std::size_t>(k)];
      for (long j = 0; j < B.cols(); ++j) {
        C(i, j) += v * B(col, j);
      }
    }
  }
}

void spmv(const SparseCSR& A, std::span<const double> x, std::span<double> y,
          double beta) {
  assert(static_cast<long>(x.size()) == A.cols());
  assert(static_cast<long>(y.size()) == A.rows());
  const auto& rowPtr = A.rowPtr();
  const auto& colIdx = A.colIdx();
  const auto& values = A.values();
  for (long i = 0; i < A.rows(); ++i) {
    double acc = 0.0;
    for (long k = rowPtr[static_cast<std::size_t>(i)];
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      acc += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(colIdx[static_cast<std::size_t>(k)])];
    }
    const double prev =
        beta == 0.0 ? 0.0 : beta * y[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(i)] = prev + acc;
  }
}

void spmvTrans(const SparseCSR& A, std::span<const double> x,
               std::span<double> y, double beta) {
  assert(static_cast<long>(x.size()) == A.rows());
  assert(static_cast<long>(y.size()) == A.cols());
  if (beta == 0.0) {
    std::memset(y.data(), 0, y.size() * sizeof(double));
  } else if (beta != 1.0) {
    scale(y, beta);
  }
  const auto& rowPtr = A.rowPtr();
  const auto& colIdx = A.colIdx();
  const auto& values = A.values();
  for (long i = 0; i < A.rows(); ++i) {
    const double xi = x[static_cast<std::size_t>(i)];
    if (xi == 0.0) continue;
    for (long k = rowPtr[static_cast<std::size_t>(i)];
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      y[static_cast<std::size_t>(colIdx[static_cast<std::size_t>(k)])] +=
          values[static_cast<std::size_t>(k)] * xi;
    }
  }
}

void spmv(const SparseCSC& A, std::span<const double> x, std::span<double> y,
          double beta) {
  assert(static_cast<long>(x.size()) == A.cols());
  assert(static_cast<long>(y.size()) == A.rows());
  if (beta == 0.0) {
    std::memset(y.data(), 0, y.size() * sizeof(double));
  } else if (beta != 1.0) {
    scale(y, beta);
  }
  const auto& colPtr = A.colPtr();
  const auto& rowIdx = A.rowIdx();
  const auto& values = A.values();
  for (long j = 0; j < A.cols(); ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (long k = colPtr[static_cast<std::size_t>(j)];
         k < colPtr[static_cast<std::size_t>(j) + 1]; ++k) {
      y[static_cast<std::size_t>(rowIdx[static_cast<std::size_t>(k)])] +=
          values[static_cast<std::size_t>(k)] * xj;
    }
  }
}

void spmvTrans(const SparseCSC& A, std::span<const double> x,
               std::span<double> y, double beta) {
  assert(static_cast<long>(x.size()) == A.rows());
  assert(static_cast<long>(y.size()) == A.cols());
  const auto& colPtr = A.colPtr();
  const auto& rowIdx = A.rowIdx();
  const auto& values = A.values();
  for (long j = 0; j < A.cols(); ++j) {
    double acc = 0.0;
    for (long k = colPtr[static_cast<std::size_t>(j)];
         k < colPtr[static_cast<std::size_t>(j) + 1]; ++k) {
      acc += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(rowIdx[static_cast<std::size_t>(k)])];
    }
    const double prev =
        beta == 0.0 ? 0.0 : beta * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(j)] = prev + acc;
  }
}

}  // namespace rgml::la
