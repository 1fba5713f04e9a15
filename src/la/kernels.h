// Local BLAS-like kernels (the OpenBLAS substitute; see DESIGN.md §2).
//
// Kernels are pure computational routines: they do not touch the APGAS
// runtime or its clocks. The distributed GML layer charges analytic flop
// counts to the simulated clocks around these calls.
#pragma once

#include <span>

#include "la/dense_matrix.h"
#include "la/sparse_csc.h"
#include "la/sparse_csr.h"
#include "la/vector.h"

namespace rgml::la {

// ---- vector-vector -------------------------------------------------------

/// dot(x, y).
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// y += a*x.
void axpy(double a, std::span<const double> x, std::span<double> y);

/// x *= a.
void scale(std::span<double> x, double a);

/// y += x (GML's cellAdd).
void cellAdd(std::span<const double> x, std::span<double> y);

/// y = x.
void copy(std::span<const double> x, std::span<double> y);

/// y[i] += c for all i (GML's cellAdd(scalar)).
void addScalar(std::span<double> y, double c);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> x);

/// Sum of elements.
[[nodiscard]] double sum(std::span<const double> x);

// ---- dense matrix-vector ---------------------------------------------------

/// y = A*x (+beta*y): y_i = sum_j A(i,j) x_j. Requires |x| = A.cols,
/// |y| = A.rows. Register-blocked over groups of four columns (one load
/// and store of y per row pair); each y_i still takes its column products
/// in ascending j and skips columns whose x_j is zero, so results are
/// bit-identical to gemv_ref.
void gemv(const DenseMatrix& A, std::span<const double> x,
          std::span<double> y, double beta = 0.0);

/// Reference y = A*x (+beta*y): one unit-stride pass per column. The
/// golden-equivalence oracle for gemv and the baseline in micro_la.
void gemv_ref(const DenseMatrix& A, std::span<const double> x,
              std::span<double> y, double beta = 0.0);

/// y = A^T*x (+beta*y). Requires |x| = A.rows, |y| = A.cols. Eight
/// column dot products share each x_i load; each keeps its own
/// ascending-i accumulator, so results are bit-identical to gemvTrans_ref.
void gemvTrans(const DenseMatrix& A, std::span<const double> x,
               std::span<double> y, double beta = 0.0);

/// Reference y = A^T*x (+beta*y): one dot() per column. The
/// golden-equivalence oracle for gemvTrans and the baseline in micro_la.
void gemvTrans_ref(const DenseMatrix& A, std::span<const double> x,
                   std::span<double> y, double beta = 0.0);

// ---- dense matrix-matrix ----------------------------------------------------

/// C = A*B (+beta*C). Cache-blocked (i/k tiles, k-pair unrolled); performs
/// the per-element k-accumulations in the same ascending order as gemm_ref,
/// so results are bit-identical to the reference kernel.
void gemm(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C,
          double beta = 0.0);

/// Reference C = A*B (+beta*C): the naive jki triple loop. Kept as the
/// golden-equivalence oracle for the blocked gemm and as the baseline in
/// micro_la.
void gemm_ref(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C,
              double beta = 0.0);

// ---- sparse matrix-matrix ----------------------------------------------------

/// C = A*B (+beta*C) with sparse A (CSR) and dense B, C. The inner loop
/// walks C's row i and B's row col by raw pointer + leading-dimension
/// stride instead of recomputing the (i, j) index per element; accumulation
/// order matches spmm_ref, so results are bit-identical.
void spmm(const SparseCSR& A, const DenseMatrix& B, DenseMatrix& C,
          double beta = 0.0);

/// Reference spmm: naive per-element C(i, j) indexing. The golden oracle
/// for the pointer-stepped spmm and the baseline in micro_la.
void spmm_ref(const SparseCSR& A, const DenseMatrix& B, DenseMatrix& C,
              double beta = 0.0);

// ---- sparse matrix-vector ---------------------------------------------------

/// y = A*x (+beta*y) for CSR.
void spmv(const SparseCSR& A, std::span<const double> x, std::span<double> y,
          double beta = 0.0);

/// y = A^T*x (+beta*y) for CSR.
void spmvTrans(const SparseCSR& A, std::span<const double> x,
               std::span<double> y, double beta = 0.0);

/// y = A*x (+beta*y) for CSC.
void spmv(const SparseCSC& A, std::span<const double> x, std::span<double> y,
          double beta = 0.0);

/// y = A^T*x (+beta*y) for CSC.
void spmvTrans(const SparseCSC& A, std::span<const double> x,
               std::span<double> y, double beta = 0.0);

}  // namespace rgml::la
