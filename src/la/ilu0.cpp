#include "la/ilu0.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "apgas/exceptions.h"

namespace rgml::la {

namespace {
/// Value-array index of column j within row i of `m`, or -1 when (i, j)
/// is not in the pattern. Column indices are strictly increasing per row,
/// so a binary search suffices.
long findInRow(const SparseCSR& m, long i, long j) {
  const auto& rowPtr = m.rowPtr();
  const auto& colIdx = m.colIdx();
  const auto first = colIdx.begin() + rowPtr[i];
  const auto last = colIdx.begin() + rowPtr[i + 1];
  const auto it = std::lower_bound(first, last, j);
  if (it == last || *it != j) return -1;
  return static_cast<long>(it - colIdx.begin());
}
}  // namespace

Ilu0 ilu0Factor(const SparseCSR& a) {
  if (a.rows() != a.cols()) {
    throw apgas::ApgasError("ilu0Factor: need a square matrix");
  }
  const long n = a.rows();
  Ilu0 f;
  f.diagPos.assign(static_cast<std::size_t>(n), -1);

  // The factors keep a's pattern: eliminate on one copy of its values,
  // reading the pattern in place, and copy the index arrays once at the
  // end.
  const std::vector<long>& rowPtr = a.rowPtr();
  const std::vector<long>& colIdx = a.colIdx();
  std::vector<double> values = a.values();

  for (long i = 0; i < n; ++i) {
    const long d = findInRow(a, i, i);
    if (d < 0) {
      throw apgas::ApgasError("ilu0Factor: row " + std::to_string(i) +
                              " has no diagonal entry in the pattern");
    }
    f.diagPos[static_cast<std::size_t>(i)] = d;

    // IKJ update restricted to the pattern: eliminate the strict-lower
    // entries of row i using the already-factored rows k < i.
    for (long idx = rowPtr[i]; idx < rowPtr[i + 1]; ++idx) {
      const long k = colIdx[static_cast<std::size_t>(idx)];
      if (k >= i) break;
      const long dk = f.diagPos[static_cast<std::size_t>(k)];
      const double pivot = values[static_cast<std::size_t>(dk)];
      if (!(std::abs(pivot) >= std::numeric_limits<double>::min())) {
        throw apgas::ApgasError("ilu0Factor: zero pivot at row " +
                                std::to_string(k));
      }
      const double lik = values[static_cast<std::size_t>(idx)] / pivot;
      values[static_cast<std::size_t>(idx)] = lik;
      // Subtract lik * (row k's entries right of column k), where the
      // pattern of row i allows.
      const long rkEnd = rowPtr[k + 1];
      for (long kidx = dk + 1; kidx < rkEnd; ++kidx) {
        const long j = colIdx[static_cast<std::size_t>(kidx)];
        const long tij = findInRow(a, i, j);
        if (tij >= 0) {
          values[static_cast<std::size_t>(tij)] -=
              lik * values[static_cast<std::size_t>(kidx)];
        }
      }
    }

    const double uii = values[static_cast<std::size_t>(d)];
    if (!(std::abs(uii) >= std::numeric_limits<double>::min()) ||
        !std::isfinite(uii)) {
      throw apgas::ApgasError("ilu0Factor: pivot degenerated at row " +
                              std::to_string(i));
    }
  }

  f.lu = SparseCSR(n, n, rowPtr, colIdx, std::move(values));
  return f;
}

void ilu0Solve(const Ilu0& f, const Vector& r, Vector& z) {
  const long n = f.lu.rows();
  if (r.size() != n || z.size() != n) {
    throw apgas::ApgasError("ilu0Solve: dimension mismatch");
  }
  const auto& rowPtr = f.lu.rowPtr();
  const auto& colIdx = f.lu.colIdx();
  const auto& values = f.lu.values();

  // Forward sweep: L y = r (L unit lower on the strict-lower pattern).
  for (long i = 0; i < n; ++i) {
    double acc = r[i];
    for (long idx = rowPtr[i]; idx < rowPtr[i + 1]; ++idx) {
      const long j = colIdx[static_cast<std::size_t>(idx)];
      if (j >= i) break;
      acc -= values[static_cast<std::size_t>(idx)] * z[j];
    }
    z[i] = acc;
  }
  // Backward sweep: U z = y.
  for (long i = n - 1; i >= 0; --i) {
    const long d = f.diagPos[static_cast<std::size_t>(i)];
    double acc = z[i];
    for (long idx = d + 1; idx < rowPtr[i + 1]; ++idx) {
      acc -= values[static_cast<std::size_t>(idx)] *
             z[colIdx[static_cast<std::size_t>(idx)]];
    }
    z[i] = acc / values[static_cast<std::size_t>(d)];
  }
}

}  // namespace rgml::la
