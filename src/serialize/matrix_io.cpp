#include "serialize/matrix_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "serialize/binary_io.h"

namespace rgml::serialize {

void writeMatrixMarket(std::ostream& out, const la::SparseCSR& value) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by resilient-gml\n";
  out << value.rows() << " " << value.cols() << " " << value.nnz() << "\n";
  out.precision(17);
  const auto& rowPtr = value.rowPtr();
  const auto& colIdx = value.colIdx();
  const auto& values = value.values();
  for (long i = 0; i < value.rows(); ++i) {
    for (long k = rowPtr[static_cast<std::size_t>(i)];
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      out << (i + 1) << " " << (colIdx[static_cast<std::size_t>(k)] + 1)
          << " " << values[static_cast<std::size_t>(k)] << "\n";
    }
  }
  if (!out) throw SerializeError("MatrixMarket write failed");
}

la::SparseCSR readMatrixMarket(std::istream& in) {
  std::string line;
  // Header + comments.
  if (!std::getline(in, line) ||
      line.rfind("%%MatrixMarket", 0) != 0) {
    throw SerializeError("missing MatrixMarket header");
  }
  if (line.find("coordinate") == std::string::npos ||
      line.find("real") == std::string::npos) {
    throw SerializeError("unsupported MatrixMarket variant: " + line);
  }
  do {
    if (!std::getline(in, line)) {
      throw SerializeError("missing size line");
    }
  } while (!line.empty() && line[0] == '%');

  long m = 0, n = 0, nnz = 0;
  {
    std::istringstream sizes(line);
    if (!(sizes >> m >> n >> nnz) || m < 0 || n < 0 || nnz < 0) {
      throw SerializeError("malformed size line: " + line);
    }
  }

  std::vector<std::tuple<long, long, double>> entries;
  entries.reserve(static_cast<std::size_t>(nnz));
  for (long e = 0; e < nnz; ++e) {
    long i = 0, j = 0;
    double v = 0.0;
    if (!(in >> i >> j >> v)) throw SerializeError("truncated entries");
    if (i < 1 || i > m || j < 1 || j > n) {
      throw SerializeError("entry index out of range");
    }
    entries.emplace_back(i - 1, j - 1, v);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });

  std::vector<long> rowPtr(static_cast<std::size_t>(m) + 1, 0);
  std::vector<long> colIdx;
  std::vector<double> values;
  colIdx.reserve(entries.size());
  values.reserve(entries.size());
  long prevRow = -1, prevCol = -1;
  for (const auto& [i, j, v] : entries) {
    if (i == prevRow && j == prevCol) {
      throw SerializeError("duplicate entry in MatrixMarket input");
    }
    prevRow = i;
    prevCol = j;
    ++rowPtr[static_cast<std::size_t>(i) + 1];
    colIdx.push_back(j);
    values.push_back(v);
  }
  for (long i = 0; i < m; ++i) {
    rowPtr[static_cast<std::size_t>(i) + 1] +=
        rowPtr[static_cast<std::size_t>(i)];
  }
  return la::SparseCSR(m, n, std::move(rowPtr), std::move(colIdx),
                       std::move(values));
}

void writeCsv(std::ostream& out, const la::DenseMatrix& value) {
  out.precision(17);
  for (long i = 0; i < value.rows(); ++i) {
    for (long j = 0; j < value.cols(); ++j) {
      if (j != 0) out << ",";
      out << value(i, j);
    }
    out << "\n";
  }
  if (!out) throw SerializeError("CSV write failed");
}

la::DenseMatrix readCsv(std::istream& in) {
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<double> row;
    std::istringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, ',')) {
      // strtod, not std::stod: stod throws std::out_of_range for the
      // subnormal values writeCsv round-trips. Only overflow is an error.
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(cell.c_str(), &end);
      std::size_t used = static_cast<std::size_t>(end - cell.c_str());
      if (used == 0) throw SerializeError("malformed CSV cell: " + cell);
      if (errno == ERANGE && std::isinf(v)) {
        throw SerializeError("CSV cell out of range: " + cell);
      }
      // Allow trailing whitespace only.
      for (; used < cell.size(); ++used) {
        if (cell[used] != ' ' && cell[used] != '\t' && cell[used] != '\r') {
          throw SerializeError("malformed CSV cell: " + cell);
        }
      }
      row.push_back(v);
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      throw SerializeError("ragged CSV rows");
    }
    rows.push_back(std::move(row));
  }
  const long m = static_cast<long>(rows.size());
  const long n = m == 0 ? 0 : static_cast<long>(rows.front().size());
  la::DenseMatrix out(m, n);
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      out(i, j) = rows[static_cast<std::size_t>(i)][
          static_cast<std::size_t>(j)];
    }
  }
  return out;
}

}  // namespace rgml::serialize
