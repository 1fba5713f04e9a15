#include "apps/gnnmf.h"

#include <vector>

#include "apgas/runtime.h"
#include "gml/collectives.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::apps {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

namespace {

/// Pairs each sparse V block with the dense W block of the same block-row.
const la::MatrixBlock& wBlockFor(const la::BlockSet& wBlocks,
                                 const la::MatrixBlock& vBlock) {
  const la::MatrixBlock* w = nullptr;
  for (const la::MatrixBlock& candidate : wBlocks) {
    if (candidate.blockRow() == vBlock.blockRow()) {
      w = &candidate;
      break;
    }
  }
  if (w == nullptr || w->rows() != vBlock.rows()) {
    throw apgas::ApgasError("gnnmf: V and W row distributions must match");
  }
  return *w;
}

la::MatrixBlock& wBlockFor(la::BlockSet& wBlocks,
                           const la::MatrixBlock& vBlock) {
  return const_cast<la::MatrixBlock&>(
      wBlockFor(static_cast<const la::BlockSet&>(wBlocks), vBlock));
}

}  // namespace

double gnnmfStep(const gml::DistBlockMatrix& v, gml::DistBlockMatrix& w,
                 gml::DupDenseMatrix& h, double epsilon) {
  Runtime& rt = Runtime::world();
  const PlaceGroup& pg = v.placeGroup();
  const long parts = static_cast<long>(pg.size());
  const long k = h.rows();
  const long n = h.cols();

  // ---- Phase A: per-place partials with the current factors ------------
  std::vector<la::DenseMatrix> wtv(static_cast<std::size_t>(parts),
                                   la::DenseMatrix(k, n));
  std::vector<la::DenseMatrix> wtw(static_cast<std::size_t>(parts),
                                   la::DenseMatrix(k, k));
  std::vector<double> vNormSq(static_cast<std::size_t>(parts), 0.0);
  std::vector<double> vDotWh(static_cast<std::size_t>(parts), 0.0);

  apgas::ateach(pg, [&](Place p) {
    const long idx = pg.indexOf(p);
    la::DenseMatrix& wtvLocal = wtv[static_cast<std::size_t>(idx)];
    la::DenseMatrix& wtwLocal = wtw[static_cast<std::size_t>(idx)];
    const la::DenseMatrix& hLocal = h.local();
    double flopsSparse = 0.0;
    double flopsDense = 0.0;
    double normSq = 0.0;
    double dotWh = 0.0;
    for (const la::MatrixBlock& vBlock : v.localBlockSet()) {
      const la::MatrixBlock& wBlock =
          wBlockFor(w.localBlockSet(), vBlock);
      const la::SparseCSR& vs = vBlock.sparse();
      const la::DenseMatrix& wd = wBlock.dense();
      const auto& rowPtr = vs.rowPtr();
      const auto& colIdx = vs.colIdx();
      const auto& values = vs.values();
      for (long i = 0; i < vs.rows(); ++i) {
        for (long e = rowPtr[static_cast<std::size_t>(i)];
             e < rowPtr[static_cast<std::size_t>(i) + 1]; ++e) {
          const long j = colIdx[static_cast<std::size_t>(e)];
          const double val = values[static_cast<std::size_t>(e)];
          normSq += val * val;
          double wh = 0.0;
          for (long r = 0; r < k; ++r) {
            wtvLocal(r, j) += wd(i, r) * val;  // W^T V
            wh += wd(i, r) * hLocal(r, j);     // (W H)_ij
          }
          dotWh += val * wh;
        }
      }
      flopsSparse += 4.0 * static_cast<double>(vs.nnz()) *
                     static_cast<double>(k);
      // W^T W partial: k x k upper products over the band.
      for (long r = 0; r < k; ++r) {
        for (long s = 0; s < k; ++s) {
          double acc = 0.0;
          for (long i = 0; i < wd.rows(); ++i) acc += wd(i, r) * wd(i, s);
          wtwLocal(r, s) += acc;
        }
      }
      flopsDense += 2.0 * static_cast<double>(wd.rows()) *
                    static_cast<double>(k * k);
    }
    vNormSq[static_cast<std::size_t>(idx)] = normSq;
    vDotWh[static_cast<std::size_t>(idx)] = dotWh;
    rt.chargeSparseFlops(flopsSparse);
    rt.chargeDenseFlops(flopsDense);
  });

  // ---- Phase B: flat reduction at the root ------------------------------
  const Place root = h.placeGroup()(0);
  la::DenseMatrix wtvTotal(k, n);
  la::DenseMatrix wtwTotal(k, k);
  double normSqTotal = 0.0;
  double dotWhTotal = 0.0;
  gml::reduceAt(
      root, pg, static_cast<std::uint64_t>(k * (n + k) + 2) * sizeof(double),
      [&](long i) {
        la::cellAdd(wtv[static_cast<std::size_t>(i)].span(),
                    wtvTotal.span());
        la::cellAdd(wtw[static_cast<std::size_t>(i)].span(),
                    wtwTotal.span());
        normSqTotal += vNormSq[static_cast<std::size_t>(i)];
        dotWhTotal += vDotWh[static_cast<std::size_t>(i)];
        rt.chargeDenseFlops(static_cast<double>(k * (n + k)));
      });

  // ---- Phase C: objective with the old factors, then the H update ------
  double objective = 0.0;
  rt.at(root, [&] {
    la::DenseMatrix& hLocal = h.local();
    // ||W H||^2 = <W^T W, H H^T>.
    double whNormSq = 0.0;
    for (long r = 0; r < k; ++r) {
      for (long s = 0; s < k; ++s) {
        double hht = 0.0;
        for (long j = 0; j < n; ++j) hht += hLocal(r, j) * hLocal(s, j);
        whNormSq += wtwTotal(r, s) * hht;
      }
    }
    objective = normSqTotal - 2.0 * dotWhTotal + whNormSq;
    // H <- H .* (W^T V) ./ (W^T W H + eps).
    la::DenseMatrix denom(k, n);
    la::gemm(wtwTotal, hLocal, denom);
    for (long r = 0; r < k; ++r) {
      for (long j = 0; j < n; ++j) {
        hLocal(r, j) *= wtvTotal(r, j) / (denom(r, j) + epsilon);
      }
    }
    rt.chargeDenseFlops(static_cast<double>(k * k * n) * 3.0 +
                        3.0 * static_cast<double>(k * n));
  });
  h.sync();

  // ---- Phase D: W update with the fresh H ------------------------------
  apgas::ateach(pg, [&](Place) {
    const la::DenseMatrix& hLocal = h.local();
    // H H^T (k x k), identical everywhere.
    la::DenseMatrix hht(k, k);
    for (long r = 0; r < k; ++r) {
      for (long s = 0; s < k; ++s) {
        double acc = 0.0;
        for (long j = 0; j < n; ++j) acc += hLocal(r, j) * hLocal(s, j);
        hht(r, s) = acc;
      }
    }
    double flopsSparse = 0.0;
    double flopsDense = 2.0 * static_cast<double>(k * k * n);
    for (const la::MatrixBlock& vBlock : v.localBlockSet()) {
      la::MatrixBlock& wBlock = wBlockFor(w.localBlockSet(), vBlock);
      const la::SparseCSR& vs = vBlock.sparse();
      la::DenseMatrix& wd = wBlock.dense();
      // Numerator: V H^T (band rows x k).
      la::DenseMatrix vht(vs.rows(), k);
      const auto& rowPtr = vs.rowPtr();
      const auto& colIdx = vs.colIdx();
      const auto& values = vs.values();
      for (long i = 0; i < vs.rows(); ++i) {
        for (long e = rowPtr[static_cast<std::size_t>(i)];
             e < rowPtr[static_cast<std::size_t>(i) + 1]; ++e) {
          const long j = colIdx[static_cast<std::size_t>(e)];
          const double val = values[static_cast<std::size_t>(e)];
          for (long r = 0; r < k; ++r) vht(i, r) += val * hLocal(r, j);
        }
      }
      flopsSparse += 2.0 * static_cast<double>(vs.nnz()) *
                     static_cast<double>(k);
      // Denominator: W (H H^T) (band rows x k), then the update.
      la::DenseMatrix whht(wd.rows(), k);
      la::gemm(wd, hht, whht);
      for (long i = 0; i < wd.rows(); ++i) {
        for (long r = 0; r < k; ++r) {
          wd(i, r) *= vht(i, r) / (whht(i, r) + epsilon);
        }
      }
      flopsDense += 2.0 * static_cast<double>(wd.rows()) *
                        static_cast<double>(k * k) +
                    3.0 * static_cast<double>(wd.rows()) *
                        static_cast<double>(k);
    }
    rt.chargeSparseFlops(flopsSparse);
    rt.chargeDenseFlops(flopsDense);
  });

  return objective;
}

Gnnmf::Gnnmf(const GnnmfConfig& config, const PlaceGroup& pg)
    : config_(config), pg_(pg) {}

void Gnnmf::init() {
  const long places = static_cast<long>(pg_.size());
  const long m = config_.rowsPerPlace * places;
  v_ = gml::DistBlockMatrix::makeSparse(
      m, config_.cols, config_.blocksPerPlace * places, 1, places, 1,
      config_.nnzPerRow, pg_);
  v_.initRandom(config_.seed, 0.1, 1.0);  // non-negative data
  w_ = gml::DistBlockMatrix::makeDense(
      m, config_.rank, config_.blocksPerPlace * places, 1, places, 1, pg_);
  w_.initRandom(config_.seed + 1, 0.1, 1.0);  // strictly positive start
  h_ = gml::DupDenseMatrix::make(config_.rank, config_.cols, pg_);
  h_.initRandom(config_.seed + 2, 0.1, 1.0);
  objective_ = 0.0;
  iteration_ = 0;
}

bool Gnnmf::isFinished() const { return iteration_ >= config_.iterations; }

void Gnnmf::step() {
  objective_ = gnnmfStep(v_, w_, h_, config_.epsilon);
  ++iteration_;
}

void Gnnmf::run() {
  init();
  while (!isFinished()) step();
}

}  // namespace rgml::apps
