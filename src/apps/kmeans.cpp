#include "apps/kmeans.h"

#include <limits>
#include <vector>

#include "apgas/runtime.h"
#include "gml/collectives.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace rgml::apps {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

double kmeansStep(const gml::DistBlockMatrix& x, gml::DupDenseMatrix& c) {
  Runtime& rt = Runtime::world();
  const PlaceGroup& pg = x.placeGroup();
  const long k = c.rows();
  const long d = c.cols();
  const long parts = static_cast<long>(pg.size());

  // Phase 1: per-place partial sums, counts and inertia.
  std::vector<la::DenseMatrix> sums(
      static_cast<std::size_t>(parts), la::DenseMatrix(k, d));
  std::vector<std::vector<long>> counts(
      static_cast<std::size_t>(parts),
      std::vector<long>(static_cast<std::size_t>(k), 0));
  std::vector<double> inertias(static_cast<std::size_t>(parts), 0.0);

  apgas::ateach(pg, [&](Place p) {
    const long idx = pg.indexOf(p);
    if (c.placeGroup().indexOf(p) < 0) {
      throw apgas::ApgasError("kmeansStep: centroids not duplicated here");
    }
    la::DenseMatrix& sum = sums[static_cast<std::size_t>(idx)];
    auto& count = counts[static_cast<std::size_t>(idx)];
    const la::DenseMatrix& centroids = c.local();
    double localInertia = 0.0;
    double flops = 0.0;
    for (const la::MatrixBlock& block : x.localBlockSet()) {
      const la::DenseMatrix& pts = block.dense();
      for (long i = 0; i < pts.rows(); ++i) {
        long best = 0;
        double bestDist = std::numeric_limits<double>::infinity();
        for (long cIdx = 0; cIdx < k; ++cIdx) {
          double dist = 0.0;
          for (long j = 0; j < d; ++j) {
            const double diff = pts(i, j) - centroids(cIdx, j);
            dist += diff * diff;
          }
          if (dist < bestDist) {
            bestDist = dist;
            best = cIdx;
          }
        }
        for (long j = 0; j < d; ++j) sum(best, j) += pts(i, j);
        ++count[static_cast<std::size_t>(best)];
        localInertia += bestDist;
        flops += 3.0 * static_cast<double>(k * d) +
                 static_cast<double>(d);
      }
    }
    inertias[static_cast<std::size_t>(idx)] = localInertia;
    rt.chargeDenseFlops(flops);
  });

  // Phase 2: flat reduction at the centroid root.
  const Place root = c.placeGroup()(0);
  la::DenseMatrix total(k, d);
  std::vector<long> totalCount(static_cast<std::size_t>(k), 0);
  double inertia = 0.0;
  gml::reduceAt(
      root, pg, static_cast<std::uint64_t>(k * d + k + 1) * sizeof(double),
      [&](long i) {
        la::cellAdd(sums[static_cast<std::size_t>(i)].span(), total.span());
        for (long cIdx = 0; cIdx < k; ++cIdx) {
          totalCount[static_cast<std::size_t>(cIdx)] +=
              counts[static_cast<std::size_t>(i)][
                  static_cast<std::size_t>(cIdx)];
        }
        inertia += inertias[static_cast<std::size_t>(i)];
        rt.chargeDenseFlops(static_cast<double>(k * d + k));
      });

  // Phase 3: new centroids at the root (empty clusters keep their row),
  // then broadcast.
  rt.at(root, [&] {
    la::DenseMatrix& centroids = c.local();
    for (long cIdx = 0; cIdx < k; ++cIdx) {
      const long n = totalCount[static_cast<std::size_t>(cIdx)];
      if (n == 0) continue;
      for (long j = 0; j < d; ++j) {
        centroids(cIdx, j) = total(cIdx, j) / static_cast<double>(n);
      }
    }
    rt.chargeDenseFlops(static_cast<double>(k * d));
  });
  c.sync();
  return inertia;
}

KMeans::KMeans(const KMeansConfig& config, const PlaceGroup& pg)
    : config_(config), pg_(pg) {}

void KMeans::init() {
  const long places = static_cast<long>(pg_.size());
  const long m = config_.pointsPerPlace * places;
  x_ = gml::DistBlockMatrix::makeDense(
      m, config_.dims, config_.blocksPerPlace * places, 1, places, 1, pg_);
  x_.initRandom(config_.seed);
  c_ = gml::DupDenseMatrix::make(config_.clusters, config_.dims, pg_);

  // Deterministic seeding: centroid r = point r (hashed fill, so the seed
  // points are known without touching remote data).
  Runtime& rt = Runtime::world();
  rt.at(pg_(0), [&] {
    la::DenseMatrix& centroids = c_.local();
    for (long r = 0; r < config_.clusters; ++r) {
      for (long j = 0; j < config_.dims; ++j) {
        centroids(r, j) = la::hashedUniform(
            config_.seed,
            static_cast<std::uint64_t>(r) *
                    static_cast<std::uint64_t>(config_.dims) +
                static_cast<std::uint64_t>(j));
      }
    }
  });
  c_.sync();
  inertia_ = 0.0;
  iteration_ = 0;
}

bool KMeans::isFinished() const { return iteration_ >= config_.iterations; }

void KMeans::step() {
  inertia_ = kmeansStep(x_, c_);
  ++iteration_;
}

void KMeans::run() {
  init();
  while (!isFinished()) step();
}

}  // namespace rgml::apps
