#include "harness/golden.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "apgas/runtime.h"
#include "apps/cg_resilient.h"
#include "apps/gmres_resilient.h"
#include "apps/gnnmf_resilient.h"
#include "apps/kmeans_resilient.h"
#include "apps/linreg_resilient.h"
#include "apps/logreg_resilient.h"
#include "apps/pagerank_resilient.h"
#include "gml/dist_block_matrix.h"

namespace rgml::harness {

using apgas::PlaceGroup;
using apgas::Runtime;

std::uint64_t ResultDigest::hash() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (double d : dense) mix(std::bit_cast<std::uint64_t>(d));
  mix(static_cast<std::uint64_t>(sparseNnz));
  mix(std::bit_cast<std::uint64_t>(sparseValueSum));
  mix(static_cast<std::uint64_t>(iterations));
  return h;
}

std::string compareDigests(const ResultDigest& golden,
                           const ResultDigest& got, double tol) {
  std::ostringstream os;
  if (golden.iterations != got.iterations) {
    os << "iterations: golden " << golden.iterations << " vs " <<
        got.iterations;
    return os.str();
  }
  if (golden.dense.size() != got.dense.size()) {
    os << "dense size: golden " << golden.dense.size() << " vs "
       << got.dense.size();
    return os.str();
  }
  for (std::size_t i = 0; i < golden.dense.size(); ++i) {
    const double a = golden.dense[i];
    const double b = got.dense[i];
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    if (!(std::abs(a - b) <= tol * scale)) {
      os << "dense[" << i << "]: golden " << a << " vs " << b
         << " (|diff| " << std::abs(a - b) << ", tol " << tol * scale
         << ")";
      return os.str();
    }
  }
  if (golden.sparseNnz != got.sparseNnz) {
    os << "sparse nnz: golden " << golden.sparseNnz << " vs "
       << got.sparseNnz;
    return os.str();
  }
  if (golden.sparseNnz > 0) {
    const double scale =
        std::max({1.0, std::abs(golden.sparseValueSum),
                  std::abs(got.sparseValueSum)});
    if (!(std::abs(golden.sparseValueSum - got.sparseValueSum) <=
          tol * scale)) {
      os << "sparse value sum: golden " << golden.sparseValueSum << " vs "
         << got.sparseValueSum;
      return os.str();
    }
  }
  return {};
}

namespace {

/// Structure + values summary of a (sparse) DistBlockMatrix: total nnz and
/// the sum of all stored values, accumulated place by place in group
/// order. Pure metadata walk — no cost accounting, no data movement.
void sparseSummary(const gml::DistBlockMatrix& m, ResultDigest& out) {
  long nnz = 0;
  double sum = 0.0;
  for (apgas::PlaceId p : m.placeGroup()) {
    const auto set = m.blockSetAt(p);  // uncharged metadata walk
    if (!set) continue;
    for (const la::MatrixBlock& block : *set) {
      if (!block.isSparse()) continue;
      nnz += block.sparse().nnz();
      for (double v : block.sparse().values()) sum += v;
    }
  }
  out.sparseNnz = nnz;
  out.sparseValueSum = sum;
}

void appendVector(const la::Vector& v, std::vector<double>& out) {
  out.insert(out.end(), v.span().begin(), v.span().end());
}

void appendMatrix(const la::DenseMatrix& m, std::vector<double>& out) {
  out.insert(out.end(), m.span().begin(), m.span().end());
}

// ---- the five adapters ---------------------------------------------------
// Harness-scale problem shapes: big enough that every place owns real
// state and blocks outnumber places (so shrink deals blocks unevenly),
// small enough that the full sweep stays in tier-1 time.

class LinRegChaos final : public ChaosApp {
 public:
  LinRegChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::LinRegConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::LinRegConfig c;
    c.features = 6;
    c.rowsPerPlace = 20;
    c.blocksPerPlace = 2;
    c.iterations = cfg.iterations;
    c.seed = cfg.seed;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendVector(app_.weights().local(), d.dense);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::LinRegResilient app_;
};

class LogRegChaos final : public ChaosApp {
 public:
  LogRegChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::LogRegConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::LogRegConfig c;
    c.features = 5;
    c.rowsPerPlace = 20;
    c.blocksPerPlace = 2;
    c.iterations = cfg.iterations;
    c.seed = cfg.seed + 1;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendVector(app_.weights().local(), d.dense);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::LogRegResilient app_;
};

class PageRankChaos final : public ChaosApp {
 public:
  PageRankChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::PageRankConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::PageRankConfig c;
    c.pagesPerPlace = 24;
    c.linksPerPage = 4;
    c.blocksPerPlace = 2;
    c.iterations = cfg.iterations;
    c.seed = cfg.seed + 2;
    c.exactGraph = true;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendVector(app_.ranks().local(), d.dense);
    sparseSummary(app_.graph(), d);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::PageRankResilient app_;
};

class KMeansChaos final : public ChaosApp {
 public:
  KMeansChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::KMeansConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::KMeansConfig c;
    c.clusters = 3;
    c.dims = 4;
    c.pointsPerPlace = 24;
    c.blocksPerPlace = 2;
    c.iterations = cfg.iterations;
    c.seed = cfg.seed + 3;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendMatrix(app_.centroids().local(), d.dense);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::KMeansResilient app_;
};

class GnnmfChaos final : public ChaosApp {
 public:
  GnnmfChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::GnnmfConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::GnnmfConfig c;
    c.rank = 3;
    c.cols = 12;
    c.rowsPerPlace = 12;
    c.nnzPerRow = 3;
    c.blocksPerPlace = 2;
    c.iterations = cfg.iterations;
    c.seed = cfg.seed + 4;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendMatrix(app_.w().toDense(), d.dense);
    appendMatrix(app_.h().local(), d.dense);
    sparseSummary(app_.v(), d);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::GnnmfResilient app_;
};

class CgChaos final : public ChaosApp {
 public:
  CgChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::CgResilientConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::CgResilientConfig c;
    c.nPerPlace = 16;
    c.band = 2;
    c.blocksPerPlace = 2;
    c.iterations = cfg.iterations;
    c.seed = cfg.seed + 5;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendVector(app_.solution().local(), d.dense);
    sparseSummary(app_.matrix(), d);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::CgResilient app_;
};

class GmresChaos final : public ChaosApp {
 public:
  GmresChaos(const ChaosAppConfig& cfg, const PlaceGroup& pg)
      : app_(makeConfig(cfg), pg) {}

  static apps::GmresResilientConfig makeConfig(const ChaosAppConfig& cfg) {
    apps::GmresResilientConfig c;
    c.nPerPlace = 16;
    c.band = 2;
    c.blocksPerPlace = 2;
    c.restart = 4;
    c.cycles = cfg.iterations;
    c.seed = cfg.seed + 6;
    return c;
  }

  void init() override { app_.init(); }
  framework::ResilientIterativeApp& app() override { return app_; }
  [[nodiscard]] ResultDigest digest() const override {
    ResultDigest d;
    appendVector(app_.solution().local(), d.dense);
    sparseSummary(app_.matrix(), d);
    d.iterations = app_.iteration();
    return d;
  }

 private:
  apps::GmresResilient app_;
};

}  // namespace

std::unique_ptr<ChaosApp> makeChaosApp(AppKind kind,
                                       const ChaosAppConfig& cfg,
                                       const PlaceGroup& pg) {
  switch (kind) {
    case AppKind::LinReg:
      return std::make_unique<LinRegChaos>(cfg, pg);
    case AppKind::LogReg:
      return std::make_unique<LogRegChaos>(cfg, pg);
    case AppKind::PageRank:
      return std::make_unique<PageRankChaos>(cfg, pg);
    case AppKind::KMeans:
      return std::make_unique<KMeansChaos>(cfg, pg);
    case AppKind::Gnnmf:
      return std::make_unique<GnnmfChaos>(cfg, pg);
    case AppKind::Cg:
      return std::make_unique<CgChaos>(cfg, pg);
    case AppKind::Gmres:
      return std::make_unique<GmresChaos>(cfg, pg);
  }
  throw apgas::ApgasError("makeChaosApp: unknown AppKind");
}

GoldenRun runGolden(AppKind kind, const ChaosAppConfig& cfg,
                    std::size_t places, long checkpointInterval,
                    const ChaosAppFactory& factory) {
  Runtime& rt = Runtime::world();
  auto chaos = factory(kind, cfg, PlaceGroup::firstPlaces(places));
  chaos->init();

  GoldenRun golden;
  framework::ExecutorConfig ec;
  ec.places = PlaceGroup::firstPlaces(places);
  ec.checkpointInterval = checkpointInterval;
  const long dispatchBase = rt.dispatchCount();
  ec.iterationHook = [&](long iteration) {
    golden.dispatchAtIteration.resize(
        static_cast<std::size_t>(iteration),
        golden.dispatchAtIteration.empty() ? 0
                                           : golden.dispatchAtIteration
                                                 .back());
    golden.dispatchAtIteration[static_cast<std::size_t>(iteration) - 1] =
        rt.dispatchCount() - dispatchBase;
    golden.digestPerIteration.resize(static_cast<std::size_t>(iteration),
                                     0);
    golden.digestPerIteration[static_cast<std::size_t>(iteration) - 1] =
        chaos->digest().hash();
  };

  framework::ResilientExecutor executor(ec);
  golden.stats = executor.run(chaos->app());
  golden.result = chaos->digest();
  golden.finalConvergenceMetric = chaos->app().convergenceMetric();
  return golden;
}

}  // namespace rgml::harness
