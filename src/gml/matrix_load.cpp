#include "gml/matrix_load.h"

#include <fstream>

#include "apgas/runtime.h"
#include "serialize/binary_io.h"
#include "serialize/matrix_io.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

namespace {

/// Root-side parse charge + per-block scatter charges shared by both
/// loaders. The actual block extraction goes through initFromCSR/
/// initFromDense (each place slices its sub-blocks); scatter transfers are
/// charged here from the root's perspective.
void chargeScatter(const DistBlockMatrix& a, const PlaceGroup& pg,
                   std::size_t parsedBytes) {
  Runtime& rt = Runtime::world();
  rt.at(pg(0), [&] {
    rt.chargeSerialization(parsedBytes);  // parse/tokenise at the root
    for (std::size_t s = 0; s < pg.size(); ++s) {
      a.remoteBlockSet(pg(s), [&](const la::BlockSet& bs) -> std::uint64_t {
        return s == 0 ? 0 : bs.bytes();  // the root's blocks stay put
      });
    }
  });
}

}  // namespace

DistBlockMatrix loadMatrixMarket(std::istream& in, const PlaceGroup& pg,
                                 long blocksPerPlace) {
  la::SparseCSR global;
  Runtime::world().at(pg(0), [&] {
    global = serialize::readMatrixMarket(in);
  });
  const long places = static_cast<long>(pg.size());
  auto a = DistBlockMatrix::makeSparse(
      global.rows(), global.cols(), blocksPerPlace * places, 1, places, 1,
      /*nnzPerRow=*/1, pg);
  a.initFromCSR(global);
  chargeScatter(a, pg, global.bytes());
  return a;
}

DistBlockMatrix loadMatrixMarketFile(const std::string& path,
                                     const PlaceGroup& pg,
                                     long blocksPerPlace) {
  std::ifstream in(path);
  if (!in) {
    throw serialize::SerializeError("cannot open " + path);
  }
  return loadMatrixMarket(in, pg, blocksPerPlace);
}

DistBlockMatrix loadCsv(std::istream& in, const PlaceGroup& pg,
                        long blocksPerPlace) {
  la::DenseMatrix global;
  Runtime::world().at(pg(0), [&] { global = serialize::readCsv(in); });
  const long places = static_cast<long>(pg.size());
  auto a = DistBlockMatrix::makeDense(global.rows(), global.cols(),
                                      blocksPerPlace * places, 1, places, 1,
                                      pg);
  a.initFromDense(global);
  chargeScatter(a, pg, global.bytes());
  return a;
}

}  // namespace rgml::gml
