#include "gml/dist_sparse_matrix.h"

namespace rgml::gml {

DistSparseMatrix DistSparseMatrix::make(long m, long n, long nnzPerRow,
                                        const apgas::PlaceGroup& pg) {
  DistSparseMatrix a;
  a.inner_ = DistBlockMatrix::makeSparse(
      m, n, static_cast<long>(pg.size()), 1, static_cast<long>(pg.size()), 1,
      nnzPerRow, pg);
  return a;
}

la::SparseCSR& DistSparseMatrix::localBlock() const {
  la::BlockSet& bs = inner_.localBlockSet();
  if (bs.size() != 1) {
    throw apgas::ApgasError("DistSparseMatrix: expected one block per place");
  }
  return bs[0].sparse();
}

long DistSparseMatrix::localRowOffset() const {
  la::BlockSet& bs = inner_.localBlockSet();
  if (bs.size() != 1) {
    throw apgas::ApgasError("DistSparseMatrix: expected one block per place");
  }
  return bs[0].rowOffset();
}

void DistSparseMatrix::remake(const apgas::PlaceGroup& newPg) {
  inner_.remakeRebalance(newPg);
}

long DistSparseMatrix::nnz() const {
  long total = 0;
  const auto& pg = inner_.placeGroup();
  for (std::size_t s = 0; s < pg.size(); ++s) {
    auto bs = inner_.blockSetAt(pg(s).id());  // uncharged metadata walk
    if (!bs) throw apgas::DeadPlaceException(pg(s).id());
    for (const la::MatrixBlock& block : *bs) total += block.sparse().nnz();
  }
  return total;
}

}  // namespace rgml::gml
