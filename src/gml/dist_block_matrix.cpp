#include "gml/dist_block_matrix.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "apgas/runtime.h"
#include "gml/collectives.h"
#include "la/kernels.h"
#include "la/rand.h"
#include "obs/trace_sink.h"
#include "resilient/restore_overlap.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;
using apgas::ateach;

DistBlockMatrix DistBlockMatrix::makeDense(long m, long n, long rowBlocks,
                                           long colBlocks, long rowPlaces,
                                           long colPlaces,
                                           const PlaceGroup& pg) {
  return makeCommon(m, n, rowBlocks, colBlocks, rowPlaces, colPlaces, pg,
                    /*sparse=*/false, 0);
}

DistBlockMatrix DistBlockMatrix::makeSparse(long m, long n, long rowBlocks,
                                            long colBlocks, long rowPlaces,
                                            long colPlaces, long nnzPerRow,
                                            const PlaceGroup& pg) {
  return makeCommon(m, n, rowBlocks, colBlocks, rowPlaces, colPlaces, pg,
                    /*sparse=*/true, nnzPerRow);
}

DistBlockMatrix DistBlockMatrix::makeCommon(long m, long n, long rowBlocks,
                                            long colBlocks, long rowPlaces,
                                            long colPlaces,
                                            const PlaceGroup& pg,
                                            bool sparse, long nnzPerRow) {
  if (static_cast<long>(pg.size()) != rowPlaces * colPlaces) {
    throw apgas::ApgasError(
        "DistBlockMatrix: pg.size() != rowPlaces*colPlaces");
  }
  DistBlockMatrix a;
  a.grid_ = la::Grid(m, n, rowBlocks, colBlocks);
  a.map_ = la::DistMap::makeGrid(a.grid_, rowPlaces, colPlaces);
  a.pg_ = pg;
  a.sparse_ = sparse;
  a.nnzPerRowCfg_ = nnzPerRow;
  a.rowBlocksPerPlaceRow_ = std::max<long>(1, rowBlocks / rowPlaces);
  a.allocBlocks();
  return a;
}

void DistBlockMatrix::allocBlocks() {
  blocks_.destroy();
  const la::Grid grid = grid_;
  const la::DistMap map = map_;
  const PlaceGroup pg = pg_;
  const bool sparse = sparse_;
  blocks_ = apgas::PlaceLocalHandle<la::BlockSet>::make(
      pg_, [grid, map, pg, sparse](Place p) {
        auto bs = std::make_shared<la::BlockSet>();
        const long idx = pg.indexOf(p);
        for (long blockId : map.blocksOf(idx)) {
          const long rb = grid.blockRow(blockId);
          const long cb = grid.blockCol(blockId);
          const long h = grid.rowBlockSize(rb);
          const long w = grid.colBlockSize(cb);
          const long r0 = grid.rowBlockStart(rb);
          const long c0 = grid.colBlockStart(cb);
          if (sparse) {
            bs->add(la::MatrixBlock(rb, cb, r0, c0, la::SparseCSR(h, w)));
          } else {
            bs->add(la::MatrixBlock(rb, cb, r0, c0, la::DenseMatrix(h, w)));
          }
        }
        return bs;
      });
}

la::BlockSet& DistBlockMatrix::localBlockSet() const {
  return blocks_.local();
}

std::shared_ptr<la::BlockSet> DistBlockMatrix::blockSetAt(
    apgas::PlaceId p) const {
  return blocks_.atPlace(p);
}

void DistBlockMatrix::initRandom(std::uint64_t seed, double lo, double hi) {
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place) {
    for (la::MatrixBlock& block : localBlockSet()) {
      if (sparse_) {
        const std::uint64_t blockSeed =
            seed ^ (0x5851F42D4C957F2DULL *
                    static_cast<std::uint64_t>(
                        grid_.blockId(block.blockRow(), block.blockCol()) +
                        1));
        const long nnzPerRow =
            std::min(nnzPerRowCfg_, block.cols());
        block.sparse() = la::makeUniformSparse(block.rows(), block.cols(),
                                               nnzPerRow, blockSeed, lo, hi);
        rt.chargeSparseFlops(static_cast<double>(block.sparse().nnz()));
      } else {
        la::DenseMatrix& d = block.dense();
        for (long j = 0; j < d.cols(); ++j) {
          const std::uint64_t gc =
              static_cast<std::uint64_t>(block.colOffset() + j);
          for (long i = 0; i < d.rows(); ++i) {
            const std::uint64_t gr =
                static_cast<std::uint64_t>(block.rowOffset() + i);
            d(i, j) = la::hashedUniform(
                seed, gr * static_cast<std::uint64_t>(grid_.cols()) + gc, lo,
                hi);
          }
        }
        rt.chargeDenseFlops(static_cast<double>(d.elements()));
      }
    }
  });
}

void DistBlockMatrix::init(const std::function<double(long, long)>& fn) {
  if (sparse_) {
    throw apgas::ApgasError("DistBlockMatrix::init(fn): dense only");
  }
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place) {
    for (la::MatrixBlock& block : localBlockSet()) {
      la::DenseMatrix& d = block.dense();
      for (long j = 0; j < d.cols(); ++j) {
        for (long i = 0; i < d.rows(); ++i) {
          d(i, j) = fn(block.rowOffset() + i, block.colOffset() + j);
        }
      }
      rt.chargeDenseFlops(static_cast<double>(d.elements()));
    }
  });
}

void DistBlockMatrix::initFromCSR(const la::SparseCSR& global) {
  if (!sparse_) {
    throw apgas::ApgasError("DistBlockMatrix::initFromCSR: sparse only");
  }
  if (global.rows() != rows() || global.cols() != cols()) {
    throw apgas::ApgasError("DistBlockMatrix::initFromCSR: shape mismatch");
  }
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place) {
    for (la::MatrixBlock& block : localBlockSet()) {
      block.sparse() = global.subMatrix(block.rowOffset(), block.colOffset(),
                                        block.rows(), block.cols());
      rt.chargeLocalCopy(block.bytes());
    }
  });
}

void DistBlockMatrix::initFromDense(const la::DenseMatrix& global) {
  if (sparse_) {
    throw apgas::ApgasError("DistBlockMatrix::initFromDense: dense only");
  }
  if (global.rows() != rows() || global.cols() != cols()) {
    throw apgas::ApgasError("DistBlockMatrix::initFromDense: shape mismatch");
  }
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place) {
    for (la::MatrixBlock& block : localBlockSet()) {
      block.dense().copySubFrom(global, block.rowOffset(), block.colOffset(),
                                block.rows(), block.cols(), 0, 0);
      rt.chargeLocalCopy(block.bytes());
    }
  });
}

double DistBlockMatrix::at(long i, long j) const {
  if (i < 0 || i >= rows() || j < 0 || j >= cols()) {
    throw apgas::ApgasError("DistBlockMatrix::at: out of range");
  }
  const long rb = grid_.rowBlockOf(i);
  const long cb = grid_.colBlockOf(j);
  const long idx = map_.placeIndexOf(grid_.blockId(rb, cb));
  const Place owner = pg_(static_cast<std::size_t>(idx));
  double v = 0.0;
  blocks_.remote(owner, [&](const la::BlockSet& bs) -> std::uint64_t {
    const la::MatrixBlock* block = bs.find(rb, cb);
    if (block == nullptr) {
      throw apgas::ApgasError("DistBlockMatrix::at: block missing");
    }
    v = block->at(i - block->rowOffset(), j - block->colOffset());
    // An element read in place moves nothing.
    return owner == Runtime::world().here() ? 0 : sizeof(double);
  });
  return v;
}

la::DenseMatrix DistBlockMatrix::toDense() const {
  // Verification helper: gathers without cost accounting.
  la::DenseMatrix out(rows(), cols());
  for (std::size_t s = 0; s < pg_.size(); ++s) {
    const Place owner = pg_(s);
    auto bs = blocks_.atPlace(owner.id());  // uncharged verification walk
    if (!bs) throw apgas::DeadPlaceException(owner.id());
    for (const la::MatrixBlock& block : *bs) {
      for (long j = 0; j < block.cols(); ++j) {
        for (long i = 0; i < block.rows(); ++i) {
          out(block.rowOffset() + i, block.colOffset() + j) = block.at(i, j);
        }
      }
    }
  }
  return out;
}

void DistBlockMatrix::scale(double a) {
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place) {
    for (la::MatrixBlock& block : localBlockSet()) {
      if (sparse_) {
        block.sparse().scaleValues(a);
        rt.chargeSparseFlops(static_cast<double>(block.sparse().nnz()));
      } else {
        la::scale(block.dense().span(), a);
        rt.chargeDenseFlops(static_cast<double>(block.dense().elements()));
      }
    }
  });
}

void DistBlockMatrix::cellAdd(const DistBlockMatrix& other) {
  if (sparse_ || other.sparse_) {
    throw apgas::ApgasError("DistBlockMatrix::cellAdd: dense only");
  }
  if (!(grid_ == other.grid_) || !(map_ == other.map_) ||
      !(pg_ == other.pg_)) {
    throw apgas::ApgasError(
        "DistBlockMatrix::cellAdd: distributions must match");
  }
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place p) {
    auto otherBs = other.blockSetAt(p.id());  // own place: no transfer
    if (!otherBs) throw apgas::DeadPlaceException(p.id());
    for (la::MatrixBlock& block : localBlockSet()) {
      const la::MatrixBlock* src =
          otherBs->find(block.blockRow(), block.blockCol());
      if (src == nullptr) {
        throw apgas::ApgasError("DistBlockMatrix::cellAdd: block missing");
      }
      la::cellAdd(src->dense().span(), block.dense().span());
      rt.chargeDenseFlops(static_cast<double>(block.dense().elements()));
    }
  });
}

double DistBlockMatrix::normF() const {
  const double sumSq = allReduceSum(pg_, [&](Place, long) {
    double acc = 0.0;
    double flops = 0.0;
    for (const la::MatrixBlock& block : localBlockSet()) {
      if (sparse_) {
        for (double v : block.sparse().values()) acc += v * v;
        flops += 2.0 * static_cast<double>(block.sparse().nnz());
      } else {
        acc += la::dot(block.dense().span(), block.dense().span());
        flops += 2.0 * static_cast<double>(block.dense().elements());
      }
    }
    Runtime::world().chargeDenseFlops(flops);
    return acc;
  });
  return std::sqrt(sumSq);
}

std::size_t DistBlockMatrix::totalBytes() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < pg_.size(); ++s) {
    auto bs = blocks_.atPlace(pg_(s).id());  // uncharged metadata walk
    if (bs) total += bs->bytes();
  }
  return total;
}

double DistBlockMatrix::loadImbalance() const {
  std::size_t maxBytes = 0;
  std::size_t sumBytes = 0;
  for (std::size_t s = 0; s < pg_.size(); ++s) {
    auto bs = blocks_.atPlace(pg_(s).id());  // uncharged metadata walk
    const std::size_t b = bs ? bs->bytes() : 0;
    maxBytes = std::max(maxBytes, b);
    sumBytes += b;
  }
  if (sumBytes == 0) return 1.0;
  const double mean =
      static_cast<double>(sumBytes) / static_cast<double>(pg_.size());
  return static_cast<double>(maxBytes) / mean;
}

void DistBlockMatrix::remakeSameDist(const PlaceGroup& newPg) {
  if (newPg.size() != pg_.size()) {
    throw apgas::ApgasError(
        "remakeSameDist: new group must have the same size");
  }
  pg_ = newPg;
  allocBlocks();
}

void DistBlockMatrix::remakeShrink(const PlaceGroup& newPg) {
  if (newPg.empty()) throw apgas::ApgasError("remakeShrink: empty group");
  // Translate old place indices to new ones (-1 for dropped places).
  std::vector<long> translation(pg_.size(), -1);
  for (std::size_t i = 0; i < pg_.size(); ++i) {
    translation[i] = newPg.indexOf(pg_.ids()[i]);
  }
  map_ = la::DistMap::remapShrink(map_, translation,
                                  static_cast<long>(newPg.size()));
  pg_ = newPg;
  allocBlocks();
}

void DistBlockMatrix::remakeRebalance(const PlaceGroup& newPg) {
  if (newPg.empty()) throw apgas::ApgasError("remakeRebalance: empty group");
  const long newPlaces = static_cast<long>(newPg.size());
  const long rowBlocks =
      std::min(rows(), rowBlocksPerPlaceRow_ * newPlaces);
  const long colBlocks = std::min(cols(), grid_.colBlocks());
  grid_ = la::Grid(rows(), cols(), rowBlocks, colBlocks);
  map_ = la::DistMap::makeGrid(grid_, newPlaces, 1);
  pg_ = newPg;
  allocBlocks();
}

namespace {
void saveBlock(resilient::Snapshot& snapshot, long blockId,
               const la::MatrixBlock& block, bool sparse) {
  if (sparse) {
    snapshot.emplace<resilient::SparseBlockValue>(
        blockId, block.version(), block.sparse(), block.blockRow(),
        block.blockCol(), block.rowOffset(), block.colOffset());
  } else {
    snapshot.emplace<resilient::DenseBlockValue>(
        blockId, block.version(), block.dense(), block.blockRow(),
        block.blockCol(), block.rowOffset(), block.colOffset());
  }
}
}  // namespace

std::shared_ptr<resilient::Snapshot> DistBlockMatrix::makeSnapshot() const {
  auto snapshot = std::make_shared<resilient::Snapshot>(pg_);
  snapshot->setMeta(std::make_shared<resilient::GridMetaValue>(grid_));
  ateach(pg_, [&](Place) {
    for (const la::MatrixBlock& block : localBlockSet()) {
      const long blockId = grid_.blockId(block.blockRow(), block.blockCol());
      saveBlock(*snapshot, blockId, block, sparse_);
    }
  });
  return snapshot;
}

std::shared_ptr<resilient::Snapshot> DistBlockMatrix::makeDeltaSnapshot(
    const resilient::Snapshot& prev) const {
  // A delta is only meaningful against a snapshot of the same distribution:
  // after a remake (new group and/or grid) block ids and holder places no
  // longer line up, so fall back to a full save.
  if (!(prev.placeGroup() == pg_)) return makeSnapshot();
  auto prevMeta = std::dynamic_pointer_cast<const resilient::GridMetaValue>(
      prev.meta());
  if (!prevMeta || !(prevMeta->grid() == grid_)) return makeSnapshot();

  auto snapshot = std::make_shared<resilient::Snapshot>(pg_);
  snapshot->setMeta(std::make_shared<resilient::GridMetaValue>(grid_));

  // All-clean fast path: every mutating GML op runs a finish rooted here,
  // and its termination acks piggyback the per-place version bumps, so by
  // checkpoint time the root already knows the object's total version sum
  // without extra communication. Versions are monotone, so an unchanged
  // sum over the same block set means no block was touched — the whole
  // entry set is carried forward as pure metadata reuse (zero tasks, zero
  // bytes), matching saveReadOnly's cost without the immutability promise.
  std::uint64_t versionSum = 0;
  std::size_t blockCount = 0;
  for (apgas::PlaceId p : pg_) {
    const auto blocks = blockSetAt(p);  // uncharged: acks carried the versions
    if (!blocks) {
      versionSum = 0;
      blockCount = 0;
      break;
    }
    for (const la::MatrixBlock& block : *blocks) {
      versionSum += block.version();
      ++blockCount;
    }
  }
  if (blockCount > 0 && blockCount == prev.numEntries() &&
      versionSum == prev.versionSum() && snapshot->carryForwardAll(prev)) {
    return snapshot;
  }

  ateach(pg_, [&](Place) {
    for (const la::MatrixBlock& block : localBlockSet()) {
      const long blockId = grid_.blockId(block.blockRow(), block.blockCol());
      if (!snapshot->carryForward(blockId, prev, block.version())) {
        saveBlock(*snapshot, blockId, block, sparse_);
      }
    }
  });
  return snapshot;
}

void DistBlockMatrix::restoreSnapshot(const resilient::Snapshot& snapshot) {
  auto meta = std::dynamic_pointer_cast<const resilient::GridMetaValue>(
      snapshot.meta());
  if (!meta) {
    throw apgas::ApgasError(
        "DistBlockMatrix::restoreSnapshot: missing grid metadata");
  }
  // The two restore paths the paper's §VII-C cost analysis contrasts:
  // same grid = whole-block copies; new grid = overlap-region assembly.
  const bool sameGrid = meta->grid() == grid_;
  obs::TraceSink* sink = obs::TraceSink::current();
  std::size_t span = 0;
  if (sink != nullptr) {
    Runtime& rt = Runtime::world();
    span = sink->open(obs::Category::Restore,
                      sameGrid ? "restore.block-by-block"
                               : "restore.repartitioned",
                      -1, static_cast<int>(rt.here().id()), rt.time());
  }
  try {
    if (sameGrid) {
      restoreBlockByBlock(snapshot);
    } else {
      restoreRepartitioned(snapshot, meta->grid());
    }
  } catch (...) {
    if (sink != nullptr) {
      sink->close(span, Runtime::world().time(), 0, {{"aborted", "true"}});
    }
    throw;
  }
  if (sink != nullptr) {
    sink->close(span, Runtime::world().time(), snapshot.totalBytes(),
                {{"path", sameGrid ? "block-by-block" : "repartitioned"},
                 {"entries", std::to_string(snapshot.numEntries())}});
  }
}

void DistBlockMatrix::restoreBlockByBlock(
    const resilient::Snapshot& snapshot) {
  // Same grid as at checkpoint time: every current block exists in the
  // snapshot under its block id; copy it whole (paper §IV-B2).
  ateach(pg_, [&](Place) {
    for (la::MatrixBlock& block : localBlockSet()) {
      const long blockId = grid_.blockId(block.blockRow(), block.blockCol());
      auto value = snapshot.load(blockId);  // charges full payload transfer
      if (sparse_) {
        auto sv =
            std::dynamic_pointer_cast<const resilient::SparseBlockValue>(
                value);
        if (!sv) {
          throw apgas::ApgasError("restore: expected sparse block value");
        }
        block.sparse() = sv->data();
      } else {
        auto dv =
            std::dynamic_pointer_cast<const resilient::DenseBlockValue>(
                value);
        if (!dv) {
          throw apgas::ApgasError("restore: expected dense block value");
        }
        block.dense() = dv->data();
      }
      // The block's content now equals the snapshot entry exactly, so
      // re-stamp it with the saved version: an unmutated block carries
      // forward again at the next delta checkpoint.
      block.setVersion(snapshot.savedVersion(blockId));
    }
  });
}

void DistBlockMatrix::restoreRepartitioned(
    const resilient::Snapshot& snapshot, const la::Grid& oldGrid) {
  // Different grid: each new block overlaps several old blocks. Copy the
  // overlapping sub-regions; for sparse blocks, pre-count the non-zeros of
  // every region to size the new block before filling it (paper §IV-B2).
  Runtime& rt = Runtime::world();
  ateach(pg_, [&](Place p) {
    for (la::MatrixBlock& block : localBlockSet()) {
      const auto regions = resilient::computeOverlaps(
          oldGrid, grid_, block.blockRow(), block.blockCol());
      if (sparse_) {
        // Pass 1: count non-zeros per region (scan cost on this place).
        long totalNnz = 0;
        for (const auto& region : regions) {
          auto located = snapshot.locate(region.oldBlockId);
          auto sv =
              std::dynamic_pointer_cast<const resilient::SparseBlockValue>(
                  located.value);
          if (!sv) {
            throw apgas::ApgasError("restore: expected sparse block value");
          }
          const long count = sv->data().countNonZerosIn(
              region.srcRow, region.srcCol, region.rows, region.cols);
          rt.chargeSparseFlops(static_cast<double>(count));
          totalNnz += count;
        }
        (void)totalNnz;  // sizing information; pasteSubFrom reserves per call
        // Pass 2: extract and paste each sub-region.
        la::SparseCSR fresh(block.rows(), block.cols());
        for (const auto& region : regions) {
          auto located = snapshot.locate(region.oldBlockId);
          auto sv =
              std::static_pointer_cast<const resilient::SparseBlockValue>(
                  located.value);
          la::SparseCSR sub = sv->data().subMatrix(
              region.srcRow, region.srcCol, region.rows, region.cols);
          // Extraction (serialised) at the holder, transfer, then a merge
          // that rewrites the partially-assembled block — the sub-block
          // copying overhead the paper blames for shrink-rebalance's cost
          // (§VII-C).
          rt.chargeSerialization(sub.bytes());
          if (located.holder != p) {
            rt.chargeComm(located.holder, sub.bytes());
          }
          fresh.pasteSubFrom(sub, region.dstRow, region.dstCol);
          rt.chargeSerialization(sub.bytes());
          rt.chargeLocalCopy(fresh.bytes());
        }
        block.sparse() = std::move(fresh);
      } else {
        for (const auto& region : regions) {
          auto located = snapshot.locate(region.oldBlockId);
          auto dv =
              std::dynamic_pointer_cast<const resilient::DenseBlockValue>(
                  located.value);
          if (!dv) {
            throw apgas::ApgasError("restore: expected dense block value");
          }
          const auto bytes = static_cast<std::uint64_t>(region.rows) *
                             static_cast<std::uint64_t>(region.cols) *
                             sizeof(double);
          // Strided sub-block extraction (serialised) at the holder,
          // transfer, strided paste into the new block — two serialisation
          // passes more than whole-block restore.
          rt.chargeSerialization(bytes);
          if (located.holder != p) {
            rt.chargeComm(located.holder, bytes);
          }
          rt.chargeSerialization(bytes);
          block.dense().copySubFrom(dv->data(), region.srcRow, region.srcCol,
                                    region.rows, region.cols, region.dstRow,
                                    region.dstCol);
        }
      }
    }
  });
}

}  // namespace rgml::gml
