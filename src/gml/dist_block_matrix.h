// DistBlockMatrix: a matrix partitioned into a Grid of blocks, one *set* of
// blocks per place (x10.matrix.distblock.DistBlockMatrix).
//
// This is the paper's central data structure. Because a place holds a
// BlockSet rather than a single block, the matrix can adapt to place loss
// in three ways (§IV-A2, §V-B):
//
//   * remakeSameDist  — same grid, same mapping, equal-sized group
//                       (replace-redundant mode: a spare stands in for the
//                       dead place); restore is block-by-block.
//   * remakeShrink    — same grid, surviving blocks stay put, the dead
//                       place's blocks are dealt round-robin to survivors
//                       (shrink mode); restore is block-by-block but load
//                       balance degrades.
//   * remakeRebalance — a new grid is computed for the new group size
//                       (shrink-rebalance mode); restore must copy
//                       overlapping sub-blocks, counting non-zeros first
//                       for sparse payloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "apgas/place_group.h"
#include "apgas/place_local_handle.h"
#include "la/block_set.h"
#include "la/dist_map.h"
#include "la/grid.h"
#include "resilient/snapshot.h"

namespace rgml::gml {

class DistBlockMatrix final : public resilient::Snapshottable {
 public:
  DistBlockMatrix() = default;

  /// Dense m x n matrix split into rowBlocks x colBlocks blocks mapped onto
  /// a rowPlaces x colPlaces place grid over `pg`
  /// (pg.size() == rowPlaces*colPlaces).
  static DistBlockMatrix makeDense(long m, long n, long rowBlocks,
                                   long colBlocks, long rowPlaces,
                                   long colPlaces,
                                   const apgas::PlaceGroup& pg);

  /// Sparse variant; blocks are CSR with ~nnzPerRow entries per block row
  /// once initRandom() is called.
  static DistBlockMatrix makeSparse(long m, long n, long rowBlocks,
                                    long colBlocks, long rowPlaces,
                                    long colPlaces, long nnzPerRow,
                                    const apgas::PlaceGroup& pg);

  [[nodiscard]] long rows() const noexcept { return grid_.rows(); }
  [[nodiscard]] long cols() const noexcept { return grid_.cols(); }
  [[nodiscard]] bool isSparse() const noexcept { return sparse_; }
  [[nodiscard]] const la::Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const la::DistMap& distMap() const noexcept { return map_; }
  [[nodiscard]] const apgas::PlaceGroup& placeGroup() const noexcept {
    return pg_;
  }

  /// The block set at the current place.
  [[nodiscard]] la::BlockSet& localBlockSet() const;

  /// The block set stored at place `p` (nullptr if the place is dead or
  /// holds none), with no cost accounting: for own-place lookups that
  /// tolerate a place outside the group, and for uncharged verification
  /// and metadata walks. Reading another place's blocks at a cost goes
  /// through remoteBlockSet().
  [[nodiscard]] std::shared_ptr<la::BlockSet> blockSetAt(
      apgas::PlaceId p) const;

  /// Runs `access` on the block set at `owner` and charges the bytes it
  /// returns (apgas::PlaceLocalHandle::remote).
  template <class Access>
  void remoteBlockSet(apgas::Place owner, Access&& access) const {
    blocks_.remote(owner, std::forward<Access>(access));
  }

  /// Deterministic random fill. Element values depend only on (seed, i, j)
  /// for dense; sparse blocks draw a fresh pattern per block from the seed.
  void initRandom(std::uint64_t seed, double lo = 0.0, double hi = 1.0);
  /// Dense only: element (i, j) = fn(i, j).
  void init(const std::function<double(long, long)>& fn);
  /// Scatter a replicated global CSR matrix into the sparse blocks (each
  /// place extracts its sub-blocks; used to load e.g. a web graph).
  void initFromCSR(const la::SparseCSR& global);
  /// Scatter a global dense matrix into the dense blocks.
  void initFromDense(const la::DenseMatrix& global);

  /// Element read for tests/verification.
  [[nodiscard]] double at(long i, long j) const;
  /// Gather everything into one dense matrix (tests only).
  [[nodiscard]] la::DenseMatrix toDense() const;

  /// Total payload bytes over all blocks.
  [[nodiscard]] std::size_t totalBytes() const;

  // -- elementwise / reduction operations ---------------------------------
  /// Scale every element (one finish).
  void scale(double a);
  /// this += other; requires an identical grid, mapping and group, and
  /// dense payloads (sparse cellAdd would change the non-zero structure).
  void cellAdd(const DistBlockMatrix& other);
  /// Frobenius norm (local sums of squares + scalar reduction).
  [[nodiscard]] double normF() const;

  /// Max-over-places of per-place payload bytes divided by the mean:
  /// 1.0 is perfectly balanced. Shrink mode degrades this; rebalance
  /// restores it.
  [[nodiscard]] double loadImbalance() const;

  // -- remake paths (paper §IV-A2, §V-B) ----------------------------------
  /// Same grid and mapping over an equal-sized group (replace-redundant).
  void remakeSameDist(const apgas::PlaceGroup& newPg);
  /// Same grid; orphaned blocks dealt round-robin (shrink).
  void remakeShrink(const apgas::PlaceGroup& newPg);
  /// New grid recalculated for the new group size (shrink-rebalance).
  /// Keeps the original blocks-per-place-row factor and block columns.
  void remakeRebalance(const apgas::PlaceGroup& newPg);

  // -- Snapshottable -------------------------------------------------------
  /// Keys are block ids; each place saves the blocks it owns together with
  /// their version stamps. The grid is recorded as snapshot metadata.
  [[nodiscard]] std::shared_ptr<resilient::Snapshot> makeSnapshot()
      const override;
  /// Dirty-block incremental snapshot: blocks whose version still matches
  /// what `prev` recorded are carried forward (no copy, no backup
  /// transfer); only dirty blocks are saved fresh. A fully clean matrix
  /// takes a zero-communication fast path (the root compares version sums
  /// and adopts `prev`'s entries wholesale, like saveReadOnly). Falls back
  /// to a full save when the group or grid changed since `prev`, or when a
  /// carried entry would have degraded redundancy.
  [[nodiscard]] std::shared_ptr<resilient::Snapshot> makeDeltaSnapshot(
      const resilient::Snapshot& prev) const override;
  /// Chooses block-by-block restore when the current grid equals the
  /// snapshot grid, the overlapping-region path otherwise.
  void restoreSnapshot(const resilient::Snapshot& snapshot) override;

 private:
  static DistBlockMatrix makeCommon(long m, long n, long rowBlocks,
                                    long colBlocks, long rowPlaces,
                                    long colPlaces,
                                    const apgas::PlaceGroup& pg, bool sparse,
                                    long nnzPerRow);

  void allocBlocks();
  void restoreBlockByBlock(const resilient::Snapshot& snapshot);
  void restoreRepartitioned(const resilient::Snapshot& snapshot,
                            const la::Grid& oldGrid);

  la::Grid grid_;
  la::DistMap map_;
  apgas::PlaceGroup pg_;
  bool sparse_ = false;
  long nnzPerRowCfg_ = 0;
  /// make()-time block density used by remakeRebalance to size new grids.
  long rowBlocksPerPlaceRow_ = 1;
  apgas::PlaceLocalHandle<la::BlockSet> blocks_;
};

}  // namespace rgml::gml
