// Collective cost helpers shared by the distributed GML classes.
//
// GML's collectives in the evaluated version are *flat*: the root sends to
// (or receives from) every other member sequentially, so their virtual-time
// cost is linear in the group size. This is the driver of the paper's
// non-resilient weak-scaling growth (Figs. 2-4 baselines).
//
// Direction convention: Runtime::chargeComm charges the *current* place's
// clock for the full transfer and bumps the peer's clock to the arrival
// time. For gathers the root pulls, for broadcasts the root pushes; both
// serialise on the root's clock, which is the behaviour being modelled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "apgas/place_group.h"

namespace rgml::gml {

/// Charge a flat broadcast of `bytes` from pg(rootIdx) to every other
/// member (root's clock advances once per member). Throws
/// DeadPlaceException if any member is dead. Must be called from the task
/// whose clock should observe the completed broadcast.
void chargeBroadcast(const apgas::PlaceGroup& pg, std::size_t rootIdx,
                     std::size_t bytes);

/// Charge a binomial-tree broadcast: ceil(log2(size)) rounds, the root's
/// clock paying one transfer per round. The fix for the flat collectives'
/// linear-in-places cost (the paper's non-resilient scaling bottleneck);
/// see bench/ablation_collectives.cpp.
void chargeTreeBroadcast(const apgas::PlaceGroup& pg, std::size_t rootIdx,
                         std::size_t bytes);

/// Charge a flat gather of `bytes` from every member to pg(rootIdx).
void chargeGather(const apgas::PlaceGroup& pg, std::size_t rootIdx,
                  std::size_t bytes);

/// Flat reduction at `root`: one task per member of `pg`, all running at
/// `root` (one worker there), so the transfers serialise on root's clock.
/// Task i pulls `bytes` from pg(i) (Runtime::chargeComm, a local copy for
/// root's own partial) and then runs fold(i), which combines partial i into
/// the result and charges its own flops. Throws DeadPlaceException when
/// `root` or a member is dead.
void reduceAt(apgas::Place root, const apgas::PlaceGroup& pg,
              std::uint64_t bytes, const std::function<void(long)>& fold);

/// Run `local(place, index)` at every member of `pg` (one finish), then
/// sum the per-place partial scalars with a flat gather at pg(rootIdx) and
/// return the total (as known by the calling task). Models GML's scalar
/// reductions (dot products, norms).
[[nodiscard]] double allReduceSum(
    const apgas::PlaceGroup& pg,
    const std::function<double(apgas::Place, long)>& local,
    std::size_t rootIdx = 0);

/// Generalised scalar reduction: runs `local` at every member, then folds
/// the per-place values with `combine` starting from `init`.
[[nodiscard]] double allReduce(
    const apgas::PlaceGroup& pg,
    const std::function<double(apgas::Place, long)>& local,
    const std::function<double(double, double)>& combine, double init,
    std::size_t rootIdx = 0);

}  // namespace rgml::gml
