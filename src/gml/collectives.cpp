#include "gml/collectives.h"

#include <vector>

#include "apgas/runtime.h"

namespace rgml::gml {

using apgas::Place;
using apgas::PlaceGroup;
using apgas::Runtime;

void chargeBroadcast(const PlaceGroup& pg, std::size_t rootIdx,
                     std::size_t bytes) {
  Runtime& rt = Runtime::world();
  const Place root = pg(rootIdx);
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  rt.at(root, [&] {
    for (std::size_t i = 0; i < pg.size(); ++i) {
      if (i == rootIdx) continue;
      const Place member = pg(i);
      if (member.isDead()) throw apgas::DeadPlaceException(member.id());
      rt.chargeComm(member, bytes);
    }
  });
}

void chargeTreeBroadcast(const PlaceGroup& pg, std::size_t rootIdx,
                         std::size_t bytes) {
  Runtime& rt = Runtime::world();
  const Place root = pg(rootIdx);
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  for (std::size_t i = 0; i < pg.size(); ++i) {
    if (pg(i).isDead()) throw apgas::DeadPlaceException(pg(i).id());
  }
  std::size_t rounds = 0;
  for (std::size_t covered = 1; covered < pg.size(); covered *= 2) {
    ++rounds;
  }
  rt.at(root, [&] {
    // The tree moves the same pg.size()-1 payload copies as the flat
    // broadcast — only the critical path shrinks to log2 rounds. Count
    // every transfer so dataMsgs/bytesSent match the flat path exactly
    // (each payload charged exactly once, regardless of topology).
    for (std::size_t i = 0; i < pg.size(); ++i) {
      if (i != rootIdx) rt.noteDataTransfer(bytes);
    }
    rt.advance(static_cast<double>(rounds) *
               rt.costModel().commTime(bytes));
  });
}

void chargeGather(const PlaceGroup& pg, std::size_t rootIdx,
                  std::size_t bytes) {
  // Cost-symmetric with broadcast: the root's clock serialises one
  // transfer per member either way.
  chargeBroadcast(pg, rootIdx, bytes);
}

void reduceAt(Place root, const PlaceGroup& pg, std::uint64_t bytes,
              const std::function<void(long)>& fold) {
  Runtime& rt = Runtime::world();
  if (root.isDead()) throw apgas::DeadPlaceException(root.id());
  apgas::finish([&] {
    for (std::size_t i = 0; i < pg.size(); ++i) {
      const Place src = pg(i);
      rt.asyncAt(root, [&, i, src] {
        if (src.isDead()) throw apgas::DeadPlaceException(src.id());
        rt.chargeComm(src, bytes);
        fold(static_cast<long>(i));
      });
    }
  });
}

double allReduceSum(const PlaceGroup& pg,
                    const std::function<double(Place, long)>& local,
                    std::size_t rootIdx) {
  return allReduce(
      pg, local, [](double a, double b) { return a + b; }, 0.0, rootIdx);
}

double allReduce(const PlaceGroup& pg,
                 const std::function<double(Place, long)>& local,
                 const std::function<double(double, double)>& combine,
                 double init, std::size_t rootIdx) {
  std::vector<double> partials(pg.size(), 0.0);
  apgas::ateach(pg, [&](Place p) {
    const long idx = pg.indexOf(p);
    partials[static_cast<std::size_t>(idx)] = local(p, idx);
  });
  chargeGather(pg, rootIdx, sizeof(double));
  double total = init;
  for (double v : partials) total = combine(total, v);
  return total;
}

}  // namespace rgml::gml
