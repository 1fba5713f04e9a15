// PlaceLocalHandle (PLH): a handle resolving to one object per place of a
// PlaceGroup (x10.lang.PlaceLocalHandle).
//
// Every distributed GML object stores its per-place data behind a PLH.
// When a place dies its heap is destroyed, leaving the PLH with a dangling
// entry for that place — exactly the failure mode the paper describes for
// pre-resilient GML. `remake()` on the GML classes rebuilds the PLH over a
// new place group.
//
// Access contract: code at a place reads its own object through local();
// every charged access to another place's object goes through remote(),
// the one-sided get/put that checks liveness and charges the transfer.
// atPlace() is the raw lookup left for own-place lookups, uncharged walks
// (verification and metadata) and collectives that charge their transfers
// as a whole.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "apgas/place_group.h"
#include "apgas/runtime.h"

namespace rgml::apgas {

template <typename T>
class PlaceLocalHandle {
 public:
  PlaceLocalHandle() = default;

  /// Creates one T per place of `pg` by running `init` at each place
  /// (inside a finish, as X10's PlaceLocalHandle.make does).
  static PlaceLocalHandle make(
      const PlaceGroup& pg,
      const std::function<std::shared_ptr<T>(Place)>& init) {
    PlaceLocalHandle h;
    h.key_ = Runtime::world().allocHandleId();
    h.pg_ = pg;
    ateach(pg, [&](Place p) {
      Runtime::world().heapPut(p.id(), h.key_, init(p));
    });
    return h;
  }

  [[nodiscard]] bool valid() const noexcept { return key_ != 0; }
  [[nodiscard]] const PlaceGroup& placeGroup() const noexcept { return pg_; }

  /// The object at the current place; throws if none exists here.
  [[nodiscard]] T& local() const {
    Runtime& rt = Runtime::world();
    const PlaceId p = rt.here().id();
    auto obj = std::static_pointer_cast<T>(rt.heapGet(p, key_));
    if (!obj) {
      throw ApgasError("PlaceLocalHandle: no local object at place " +
                       std::to_string(p));
    }
    return *obj;
  }

  /// Shared ownership of the object at the current place (nullptr if none).
  [[nodiscard]] std::shared_ptr<T> localPtr() const {
    Runtime& rt = Runtime::world();
    return std::static_pointer_cast<T>(rt.heapGet(rt.here().id(), key_));
  }

  /// True if the current place holds an object for this handle.
  [[nodiscard]] bool hasLocal() const {
    Runtime& rt = Runtime::world();
    return rt.heapGet(rt.here().id(), key_) != nullptr;
  }

  /// One-sided get/put on the object at `owner`: runs `access(object)`,
  /// which returns the bytes it moved, and charges them as one transfer
  /// between the current place and `owner` (Runtime::chargeComm: a local
  /// copy when `owner` is here, one data message otherwise, nothing for
  /// 0). Throws DeadPlaceException(owner) without running `access` or
  /// charging when `owner` is dead or holds no object. The object's
  /// shared_ptr is held across the call, so a concurrent kill cannot free
  /// it mid-copy.
  template <class Access>
  void remote(Place owner, Access&& access) const {
    Runtime& rt = Runtime::world();
    std::shared_ptr<T> obj;
    if (!rt.isDead(owner.id())) obj = atPlace(owner.id());
    if (!obj) throw DeadPlaceException(owner.id());
    const std::uint64_t bytes = std::forward<Access>(access)(*obj);
    if (bytes > 0) rt.chargeComm(owner, bytes);
  }

  /// The object stored at place `p` (nullptr if the place is dead or holds
  /// none), with no liveness check and no cost accounting: for own-place
  /// lookups and uncharged walks only. A charged access uses remote().
  [[nodiscard]] std::shared_ptr<T> atPlace(PlaceId p) const {
    return std::static_pointer_cast<T>(Runtime::world().heapGet(p, key_));
  }

  /// Destroys the per-place objects everywhere (used by remake()).
  void destroy() {
    if (key_ != 0) Runtime::world().heapEraseAll(key_);
    key_ = 0;
    pg_ = PlaceGroup{};
  }

 private:
  std::uint64_t key_ = 0;
  PlaceGroup pg_;
};

}  // namespace rgml::apgas
