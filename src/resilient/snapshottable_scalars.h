// SnapshottableScalars: a handful of algorithm scalars (iteration counter,
// residual norms, ...) made checkpointable alongside the GML objects.
//
// The scalars conceptually live on the first place of the group; the
// snapshot stores them there and fans out k-1 further ring-placed copies,
// like any other snapshot value.
#pragma once

#include <vector>

#include "apgas/runtime.h"
#include "resilient/snapshot.h"

namespace rgml::resilient {

class SnapshottableScalars final : public Snapshottable {
 public:
  SnapshottableScalars() = default;
  SnapshottableScalars(std::size_t count, apgas::PlaceGroup pg)
      : values_(count, 0.0), pg_(std::move(pg)) {}

  [[nodiscard]] double& operator[](std::size_t i) { return values_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const { return values_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  void remake(const apgas::PlaceGroup& newPg) { pg_ = newPg; }

  [[nodiscard]] std::shared_ptr<Snapshot> makeSnapshot() const override {
    auto snapshot = std::make_shared<Snapshot>(pg_);
    apgas::Runtime::world().at(pg_(0), [&] {
      snapshot->emplace<ScalarsValue>(0, 0, values_);
    });
    return snapshot;
  }

  void restoreSnapshot(const Snapshot& snapshot) override {
    apgas::Runtime::world().at(pg_(0), [&] {
      auto value =
          std::dynamic_pointer_cast<const ScalarsValue>(snapshot.load(0));
      if (!value || value->scalars().size() != values_.size()) {
        throw apgas::ApgasError(
            "SnapshottableScalars: incompatible snapshot value");
      }
      values_ = value->scalars();
    });
  }

 private:
  std::vector<double> values_;
  apgas::PlaceGroup pg_;
};

}  // namespace rgml::resilient
