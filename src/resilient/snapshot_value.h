// Typed payloads stored in a Snapshot.
//
// makeSnapshot() deep-copies the live data into a value, so later mutation
// of the application state cannot corrupt a checkpoint. The k-way in-memory
// replication (the paper's double storage generalised: a local copy plus
// backups on the next k-1 ring places) is simulated by k owner slots
// sharing one payload; killing a place clears its slot.
//
// A payload is read-only while anything but the AppResilientStore's
// retired slot (the snapshot committed before the current one) can see
// it. It may be written only while the retired slot is its sole owner:
// then Snapshot::emplace refills it through assign() for the next
// checkpoint, so a checkpoint reuses the buffers of the one two back
// instead of allocating (and page-faulting) new ones. assign() takes the
// constructor's arguments and leaves the value as that constructor would;
// copy-assigning the la containers keeps their storage when it is large
// enough.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "la/dense_matrix.h"
#include "la/sparse_csr.h"
#include "la/vector.h"

namespace rgml::resilient {

class SnapshotValue {
 public:
  virtual ~SnapshotValue() = default;
  /// Payload size, charged to the clocks when a copy is saved or loaded.
  [[nodiscard]] virtual std::size_t bytes() const = 0;
};

/// A vector or vector segment. `offset` is the segment's global start
/// index (0 for duplicated vectors), so a repartitioned restore can map
/// new segment ranges onto saved ones.
class VectorValue final : public SnapshotValue {
 public:
  VectorValue(la::Vector data, long offset)
      : data_(std::move(data)), offset_(offset) {}

  void assign(const la::Vector& data, long offset) {
    data_ = data;
    offset_ = offset;
  }

  [[nodiscard]] const la::Vector& data() const noexcept { return data_; }
  [[nodiscard]] long offset() const noexcept { return offset_; }
  [[nodiscard]] long size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t bytes() const override { return data_.bytes(); }

 private:
  la::Vector data_;
  long offset_;
};

/// A dense matrix block with its grid coordinates and global offsets.
class DenseBlockValue final : public SnapshotValue {
 public:
  DenseBlockValue(la::DenseMatrix data, long rb, long cb, long rowOffset,
                  long colOffset)
      : data_(std::move(data)),
        rb_(rb),
        cb_(cb),
        rowOffset_(rowOffset),
        colOffset_(colOffset) {}

  void assign(const la::DenseMatrix& data, long rb, long cb, long rowOffset,
              long colOffset) {
    data_ = data;
    rb_ = rb;
    cb_ = cb;
    rowOffset_ = rowOffset;
    colOffset_ = colOffset;
  }

  [[nodiscard]] const la::DenseMatrix& data() const noexcept { return data_; }
  [[nodiscard]] long blockRow() const noexcept { return rb_; }
  [[nodiscard]] long blockCol() const noexcept { return cb_; }
  [[nodiscard]] long rowOffset() const noexcept { return rowOffset_; }
  [[nodiscard]] long colOffset() const noexcept { return colOffset_; }
  [[nodiscard]] std::size_t bytes() const override { return data_.bytes(); }

 private:
  la::DenseMatrix data_;
  long rb_, cb_, rowOffset_, colOffset_;
};

/// A sparse matrix block (CSR) with grid coordinates and global offsets.
class SparseBlockValue final : public SnapshotValue {
 public:
  SparseBlockValue(la::SparseCSR data, long rb, long cb, long rowOffset,
                   long colOffset)
      : data_(std::move(data)),
        rb_(rb),
        cb_(cb),
        rowOffset_(rowOffset),
        colOffset_(colOffset) {}

  void assign(const la::SparseCSR& data, long rb, long cb, long rowOffset,
              long colOffset) {
    data_ = data;
    rb_ = rb;
    cb_ = cb;
    rowOffset_ = rowOffset;
    colOffset_ = colOffset;
  }

  [[nodiscard]] const la::SparseCSR& data() const noexcept { return data_; }
  [[nodiscard]] long blockRow() const noexcept { return rb_; }
  [[nodiscard]] long blockCol() const noexcept { return cb_; }
  [[nodiscard]] long rowOffset() const noexcept { return rowOffset_; }
  [[nodiscard]] long colOffset() const noexcept { return colOffset_; }
  [[nodiscard]] std::size_t bytes() const override { return data_.bytes(); }

 private:
  la::SparseCSR data_;
  long rb_, cb_, rowOffset_, colOffset_;
};

/// Small scalar metadata (e.g. an application's iteration-local scalars).
class ScalarsValue final : public SnapshotValue {
 public:
  explicit ScalarsValue(std::vector<double> scalars)
      : scalars_(std::move(scalars)) {}

  void assign(const std::vector<double>& scalars) { scalars_ = scalars; }

  [[nodiscard]] const std::vector<double>& scalars() const noexcept {
    return scalars_;
  }
  [[nodiscard]] std::size_t bytes() const override {
    return scalars_.size() * sizeof(double);
  }

 private:
  std::vector<double> scalars_;
};

}  // namespace rgml::resilient
