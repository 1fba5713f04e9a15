// Tests for the serialisation layer: binary round-trips (all la types and
// all SnapshotValue subtypes), corruption detection, and the text formats
// (MatrixMarket, CSV).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "la/rand.h"
#include "resilient/restore_overlap.h"
#include "resilient/value_serde.h"
#include "serialize/binary_io.h"
#include "serialize/matrix_io.h"

namespace rgml::serialize {
namespace {

TEST(BinaryIoTest, VectorRoundTrip) {
  la::Vector v = la::makeUniformVector(37, 1);
  std::stringstream buffer;
  write(buffer, v);
  EXPECT_EQ(buffer.str().size(), serializedBytes(v));
  EXPECT_EQ(readVector(buffer), v);
}

TEST(BinaryIoTest, EmptyVectorRoundTrip) {
  la::Vector v(0);
  std::stringstream buffer;
  write(buffer, v);
  EXPECT_EQ(readVector(buffer).size(), 0);
}

TEST(BinaryIoTest, DenseMatrixRoundTrip) {
  la::DenseMatrix m = la::makeUniformDense(11, 7, 2);
  std::stringstream buffer;
  write(buffer, m);
  EXPECT_EQ(buffer.str().size(), serializedBytes(m));
  EXPECT_EQ(readDenseMatrix(buffer), m);
}

TEST(BinaryIoTest, SparseRoundTrip) {
  la::SparseCSR m = la::makeUniformSparse(23, 31, 4, 3);
  std::stringstream buffer;
  write(buffer, m);
  EXPECT_EQ(buffer.str().size(), serializedBytes(m));
  EXPECT_EQ(readSparseCSR(buffer), m);
}

TEST(BinaryIoTest, SequentialValuesInOneStream) {
  la::Vector v = la::makeUniformVector(5, 4);
  la::SparseCSR s = la::makeUniformSparse(6, 6, 2, 5);
  std::stringstream buffer;
  write(buffer, v);
  write(buffer, s);
  EXPECT_EQ(peekTag(buffer), 1u);
  EXPECT_EQ(readVector(buffer), v);
  EXPECT_EQ(peekTag(buffer), 3u);
  EXPECT_EQ(readSparseCSR(buffer), s);
}

TEST(BinaryIoTest, WrongTagDetected) {
  la::Vector v = la::makeUniformVector(5, 6);
  std::stringstream buffer;
  write(buffer, v);
  EXPECT_THROW(static_cast<void>(readDenseMatrix(buffer)), SerializeError);
}

TEST(BinaryIoTest, TruncationDetected) {
  la::DenseMatrix m = la::makeUniformDense(10, 10, 7);
  std::stringstream buffer;
  write(buffer, m);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(static_cast<void>(readDenseMatrix(truncated)),
               SerializeError);
}

TEST(BinaryIoTest, CorruptSparseStructureDetected) {
  la::SparseCSR m = la::makeUniformSparse(4, 4, 2, 8);
  std::stringstream buffer;
  write(buffer, m);
  std::string bytes = buffer.str();
  // Corrupt a column index deep in the payload to an out-of-range value.
  const std::size_t colIdxStart = sizeof(std::uint32_t) +
                                  3 * sizeof(std::int64_t) +
                                  (4 + 1) * sizeof(long);
  long bad = 1000;
  std::memcpy(bytes.data() + colIdxStart, &bad, sizeof(bad));
  std::stringstream corrupted(bytes);
  EXPECT_THROW(static_cast<void>(readSparseCSR(corrupted)), SerializeError);
}

// ---- SnapshotValue serde ----------------------------------------------------

TEST(ValueSerdeTest, VectorValueRoundTrip) {
  resilient::VectorValue value(la::makeUniformVector(9, 10), 42);
  std::stringstream buffer;
  resilient::writeSnapshotValue(buffer, value);
  auto back = std::dynamic_pointer_cast<const resilient::VectorValue>(
      resilient::readSnapshotValue(buffer));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->offset(), 42);
  EXPECT_EQ(back->data(), value.data());
}

TEST(ValueSerdeTest, DenseBlockRoundTrip) {
  resilient::DenseBlockValue value(la::makeUniformDense(5, 4, 11), 2, 3, 10,
                                   12);
  std::stringstream buffer;
  resilient::writeSnapshotValue(buffer, value);
  auto back = std::dynamic_pointer_cast<const resilient::DenseBlockValue>(
      resilient::readSnapshotValue(buffer));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->blockRow(), 2);
  EXPECT_EQ(back->blockCol(), 3);
  EXPECT_EQ(back->rowOffset(), 10);
  EXPECT_EQ(back->colOffset(), 12);
  EXPECT_EQ(back->data(), value.data());
}

TEST(ValueSerdeTest, SparseBlockRoundTrip) {
  resilient::SparseBlockValue value(la::makeUniformSparse(8, 8, 2, 12), 1, 0,
                                    8, 0);
  std::stringstream buffer;
  resilient::writeSnapshotValue(buffer, value);
  auto back = std::dynamic_pointer_cast<const resilient::SparseBlockValue>(
      resilient::readSnapshotValue(buffer));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->blockRow(), 1);
  EXPECT_EQ(back->data(), value.data());
}

TEST(ValueSerdeTest, ScalarsAndGridMetaRoundTrip) {
  resilient::ScalarsValue scalars({1.5, -2.5, 3.25});
  std::stringstream b1;
  resilient::writeSnapshotValue(b1, scalars);
  auto backScalars = std::dynamic_pointer_cast<const resilient::ScalarsValue>(
      resilient::readSnapshotValue(b1));
  ASSERT_NE(backScalars, nullptr);
  EXPECT_EQ(backScalars->scalars(), scalars.scalars());

  resilient::GridMetaValue grid(la::Grid(100, 50, 8, 2));
  std::stringstream b2;
  resilient::writeSnapshotValue(b2, grid);
  auto backGrid = std::dynamic_pointer_cast<const resilient::GridMetaValue>(
      resilient::readSnapshotValue(b2));
  ASSERT_NE(backGrid, nullptr);
  EXPECT_TRUE(backGrid->grid() == grid.grid());
}

// ---- text formats ------------------------------------------------------------

TEST(MatrixMarketTest, RoundTrip) {
  la::SparseCSR m = la::makeUniformSparse(12, 9, 3, 13);
  std::stringstream buffer;
  writeMatrixMarket(buffer, m);
  EXPECT_EQ(readMatrixMarket(buffer), m);
}

TEST(MatrixMarketTest, AcceptsCommentsAndUnsortedEntries) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 3\n"
      "3 1 30\n"
      "1 1 10\n"
      "2 2 20\n");
  la::SparseCSR m = readMatrixMarket(in);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.at(0, 0), 10.0);
  EXPECT_EQ(m.at(1, 1), 20.0);
  EXPECT_EQ(m.at(2, 0), 30.0);
}

TEST(MatrixMarketTest, RejectsMalformedInput) {
  std::stringstream noHeader("3 3 1\n1 1 5\n");
  EXPECT_THROW(static_cast<void>(readMatrixMarket(noHeader)),
               SerializeError);
  std::stringstream outOfRange(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 5\n");
  EXPECT_THROW(static_cast<void>(readMatrixMarket(outOfRange)),
               SerializeError);
  std::stringstream duplicate(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
      "1 1 5\n1 1 6\n");
  EXPECT_THROW(static_cast<void>(readMatrixMarket(duplicate)),
               SerializeError);
}

TEST(CsvTest, RoundTrip) {
  la::DenseMatrix m = la::makeUniformDense(6, 4, 14);
  m(2, 1) = 1e-310;  // subnormal
  m(5, 3) = -std::numeric_limits<double>::denorm_min();
  std::stringstream buffer;
  writeCsv(buffer, m);
  EXPECT_EQ(readCsv(buffer), m);
}

TEST(CsvTest, RejectsRaggedRows) {
  std::stringstream in("1,2,3\n4,5\n");
  EXPECT_THROW(static_cast<void>(readCsv(in)), SerializeError);
}

TEST(CsvTest, RejectsNonNumericCells) {
  std::stringstream in("1,two,3\n");
  EXPECT_THROW(static_cast<void>(readCsv(in)), SerializeError);
  std::stringstream overflow("1,1e999,3\n");
  EXPECT_THROW(static_cast<void>(readCsv(overflow)), SerializeError);
}

}  // namespace
}  // namespace rgml::serialize
