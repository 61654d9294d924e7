#include "oracle/csr_matrix.h"

#include <gtest/gtest.h>

namespace {

using namespace midas::linalg;

CsrMatrix small_matrix() {
  // [ 2 0 1 ]
  // [ 0 3 0 ]
  // [ 4 0 5 ]
  return CsrMatrix::from_triplets(
      3, 3, {{0, 0, 2.0}, {0, 2, 1.0}, {1, 1, 3.0}, {2, 0, 4.0}, {2, 2, 5.0}});
}

TEST(CsrMatrix, BasicShapeAndNnz) {
  const auto m = small_matrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 5u);
}

TEST(CsrMatrix, DuplicateTripletsAreSummed) {
  const auto m = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, -1.0}, {1, 1, 1.0}});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(CsrMatrix, OutOfBoundsTripletThrows) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 5, 1.0}}),
               std::out_of_range);
}

TEST(CsrMatrix, MultiplyMatchesHandComputation) {
  const auto m = small_matrix();
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y;
  m.multiply(x, y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1 + 1.0 * 3);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1 + 5.0 * 3);
}

TEST(CsrMatrix, MultiplyTransposeMatchesExplicitTranspose) {
  const auto m = small_matrix();
  const auto mt = m.transposed();
  const std::vector<double> x{0.5, -1.0, 2.0};
  std::vector<double> a, b;
  m.multiply_transpose(x, a);
  mt.multiply(x, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "i=" << i;
  }
}

TEST(CsrMatrix, TransposeOfRectangular) {
  const auto m =
      CsrMatrix::from_triplets(2, 3, {{0, 2, 7.0}, {1, 0, -2.0}});
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 7.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), -2.0);
}

TEST(CsrMatrix, DiagonalExtraction) {
  const auto m = small_matrix();
  const auto d = m.diagonal();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(CsrMatrix, InfNorm) {
  const auto m = small_matrix();
  EXPECT_DOUBLE_EQ(m.inf_norm(), 9.0);  // row 2: |4| + |5|
}

TEST(CsrMatrix, EmptyRowsHandled) {
  const auto m = CsrMatrix::from_triplets(4, 4, {{3, 3, 1.0}});
  const std::vector<double> x{1, 1, 1, 1};
  std::vector<double> y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 1.0);
  EXPECT_EQ(m.row_cols(0).size(), 0u);
  EXPECT_EQ(m.row_cols(3).size(), 1u);
}

TEST(CsrMatrix, AtOnMissingEntryIsZero) {
  const auto m = small_matrix();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

}  // namespace
