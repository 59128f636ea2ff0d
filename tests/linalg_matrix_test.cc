// Unit tests for the dense Matrix/Vector types.

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/matrix_functions.h"

namespace crowd::linalg {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.IsSquare());
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -4.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_TRUE(m.IsSquare());
  EXPECT_DOUBLE_EQ(m(0, 1), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

TEST(Matrix, IdentityAndDiagonal) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  Matrix d = Matrix::Diagonal({2, 3});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, TransposedAndRowsColumns) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
  EXPECT_EQ(m.Row(1), (Vector{4, 5, 6}));
  EXPECT_EQ(m.Column(2), (Vector{3, 6}));
}

TEST(Matrix, SwapRowsAndColumns) {
  Matrix m{{1, 2}, {3, 4}};
  m.SwapRows(0, 1);
  EXPECT_DOUBLE_EQ(m(0, 0), 3);
  m.SwapColumns(0, 1);
  EXPECT_DOUBLE_EQ(m(0, 0), 4);
}

TEST(Matrix, Arithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 12);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 4);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6);
}

TEST(Matrix, Product) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
  // Identity is neutral.
  EXPECT_TRUE((a * Matrix::Identity(2)).ApproxEquals(a));
  EXPECT_TRUE((Matrix::Identity(2) * a).ApproxEquals(a));
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Vector y = a * Vector{1, 1};
  EXPECT_DOUBLE_EQ(y[0], 3);
  EXPECT_DOUBLE_EQ(y[1], 7);
}

TEST(Matrix, NormsAndComparison) {
  Matrix a{{3, 4}, {0, 0}};
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
  Matrix b = a;
  b(0, 0) += 1e-12;
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-15));
  EXPECT_NEAR(a.MaxAbsDiff(b), 1e-12, 1e-15);
}

TEST(Matrix, Symmetry) {
  Matrix sym{{1, 2}, {2, 5}};
  EXPECT_TRUE(sym.IsSymmetric());
  Matrix asym{{1, 2}, {3, 5}};
  EXPECT_FALSE(asym.IsSymmetric());
  EXPECT_FALSE(Matrix(2, 3).IsSymmetric());
}

// Fills rows x cols with distinct entries starting at `first`.
Matrix Numbered(size_t rows, size_t cols, double first) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = first + static_cast<double>(i * cols + j);
    }
  }
  return m;
}

void ExpectNumbered(const Matrix& m, size_t rows, size_t cols,
                    double first) {
  ASSERT_EQ(m.rows(), rows);
  ASSERT_EQ(m.cols(), cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    EXPECT_EQ(m.data()[i], first + static_cast<double>(i)) << i;
  }
}

// 4x4 (16 entries) is the largest inline matrix; 4x5 is on the heap.
TEST(MatrixStorage, CopyAcrossTheInlineBoundary) {
  for (size_t cols : {4, 5}) {
    const Matrix original = Numbered(4, cols, 1.0);
    Matrix copy(original);
    ExpectNumbered(copy, 4, cols, 1.0);
    copy(0, 0) = -1.0;  // The copy owns its entries.
    EXPECT_EQ(original(0, 0), 1.0);
    EXPECT_NE(copy.data(), original.data());
    Matrix assigned;
    assigned = original;
    ExpectNumbered(assigned, 4, cols, 1.0);
  }
}

TEST(MatrixStorage, MoveAcrossTheInlineBoundaryLeavesZeroByZero) {
  for (size_t cols : {4, 5}) {
    Matrix source = Numbered(4, cols, 1.0);
    Matrix moved(std::move(source));
    ExpectNumbered(moved, 4, cols, 1.0);
    EXPECT_EQ(source.rows(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.cols(), 0u);
    EXPECT_TRUE(source.empty());

    Matrix target = Numbered(2, 2, 50.0);
    target = std::move(moved);
    ExpectNumbered(target, 4, cols, 1.0);
    EXPECT_EQ(moved.rows(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.cols(), 0u);
    // A moved-from matrix is usable again.
    moved = Numbered(3, 3, 7.0);
    ExpectNumbered(moved, 3, 3, 7.0);
  }
}

TEST(MatrixStorage, HeapBufferMovesWithoutCopying) {
  Matrix source = Numbered(4, 5, 1.0);
  const double* entries = source.data();
  Matrix moved(std::move(source));
  EXPECT_EQ(moved.data(), entries);
}

TEST(MatrixStorage, SelfAssignment) {
  for (size_t cols : {4, 5}) {
    Matrix m = Numbered(4, cols, 1.0);
    Matrix& alias = m;
    m = alias;
    ExpectNumbered(m, 4, cols, 1.0);
    m = std::move(alias);
    ExpectNumbered(m, 4, cols, 1.0);
  }
}

TEST(MatrixStorage, ReassignBetweenHeapAndInline) {
  Matrix m = Numbered(4, 5, 1.0);  // Heap.
  m = Numbered(2, 3, 10.0);        // Heap -> inline, by move.
  ExpectNumbered(m, 2, 3, 10.0);
  const Matrix big = Numbered(5, 5, 20.0);
  m = big;  // Inline -> heap, by copy.
  ExpectNumbered(m, 5, 5, 20.0);
  const Matrix small = Numbered(4, 4, 30.0);
  m = small;  // Heap -> inline, by copy.
  ExpectNumbered(m, 4, 4, 30.0);
  m = Numbered(6, 3, 40.0);  // Inline -> heap, by move.
  ExpectNumbered(m, 6, 3, 40.0);
  m = Numbered(3, 6, 50.0);  // Heap -> heap of the same length.
  ExpectNumbered(m, 3, 6, 50.0);
  m = big;  // Heap -> heap of another length.
  ExpectNumbered(m, 5, 5, 20.0);
}

TEST(VectorOps, DotNormL1) {
  Vector a = {1, 2, 2};
  Vector b = {2, 0, 1};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(Norm(a), 3.0);
  EXPECT_DOUBLE_EQ(L1Norm({-1, 2, -3}), 6.0);
}

TEST(VectorOps, Normalize) {
  Vector v = {3, 4};
  EXPECT_TRUE(Normalize(&v));
  EXPECT_DOUBLE_EQ(v[0], 0.6);
  EXPECT_DOUBLE_EQ(v[1], 0.8);
  Vector zero = {0, 0};
  EXPECT_FALSE(Normalize(&zero));
}

TEST(MatrixFunctions, RowSumsAndNormalization) {
  Matrix m{{2, 2}, {1, 3}};
  Vector sums = RowSums(m);
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  ASSERT_TRUE(NormalizeRowsToSumOne(&m).ok());
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.75);

  Matrix zero_row{{0, 0}, {1, 1}};
  EXPECT_TRUE(NormalizeRowsToSumOne(&zero_row).IsNumericalError());
}

TEST(MatrixFunctions, ClampEntries) {
  Matrix m{{-1, 0.5}, {2, 0.7}};
  ClampEntries(&m, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.7);
}

}  // namespace
}  // namespace crowd::linalg
