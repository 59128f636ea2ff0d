// Unit and property tests for the LU decomposition, solver, inverse
// and determinant.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/lu.h"
#include "linalg_reference.h"
#include "rng/random.h"

namespace crowd::linalg {
namespace {

Matrix RandomMatrix(size_t n, Random* rng, double scale = 1.0) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      m(i, j) = rng->Uniform(-scale, scale);
    }
  }
  return m;
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2, 1}, {1, 3}};
  auto x = SolveLinearSystem(a, {5, 10});
  ASSERT_TRUE(x.ok()) << x.status();
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Lu, InverseOfKnownMatrix) {
  Matrix a{{4, 7}, {2, 6}};
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  Matrix expected{{0.6, -0.7}, {-0.2, 0.4}};
  EXPECT_TRUE(inv->ApproxEquals(expected, 1e-12));
}

TEST(Lu, DeterminantKnownValues) {
  EXPECT_NEAR(*Determinant(Matrix{{3}}), 3.0, 1e-12);
  EXPECT_NEAR(*Determinant(Matrix{{1, 2}, {3, 4}}), -2.0, 1e-12);
  EXPECT_NEAR(*Determinant(Matrix{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}),
              24.0, 1e-12);
  // Permutation sign.
  EXPECT_NEAR(*Determinant(Matrix{{0, 1}, {1, 0}}), -1.0, 1e-12);
}

TEST(Lu, SingularMatrixReported) {
  Matrix singular{{1, 2}, {2, 4}};
  EXPECT_TRUE(Inverse(singular).status().IsNumericalError());
  EXPECT_NEAR(*Determinant(singular), 0.0, 1e-12);
  Matrix zero_row{{0, 0}, {1, 1}};
  EXPECT_FALSE(LuDecomposition::Compute(zero_row).ok());
}

TEST(Lu, NonSquareRejected) {
  EXPECT_TRUE(
      LuDecomposition::Compute(Matrix(2, 3)).status().IsInvalid());
}

TEST(Lu, DimensionMismatchRejected) {
  auto lu = LuDecomposition::Compute(Matrix::Identity(3));
  ASSERT_TRUE(lu.ok());
  EXPECT_TRUE(lu->Solve(Vector{1, 2}).status().IsInvalid());
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  Matrix a{{0, 1}, {1, 0}};
  auto x = SolveLinearSystem(a, {2, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

// Property: A * A^{-1} = I for random well-conditioned matrices.
TEST(LuProperty, InverseRoundTrip) {
  Random rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.UniformInt(8);
    Matrix a = RandomMatrix(n, &rng);
    // Diagonal boost keeps the draw well-conditioned.
    for (size_t i = 0; i < n; ++i) a(i, i) += 3.0;
    auto inv = Inverse(a);
    ASSERT_TRUE(inv.ok()) << inv.status();
    EXPECT_TRUE((a * *inv).ApproxEquals(Matrix::Identity(n), 1e-9));
    EXPECT_TRUE((*inv * a).ApproxEquals(Matrix::Identity(n), 1e-9));
  }
}

// Property: solving against a known product recovers the factor.
TEST(LuProperty, SolveRecoversKnownSolution) {
  Random rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.UniformInt(10);
    Matrix a = RandomMatrix(n, &rng);
    for (size_t i = 0; i < n; ++i) a(i, i) += 4.0;
    Vector x_true(n);
    for (double& v : x_true) v = rng.Uniform(-2, 2);
    Vector b = a * x_true;
    auto x = SolveLinearSystem(a, b);
    ASSERT_TRUE(x.ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
    }
  }
}

// Property: det(AB) = det(A) det(B).
TEST(LuProperty, DeterminantIsMultiplicative) {
  Random rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.UniformInt(5);
    Matrix a = RandomMatrix(n, &rng);
    Matrix b = RandomMatrix(n, &rng);
    double det_ab = *Determinant(a * b);
    double det_a_det_b = *Determinant(a) * *Determinant(b);
    EXPECT_NEAR(det_ab, det_a_det_b,
                1e-9 * std::max(1.0, std::fabs(det_ab)));
  }
}

// Property: matrix solve agrees column-wise with vector solve.
TEST(LuProperty, MatrixSolveMatchesVectorSolve) {
  Random rng(19);
  Matrix a = RandomMatrix(4, &rng);
  for (size_t i = 0; i < 4; ++i) a(i, i) += 3.0;
  Matrix b = RandomMatrix(4, &rng);
  auto lu = LuDecomposition::Compute(a);
  ASSERT_TRUE(lu.ok());
  auto x = lu->Solve(b);
  ASSERT_TRUE(x.ok());
  for (size_t j = 0; j < 4; ++j) {
    auto col = lu->Solve(b.Column(j));
    ASSERT_TRUE(col.ok());
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR((*x)(i, j), (*col)[i], 1e-12);
    }
  }
}

// The substitution kernel against the allocating column-by-column
// solve of tests/linalg_reference.h, on both sides of the inline-storage
// boundary (k <= 4 inline, larger orders on the heap). No diagonal
// boost, so the pivot search swaps rows.
TEST(LuOracle, SolveAndInverseMatchReferenceBitForBit) {
  Random rng(29);
  for (size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 17}) {
    for (int trial = 0; trial < 25; ++trial) {
      Matrix a = RandomMatrix(n, &rng);
      Vector b(n);
      for (double& v : b) v = rng.Uniform(-3, 3);
      Matrix rhs(n, 1 + (static_cast<size_t>(trial) % 5));
      for (size_t i = 0; i < rhs.rows(); ++i) {
        for (size_t j = 0; j < rhs.cols(); ++j) rhs(i, j) = rng.Uniform(-3, 3);
      }
      auto lu = LuDecomposition::Compute(a);
      auto ref = ReferenceLuCompute(a);
      ASSERT_EQ(lu.ok(), ref.ok()) << "n=" << n << " trial " << trial;
      if (!lu.ok()) {
        EXPECT_EQ(lu.status().ToString(), ref.status().ToString());
        continue;
      }
      EXPECT_TRUE(BitEqual(*lu->Solve(b), ReferenceLuSolve(*ref, b)));
      EXPECT_TRUE(BitEqual(*lu->Solve(rhs), ReferenceLuSolve(*ref, rhs)));
      EXPECT_TRUE(BitEqual(*lu->Inverse(), *ReferenceInverse(a)));
      EXPECT_TRUE(BitEqual(*Inverse(a), *ReferenceInverse(a)));
    }
  }
}

TEST(LuOracle, FailureStatusesMatchReference) {
  Matrix singular_pivot{{1, 2}, {2, 4}};
  Matrix zero_row{{0, 0}, {1, 1}};
  // The same two failures above the inline-storage boundary.
  Matrix big_singular(5, 5);
  Matrix big_zero_row(5, 5);
  Random rng(31);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      big_singular(i, j) = rng.Uniform(-1, 1);
      big_zero_row(i, j) = i == 3 ? 0.0 : rng.Uniform(-1, 1);
    }
  }
  for (size_t j = 0; j < 5; ++j) big_singular(4, j) = 2.0 * big_singular(1, j);
  for (const Matrix* a :
       {&singular_pivot, &zero_row, &big_singular, &big_zero_row}) {
    Status got = Inverse(*a).status();
    Status want = ReferenceInverse(*a).status();
    EXPECT_TRUE(got.IsNumericalError()) << got;
    EXPECT_EQ(got.ToString(), want.ToString());
  }
}

}  // namespace
}  // namespace crowd::linalg
