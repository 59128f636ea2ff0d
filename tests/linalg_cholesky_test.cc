// Tests for the Cholesky decomposition.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "cholesky_reference.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "rng/random.h"

namespace crowd::linalg {
namespace {

Matrix RandomSpd(size_t n, Random* rng) {
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = rng->Uniform(-1, 1);
  }
  Matrix a = b * b.Transposed();
  for (size_t i = 0; i < n; ++i) a(i, i) += 0.5;
  return a;
}

TEST(Cholesky, KnownFactorization) {
  // A = [[4, 2], [2, 5]] has L = [[2, 0], [1, 2]].
  auto chol = CholeskyDecomposition::Compute(Matrix{{4, 2}, {2, 5}});
  ASSERT_TRUE(chol.ok()) << chol.status();
  EXPECT_NEAR(chol->L()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol->L()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol->L()(1, 1), 2.0, 1e-12);
  EXPECT_NEAR(chol->L()(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(chol->Determinant(), 16.0, 1e-10);
}

TEST(Cholesky, RejectsInvalidInputs) {
  EXPECT_TRUE(CholeskyDecomposition::Compute(Matrix(2, 3)).status()
                  .IsInvalid());
  EXPECT_TRUE(
      CholeskyDecomposition::Compute(Matrix{{1, 2}, {0, 1}}).status()
          .IsInvalid());
  // Symmetric but indefinite.
  EXPECT_TRUE(
      CholeskyDecomposition::Compute(Matrix{{1, 2}, {2, 1}}).status()
          .IsNumericalError());
  EXPECT_FALSE(IsPositiveDefinite(Matrix{{-1}}));
  EXPECT_TRUE(IsPositiveDefinite(Matrix{{2, 0}, {0, 3}}));
}

TEST(CholeskyProperty, FactorReconstructsAndSolves) {
  Random rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 1 + rng.UniformInt(8);
    Matrix a = RandomSpd(n, &rng);
    auto chol = CholeskyDecomposition::Compute(a);
    ASSERT_TRUE(chol.ok()) << chol.status();
    EXPECT_TRUE((chol->L() * chol->L().Transposed()).ApproxEquals(a, 1e-9));

    Vector x_true(n);
    for (double& v : x_true) v = rng.Uniform(-2, 2);
    Vector b = a * x_true;
    auto x = chol->Solve(b);
    ASSERT_TRUE(x.ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
    }
  }
}

TEST(CholeskyProperty, AgreesWithLu) {
  Random rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 2 + rng.UniformInt(6);
    Matrix a = RandomSpd(n, &rng);
    auto chol_inverse = CholeskyDecomposition::Compute(a)->Inverse();
    auto lu_inverse = Inverse(a);
    ASSERT_TRUE(chol_inverse.ok());
    ASSERT_TRUE(lu_inverse.ok());
    EXPECT_TRUE(chol_inverse->ApproxEquals(*lu_inverse, 1e-8));
    EXPECT_NEAR(CholeskyDecomposition::Compute(a)->Determinant(),
                *Determinant(a),
                1e-8 * std::fabs(*Determinant(a)) + 1e-12);
  }
}

// The four-row blocked factor and forward solve against the one-row
// loops they replaced (cholesky_reference.h), to the bit, at every size
// 1..130: every remainder of n mod 4, blocks of rows before and after
// the pivot column, and the l ~ 98 of perfbench's batch_binary.
TEST(CholeskyOracle, BlockedFactorAndSolveMatchReferenceBitForBit) {
  Random rng(2015);
  for (size_t n = 1; n <= 130; ++n) {
    const std::string where = "n=" + std::to_string(n);
    const Matrix a = RandomSpd(n, &rng);
    auto chol = CholeskyDecomposition::Compute(a);
    ASSERT_TRUE(chol.ok()) << where << ": " << chol.status();
    const auto want_l = ReferenceCholeskyFactor(a);
    ASSERT_TRUE(want_l.has_value()) << where;
    ASSERT_EQ(std::memcmp(chol->L().data(), want_l->data(),
                          n * n * sizeof(double)),
              0)
        << where;

    Vector b(n);
    for (double& v : b) v = rng.Uniform(-2, 2);
    auto x = chol->Solve(b);
    ASSERT_TRUE(x.ok()) << where;
    const Vector want_x = ReferenceCholeskySolve(*want_l, b);
    ASSERT_EQ(std::memcmp(x->data(), want_x.data(), n * sizeof(double)), 0)
        << where;
  }
}

TEST(CholeskyOracle, FailsAtTheSamePivotAsReference) {
  // A negative diagonal entry at c makes pivot c the first one that is
  // not positive: the blocked loops must stop at that column too.
  Random rng(4);
  for (size_t n : {5, 8, 13}) {
    for (size_t c = 0; c < n; ++c) {
      Matrix a = RandomSpd(n, &rng);
      a(c, c) = -1.0;
      EXPECT_FALSE(ReferenceCholeskyFactor(a).has_value());
      auto chol = CholeskyDecomposition::Compute(a);
      ASSERT_TRUE(chol.status().IsNumericalError());
      EXPECT_NE(chol.status().message().find(
                    "column " + std::to_string(c) + ")"),
                std::string::npos)
          << chol.status();
    }
  }
}

}  // namespace
}  // namespace crowd::linalg
