// Tests for the Cholesky decomposition.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "cholesky_reference.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "rng/random.h"
#include "util/cpu.h"

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

// One factor/solve kernel pair; `available` is false when the CPU lacks
// its instructions.
struct Variant {
  const char* name;
  bool available;
  Status (*factor)(const Matrix& a, double pivot_tol, Matrix* lt);
  Vector (*solve)(const Matrix& lt, const Vector& b);
};

std::vector<Variant> Variants() {
  return {
      {"portable", true, cholesky_internal::FactorPortable,
       cholesky_internal::SolvePortable},
      {"avx2", util::CpuHasAvx2(), cholesky_internal::FactorAvx2,
       cholesky_internal::SolveAvx2},
  };
}

// Each factor/solve variant, and the dispatched Compute/Solve, against
// the one-row loops in cholesky_reference.h, to the bit, at every order
// 1..130: every remainder of n mod 16 and mod 4, full blocks of rows
// before and after the pivot column, and the l ~ 98 of perfbench's
// batch_binary.
TEST(CholeskyOracle, EveryVariantMatchesReferenceBitForBit) {
  Random rng(2015);
  for (size_t n = 1; n <= 130; ++n) {
    const Matrix a = RandomSpd(n, &rng);
    Vector b(n);
    for (double& v : b) v = rng.Uniform(-2, 2);
    const auto want_l = ReferenceCholeskyFactor(a);
    ASSERT_TRUE(want_l.has_value()) << "n=" << n;
    const Vector want_x = ReferenceCholeskySolve(*want_l, b);

    auto chol = CholeskyDecomposition::Compute(a);
    ASSERT_TRUE(chol.ok()) << "n=" << n << ": " << chol.status();
    ASSERT_EQ(std::memcmp(chol->L().data(), want_l->data(),
                          n * n * sizeof(double)),
              0)
        << "dispatched n=" << n;
    auto x = chol->Solve(b);
    ASSERT_TRUE(x.ok()) << "n=" << n;
    ASSERT_EQ(std::memcmp(x->data(), want_x.data(), n * sizeof(double)), 0)
        << "dispatched n=" << n;

    const Matrix want_lt = want_l->Transposed();
    for (const Variant& variant : Variants()) {
      if (!variant.available) continue;
      const std::string where =
          std::string(variant.name) + " n=" + std::to_string(n);
      Matrix lt(n, n);
      ASSERT_TRUE(variant.factor(a, 1e-300, &lt).ok()) << where;
      ASSERT_EQ(std::memcmp(lt.data(), want_lt.data(), n * n * sizeof(double)),
                0)
          << where;
      const Vector got_x = variant.solve(want_lt, b);
      ASSERT_EQ(std::memcmp(got_x.data(), want_x.data(), n * sizeof(double)),
                0)
          << where;
    }
  }
}

TEST(CholeskyOracle, EveryVariantFailsAtTheSamePivotWithTheSameMessage) {
  // A negative diagonal entry at c makes pivot c the first one that is
  // not positive: every variant must stop at that column too, with the
  // same pivot value in the message. Orders 5, 8 and 13 fit in one
  // block; 21 and 37 have full blocks below the failing column.
  Random rng(4);
  for (size_t n : {5, 8, 13, 21, 37}) {
    for (size_t c = 0; c < n; ++c) {
      Matrix a = RandomSpd(n, &rng);
      a(c, c) = -1.0;
      EXPECT_FALSE(ReferenceCholeskyFactor(a).has_value());
      auto chol = CholeskyDecomposition::Compute(a);
      ASSERT_TRUE(chol.status().IsNumericalError());
      const std::string message = chol.status().message();
      EXPECT_NE(message.find("column " + std::to_string(c) + ")"),
                std::string::npos)
          << message;
      for (const Variant& variant : Variants()) {
        if (!variant.available) continue;
        Matrix lt(n, n);
        const Status status = variant.factor(a, 1e-300, &lt);
        EXPECT_TRUE(status.IsNumericalError()) << variant.name;
        EXPECT_EQ(status.message(), message) << variant.name;
      }
    }
  }
}

}  // namespace
}  // namespace crowd::linalg
