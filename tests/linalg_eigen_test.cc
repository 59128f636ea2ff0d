// Tests for the eigensolvers: Jacobi (symmetric), Hessenberg
// reduction, Francis QR eigenvalues, general real eigendecomposition
// and the matrix square roots built on them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "linalg/eigen.h"
#include "linalg/francis_qr.h"
#include "linalg/hessenberg.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/lu.h"
#include "linalg/matrix_functions.h"
#include "linalg_reference.h"
#include "rng/random.h"

namespace crowd::linalg {
namespace {

Matrix RandomSymmetric(size_t n, Random* rng) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      m(i, j) = m(j, i) = rng->Uniform(-1, 1);
    }
  }
  return m;
}

TEST(Jacobi, DiagonalMatrixIsItsOwnSpectrum) {
  auto eig = JacobiEigen(Matrix::Diagonal({3, 1, 2}));
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3, 1e-12);
  EXPECT_NEAR(eig->values[1], 2, 1e-12);
  EXPECT_NEAR(eig->values[2], 1, 1e-12);
}

TEST(Jacobi, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  auto eig = JacobiEigen(Matrix{{2, 1}, {1, 2}});
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-12);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig->vectors(0, 0)), std::sqrt(0.5), 1e-10);
}

TEST(Jacobi, RejectsAsymmetric) {
  EXPECT_TRUE(JacobiEigen(Matrix{{1, 2}, {0, 1}}).status().IsInvalid());
  EXPECT_TRUE(JacobiEigen(Matrix(2, 3)).status().IsInvalid());
}

// Property: V D V^T reconstructs A; V is orthogonal.
TEST(JacobiProperty, Reconstruction) {
  Random rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 2 + rng.UniformInt(7);
    Matrix a = RandomSymmetric(n, &rng);
    auto eig = JacobiEigen(a);
    ASSERT_TRUE(eig.ok());
    Matrix reconstructed = eig->vectors * Matrix::Diagonal(eig->values) *
                           eig->vectors.Transposed();
    EXPECT_TRUE(reconstructed.ApproxEquals(a, 1e-9));
    EXPECT_TRUE((eig->vectors * eig->vectors.Transposed())
                    .ApproxEquals(Matrix::Identity(n), 1e-9));
    // Sorted descending.
    EXPECT_TRUE(std::is_sorted(eig->values.rbegin(), eig->values.rend()));
  }
}

TEST(Hessenberg, ShapeAndSimilarity) {
  Random rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 2 + rng.UniformInt(7);
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) a(i, j) = rng.Uniform(-1, 1);
    }
    auto hess = ReduceToHessenberg(a);
    ASSERT_TRUE(hess.ok());
    EXPECT_TRUE(IsUpperHessenberg(*hess, 1e-10));
    // The production kernel forms no Q; the reference pair, whose H
    // EigenOracle ties to it bit for bit, has Q orthogonal and
    // A = Q H Q^T.
    auto [h, q] = ReferenceReduceToHessenberg(a);
    EXPECT_TRUE(IsUpperHessenberg(h, 1e-10));
    EXPECT_TRUE(
        (q * q.Transposed()).ApproxEquals(Matrix::Identity(n), 1e-9));
    Matrix back = q * h * q.Transposed();
    EXPECT_TRUE(back.ApproxEquals(a, 1e-9));
  }
}

TEST(FrancisQr, KnownEigenvalues) {
  // Companion-style matrix with eigenvalues 1, 2, 3.
  Matrix a{{6, -11, 6}, {1, 0, 0}, {0, 1, 0}};
  auto values = GeneralEigenvalues(a);
  ASSERT_TRUE(values.ok()) << values.status();
  std::vector<double> reals;
  for (auto v : *values) {
    EXPECT_NEAR(v.imag(), 0.0, 1e-8);
    reals.push_back(v.real());
  }
  std::sort(reals.begin(), reals.end());
  EXPECT_NEAR(reals[0], 1.0, 1e-8);
  EXPECT_NEAR(reals[1], 2.0, 1e-8);
  EXPECT_NEAR(reals[2], 3.0, 1e-8);
}

TEST(FrancisQr, ComplexPairDetected) {
  // Rotation by 90 degrees: eigenvalues +-i.
  Matrix rotation{{0, -1}, {1, 0}};
  auto values = GeneralEigenvalues(rotation);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR(std::abs((*values)[0].imag()), 1.0, 1e-10);
  EXPECT_NEAR((*values)[0].real(), 0.0, 1e-10);
}

// Property: eigenvalue sums/products match trace/determinant.
TEST(FrancisQrProperty, TraceAndDeterminant) {
  Random rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 2 + rng.UniformInt(6);
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) a(i, j) = rng.Uniform(-1, 1);
    }
    auto values = GeneralEigenvalues(a);
    ASSERT_TRUE(values.ok());
    std::complex<double> sum = 0.0, product = 1.0;
    for (auto v : *values) {
      sum += v;
      product *= v;
    }
    double trace = 0.0;
    for (size_t i = 0; i < n; ++i) trace += a(i, i);
    EXPECT_NEAR(sum.real(), trace, 1e-7);
    EXPECT_NEAR(sum.imag(), 0.0, 1e-7);
    EXPECT_NEAR(product.real(), *Determinant(a), 1e-6);
  }
}

// max_i ||A v_i - lambda_i v_i|| over the eigenpairs.
double MaxResidual(const Matrix& a, const EigenDecomposition& eig) {
  double worst = 0.0;
  for (size_t idx = 0; idx < eig.values.size(); ++idx) {
    const Vector v = eig.vectors.Column(idx);
    const Vector av = a * v;
    double sum = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
      const double diff = av[i] - eig.values[idx] * v[i];
      sum += diff * diff;
    }
    worst = std::max(worst, std::sqrt(sum));
  }
  return worst;
}

TEST(EigenGeneral, RecoversPlantedDecomposition) {
  // A = E D E^{-1} with known distinct spectrum.
  Matrix e{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}};
  Matrix d = Matrix::Diagonal({5, 2, 1});
  Matrix a = e * d * *Inverse(e);
  auto eig = EigenGeneralReal(a);
  ASSERT_TRUE(eig.ok()) << eig.status();
  EXPECT_NEAR(eig->values[0], 5, 1e-8);
  EXPECT_NEAR(eig->values[1], 2, 1e-8);
  EXPECT_NEAR(eig->values[2], 1, 1e-8);
  EXPECT_LT(MaxResidual(a, *eig), 1e-8);
  // Reconstruction through the (non-orthogonal) eigenvectors.
  Matrix back =
      eig->vectors * Matrix::Diagonal(eig->values) * *Inverse(eig->vectors);
  EXPECT_TRUE(back.ApproxEquals(a, 1e-7));
}

// Stress: a 30x30 matrix with a planted well-separated real spectrum.
TEST(EigenGeneral, LargePlantedSpectrumStress) {
  Random rng(41);
  const size_t n = 30;
  Matrix basis(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) basis(i, j) = rng.Uniform(-1, 1);
    basis(i, i) += 4.0;  // Keep the basis well-conditioned.
  }
  Vector spectrum(n);
  for (size_t i = 0; i < n; ++i) {
    spectrum[i] = static_cast<double>(n - i);  // 30, 29, ..., 1.
  }
  Matrix a = basis * Matrix::Diagonal(spectrum) * *Inverse(basis);
  auto eig = EigenGeneralReal(a);
  ASSERT_TRUE(eig.ok()) << eig.status();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(eig->values[i], spectrum[i], 1e-6) << i;
  }
  EXPECT_LT(MaxResidual(a, *eig), 1e-5);
}

TEST(EigenGeneral, RejectsComplexSpectrum) {
  Matrix rotation{{0, -1}, {1, 0}};
  EXPECT_TRUE(EigenGeneralReal(rotation).status().IsNumericalError());
}

// Property: similar-to-PSD matrices (the k-ary method's case) round-
// trip through PrincipalSqrt: S*S ~= A.
TEST(SqrtProperty, PrincipalSqrtSquares) {
  Random rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 2 + rng.UniformInt(4);
    // Build A = B^T diag(positive) B with invertible B: real positive
    // spectrum, not symmetric in general.
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) b(i, j) = rng.Uniform(-1, 1);
      b(i, i) += 2.5;
    }
    Vector diag(n);
    for (double& v : diag) v = rng.Uniform(0.2, 3.0);
    Matrix a = *Inverse(b) * Matrix::Diagonal(diag) * b;
    auto sqrt = PrincipalSqrt(a);
    ASSERT_TRUE(sqrt.ok()) << sqrt.status();
    EXPECT_TRUE((*sqrt * *sqrt).ApproxEquals(a, 1e-6))
        << "trial " << trial;
  }
}

TEST(Sqrt, SymmetricSqrtSquares) {
  Random rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 2 + rng.UniformInt(5);
    Matrix b = RandomSymmetric(n, &rng);
    Matrix a = b * b;  // Symmetric PSD.
    auto sqrt = SymmetricSqrt(a);
    ASSERT_TRUE(sqrt.ok());
    EXPECT_TRUE((*sqrt * *sqrt).ApproxEquals(a, 1e-8));
  }
}

TEST(Sqrt, StronglyNegativeSpectrumRejected) {
  EXPECT_TRUE(
      PrincipalSqrt(Matrix::Diagonal({1.0, -0.9})).status()
          .IsNumericalError());
  // Mildly negative eigenvalues are clamped, not fatal.
  auto clamped = PrincipalSqrt(Matrix::Diagonal({1.0, -1e-12}));
  EXPECT_TRUE(clamped.ok());
}

// B^{-1} diag(d) B with d drawn from [0.2, 3): a real, positive,
// (almost surely) simple spectrum, as the spectral k-ary method sees.
Matrix PlantedRealSpectrum(size_t n, Random* rng) {
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = rng->Uniform(-1, 1);
    b(i, i) += 2.5;
  }
  Vector diag(n);
  for (double& v : diag) v = rng->Uniform(0.2, 3.0);
  return *Inverse(b) * Matrix::Diagonal(diag) * b;
}

Matrix RandomGeneral(size_t n, Random* rng) {
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng->Uniform(-1, 1);
  }
  return a;
}

// The in-place kernels against the allocating ones kept in
// tests/linalg_reference.h, on both sides of the inline-storage
// boundary (k <= 4 inline, larger orders on the heap).
TEST(EigenOracle, HessenbergMatchesReferenceBitForBit) {
  Random rng(43);
  for (size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 17}) {
    for (int trial = 0; trial < 10; ++trial) {
      Matrix a = RandomGeneral(n, &rng);
      auto hess = ReduceToHessenberg(a);
      ASSERT_TRUE(hess.ok());
      EXPECT_TRUE(
          BitEqual(*hess, ReferenceReduceToHessenberg(a).first));
    }
  }
}

TEST(EigenOracle, EigenAndSqrtMatchReferenceBitForBit) {
  Random rng(47);
  int failures = 0;
  for (size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 17}) {
    int successes = 0;
    for (int trial = 0; trial < 10; ++trial) {
      // Planted real spectra take the success path; unstructured draws
      // mostly have complex pairs and take the failure path.
      const Matrix a = trial % 2 == 0 ? PlantedRealSpectrum(n, &rng)
                                      : RandomGeneral(n, &rng);
      auto eig = EigenGeneralReal(a);
      auto ref = ReferenceEigenGeneralReal(a);
      ASSERT_EQ(eig.ok(), ref.ok()) << "n=" << n << " trial " << trial;
      if (eig.ok()) {
        ++successes;
        EXPECT_TRUE(BitEqual(eig->values, ref->values));
        EXPECT_TRUE(BitEqual(eig->vectors, ref->vectors));
      } else {
        ++failures;
        EXPECT_EQ(eig.status().ToString(), ref.status().ToString());
      }
      auto sqrt = PrincipalSqrt(a);
      auto ref_sqrt = ReferencePrincipalSqrt(a);
      ASSERT_EQ(sqrt.ok(), ref_sqrt.ok()) << "n=" << n << " trial " << trial;
      if (sqrt.ok()) {
        EXPECT_TRUE(BitEqual(*sqrt, *ref_sqrt));
      } else {
        EXPECT_EQ(sqrt.status().ToString(), ref_sqrt.status().ToString());
      }
    }
    EXPECT_GT(successes, 0) << "n=" << n;
  }
  EXPECT_GT(failures, 0);
}

TEST(EigenOracle, FailureStatusesMatchReference) {
  // A complex pair, inline and on the heap.
  Matrix rotation{{0, -1}, {1, 0}};
  Matrix big_rotation = Matrix::Identity(5);
  big_rotation(0, 0) = big_rotation(1, 1) = 0.0;
  big_rotation(0, 1) = -1.0;
  big_rotation(1, 0) = 1.0;
  for (const Matrix* a : {&rotation, &big_rotation}) {
    Status got = EigenGeneralReal(*a).status();
    EXPECT_TRUE(got.IsNumericalError()) << got;
    EXPECT_EQ(got.ToString(),
              ReferenceEigenGeneralReal(*a).status().ToString());
  }
  // A spectrum too negative for a square root.
  Matrix negative = Matrix::Diagonal({1.0, -0.9});
  Status got = PrincipalSqrt(negative).status();
  EXPECT_TRUE(got.IsNumericalError()) << got;
  EXPECT_EQ(got.ToString(), ReferencePrincipalSqrt(negative).status().ToString());
}

}  // namespace
}  // namespace crowd::linalg
