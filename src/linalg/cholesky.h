// Cholesky factorization A = L L^T for symmetric positive-definite
// matrices, with solve and inverse. Used by the Lemma 5 weight solver:
// covariance matrices are symmetric and (up to estimation noise) PSD,
// and the factorization doubles as the cheapest PSD test — when it
// fails, the caller knows the plug-in covariance is not PSD and can
// regularize harder or fall back.
//
// The factor is stored transposed (row k of L^T is column k of L), so
// the rows i, i+1, ... of one column are contiguous and the factor and
// forward solve run many rows per vector instruction. Like
// util/bitops.h, each kernel has a portable variant and an
// __attribute__((target("avx2"))) one, picked on first call; both keep
// every entry's chain of subtractions in the one-row order, so the
// result is the same to the bit (tests/cholesky_reference.h).

#ifndef CROWD_LINALG_CHOLESKY_H_
#define CROWD_LINALG_CHOLESKY_H_

#include "linalg/matrix.h"
#include "util/result.h"

namespace crowd::linalg {

/// \brief A = L L^T with L lower-triangular, positive diagonal.
class CholeskyDecomposition {
 public:
  /// Factorizes symmetric positive-definite `a`; fails with
  /// NumericalError when a pivot drops below `pivot_tol` (matrix not
  /// PD to working precision) and InvalidArgument when `a` is not
  /// square/symmetric.
  static Result<CholeskyDecomposition> Compute(const Matrix& a,
                                               double pivot_tol = 1e-300);

  /// Solves A x = b via two triangular solves.
  Result<Vector> Solve(const Vector& b) const;

  /// A^{-1}.
  Result<Matrix> Inverse() const;

  /// det(A) = prod(L_ii)^2.
  double Determinant() const;

  /// The factor L (a transposed copy of the stored L^T).
  Matrix L() const { return lt_.Transposed(); }

  size_t size() const { return lt_.rows(); }

 private:
  explicit CholeskyDecomposition(Matrix lt) : lt_(std::move(lt)) {}
  /// L^T: upper-triangular, lt_(k, i) = L(i, k).
  Matrix lt_;
};

/// \brief True when `a` is symmetric positive-definite to working
/// precision (Cholesky succeeds).
bool IsPositiveDefinite(const Matrix& a);

/// The kernel variants, callable directly so a test can check each one
/// against the reference loops.
namespace cholesky_internal {

/// Writes L^T of the square, symmetric `a` into `lt` (n x n, zeroed),
/// or returns the NumericalError that Compute reports for the first
/// pivot not above `pivot_tol`.
Status FactorPortable(const Matrix& a, double pivot_tol, Matrix* lt);
/// Precondition: util::CpuHasAvx2().
Status FactorAvx2(const Matrix& a, double pivot_tol, Matrix* lt);

/// x with L L^T x = b, from the L^T a factor kernel wrote.
Vector SolvePortable(const Matrix& lt, const Vector& b);
/// Precondition: util::CpuHasAvx2().
Vector SolveAvx2(const Matrix& lt, const Vector& b);

}  // namespace cholesky_internal

}  // namespace crowd::linalg

#endif  // CROWD_LINALG_CHOLESKY_H_
