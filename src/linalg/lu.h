// LU decomposition with partial pivoting, plus the solvers, inverse and
// determinant built on top of it. Used by the optimal-weight step
// (Lemma 5: C^{-1} 1), the spectral k-ary method (R_{3,2}^{-1}) and the
// eigenvector inverse-iteration step.

#ifndef CROWD_LINALG_LU_H_
#define CROWD_LINALG_LU_H_

#include "linalg/matrix.h"
#include "util/result.h"

namespace crowd::linalg {

/// \brief PA = LU factorization of a square matrix (Doolittle form, L
/// unit lower-triangular), stored packed in a single matrix.
class LuDecomposition {
 public:
  /// Factorizes `a`; fails with NumericalError when the matrix is
  /// singular to working precision (pivot below `pivot_tol`).
  static Result<LuDecomposition> Compute(const Matrix& a,
                                         double pivot_tol = 1e-13);

  /// Solves A x = b.
  Result<Vector> Solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  Result<Matrix> Solve(const Matrix& b) const;

  /// A^{-1}, by solving against the identity.
  Result<Matrix> Inverse() const;

  /// The forward and back substitution every solve above runs: writes
  /// x with A x = b, where entry i of b is at b[i * b_stride] and entry
  /// i of x goes to x[i * x_stride]. b and x must not overlap.
  void Substitute(const double* b, size_t b_stride, double* x,
                  size_t x_stride) const;

  /// det(A), including the permutation sign.
  double Determinant() const;

  size_t size() const { return lu_.rows(); }

 private:
  LuDecomposition(Matrix lu, SmallBuffer<size_t> perm, int perm_sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), perm_sign_(perm_sign) {}

  Matrix lu_;                  // L below diagonal (unit), U on/above.
  SmallBuffer<size_t> perm_;   // Row permutation: row i of PA is row perm_[i] of A.
  int perm_sign_ = 1;
};

/// \brief Convenience wrapper: x = A^{-1} b.
Result<Vector> SolveLinearSystem(const Matrix& a, const Vector& b);

/// \brief Convenience wrapper: A^{-1}.
Result<Matrix> Inverse(const Matrix& a);

/// \brief Convenience wrapper: det(A).
Result<double> Determinant(const Matrix& a);

}  // namespace crowd::linalg

#endif  // CROWD_LINALG_LU_H_
