// General real eigendecomposition A = E D E^{-1} for matrices whose
// spectrum is (numerically) real — the case arising in the spectral
// k-ary method, where the relevant matrices are similar to symmetric
// PSD matrices or to diagonal matrices with entries in [0, 1].
//
// Eigenvalues come from Hessenberg + Francis QR; eigenvectors from
// inverse iteration with a perturbed shift.

#ifndef CROWD_LINALG_EIGEN_H_
#define CROWD_LINALG_EIGEN_H_

#include "linalg/matrix.h"
#include "util/result.h"

namespace crowd::linalg {

/// \brief A = vectors * Diagonal(values) * vectors^{-1}; columns of
/// `vectors` are unit-norm eigenvectors ordered like `values`
/// (descending).
struct EigenDecomposition {
  Vector values;
  Matrix vectors;
};

/// Options for EigenGeneralReal.
struct EigenOptions {
  /// An eigenvalue with |Im| > complex_tol * max(1, spectral scale) is
  /// treated as genuinely complex and makes the call fail.
  double complex_tol = 1e-6;
  /// Inverse-iteration refinement steps per eigenvector.
  int inverse_iterations = 3;
};

/// \brief Full eigendecomposition of a general real square matrix with
/// real spectrum. Fails with NumericalError on complex eigenvalue
/// pairs (beyond tolerance) or non-convergence.
Result<EigenDecomposition> EigenGeneralReal(const Matrix& a,
                                            const EigenOptions& options = {});

}  // namespace crowd::linalg

#endif  // CROWD_LINALG_EIGEN_H_
