// Householder reduction of a general square matrix to upper Hessenberg
// form, the first stage of the general eigenvalue computation.

#ifndef CROWD_LINALG_HESSENBERG_H_
#define CROWD_LINALG_HESSENBERG_H_

#include "linalg/matrix.h"
#include "util/result.h"

namespace crowd::linalg {

/// \brief Reduces `a` to the upper Hessenberg H of A = Q H Q^T via
/// Householder reflections. Only the eigenvalues of H are needed, so
/// the orthogonal Q is not formed.
Result<Matrix> ReduceToHessenberg(const Matrix& a);

}  // namespace crowd::linalg

#endif  // CROWD_LINALG_HESSENBERG_H_
