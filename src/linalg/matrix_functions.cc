#include "linalg/matrix_functions.h"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/lu.h"
#include "util/string_util.h"

namespace crowd::linalg {

namespace {

// Clamp the spectrum to be non-negative; returns an error when a
// strongly negative eigenvalue indicates the input is not PSD-like.
Status ClampSpectrum(Vector* values, const SqrtOptions& options) {
  double max_ev = 0.0;
  for (double v : *values) max_ev = std::max(max_ev, v);
  if (max_ev <= 0.0) {
    return Status::NumericalError(
        "matrix square root: no positive eigenvalue");
  }
  const double floor = options.clamp_floor * max_ev;
  for (double& v : *values) {
    if (v < -options.negative_tol * max_ev) {
      return Status::NumericalError(StrFormat(
          "matrix square root: eigenvalue %.6g is too negative "
          "(max eigenvalue %.6g)",
          v, max_ev));
    }
    v = std::max(v, floor);
  }
  return Status::OK();
}

}  // namespace

Result<Matrix> PrincipalSqrt(const Matrix& a, const SqrtOptions& options) {
  CROWD_ASSIGN_OR_RETURN(auto eig, EigenGeneralReal(a));
  CROWD_RETURN_NOT_OK(ClampSpectrum(&eig.values, options));
  for (double& v : eig.values) v = std::sqrt(v);
  CROWD_ASSIGN_OR_RETURN(Matrix e_inv, Inverse(eig.vectors));
  return eig.vectors * Matrix::Diagonal(eig.values) * e_inv;
}

Result<Matrix> SymmetricSqrt(const Matrix& a, const SqrtOptions& options) {
  CROWD_ASSIGN_OR_RETURN(auto eig, JacobiEigen(a));
  CROWD_RETURN_NOT_OK(ClampSpectrum(&eig.values, options));
  Vector sqrt_values(eig.values.size());
  for (size_t i = 0; i < eig.values.size(); ++i) {
    sqrt_values[i] = std::sqrt(eig.values[i]);
  }
  // V D^{1/2} V^T.
  return eig.vectors * Matrix::Diagonal(sqrt_values) *
         eig.vectors.Transposed();
}

Vector RowSums(const Matrix& a) {
  Vector sums(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) sums[i] += a(i, j);
  }
  return sums;
}

Status NormalizeRowsToSumOne(Matrix* a, double min_sum) {
  CROWD_CHECK(a != nullptr);
  Vector sums = RowSums(*a);
  for (size_t i = 0; i < a->rows(); ++i) {
    if (std::fabs(sums[i]) < min_sum) {
      return Status::NumericalError(
          StrFormat("row %zu sums to %.3e; cannot normalize", i, sums[i]));
    }
    for (size_t j = 0; j < a->cols(); ++j) (*a)(i, j) /= sums[i];
  }
  return Status::OK();
}

void ClampEntries(Matrix* a, double lo, double hi) {
  CROWD_CHECK(a != nullptr);
  for (size_t i = 0; i < a->rows(); ++i) {
    for (size_t j = 0; j < a->cols(); ++j) {
      (*a)(i, j) = std::clamp((*a)(i, j), lo, hi);
    }
  }
}

}  // namespace crowd::linalg
