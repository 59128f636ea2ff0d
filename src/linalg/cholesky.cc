#include "linalg/cholesky.h"

#include <cmath>

#include "util/string_util.h"

namespace crowd::linalg {

Result<CholeskyDecomposition> CholeskyDecomposition::Compute(
    const Matrix& a, double pivot_tol) {
  if (!a.IsSquare()) {
    return Status::Invalid("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::Invalid("Cholesky of an empty matrix");
  if (!a.IsSymmetric(1e-8 * std::max(1.0, a.MaxAbs()))) {
    return Status::Invalid("Cholesky requires a symmetric matrix");
  }

  // Dot-product form: entry (i, j) is a(i, j) minus l(i, k) l(j, k)
  // for k = 0, 1, ..., j-1, in that order. One such chain is bound by
  // add latency, so column j runs rows i..i+3 together with one
  // accumulator each: four independent chains, each in the one-row
  // order, so the factor is the same to the bit.
  Matrix l(n, n);
  const double* rows = l.data();
  for (size_t j = 0; j < n; ++j) {
    const double* lj = rows + j * n;
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > pivot_tol)) {
      return Status::NumericalError(StrFormat(
          "Cholesky: matrix is not positive definite (pivot %.3e at "
          "column %zu)",
          diag, j));
    }
    l(j, j) = std::sqrt(diag);
    const double pivot = l(j, j);
    size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      const double* r0 = rows + i * n;
      const double* r1 = r0 + n;
      const double* r2 = r1 + n;
      const double* r3 = r2 + n;
      double s0 = a(i, j), s1 = a(i + 1, j), s2 = a(i + 2, j),
             s3 = a(i + 3, j);
      for (size_t k = 0; k < j; ++k) {
        s0 -= r0[k] * lj[k];
        s1 -= r1[k] * lj[k];
        s2 -= r2[k] * lj[k];
        s3 -= r3[k] * lj[k];
      }
      l(i, j) = s0 / pivot;
      l(i + 1, j) = s1 / pivot;
      l(i + 2, j) = s2 / pivot;
      l(i + 3, j) = s3 / pivot;
    }
    for (; i < n; ++i) {
      const double* ri = rows + i * n;
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= ri[k] * lj[k];
      l(i, j) = sum / pivot;
    }
  }
  return CholeskyDecomposition(std::move(l));
}

Result<Vector> CholeskyDecomposition::Solve(const Vector& b) const {
  const size_t n = size();
  if (b.size() != n) {
    return Status::Invalid("Cholesky solve: dimension mismatch");
  }
  const double* rows = l_.data();
  // Forward: L y = b. y[i] is b[i] minus l(i, k) y[k] for k = 0, ...,
  // i-1 in order. Rows i..i+3 share the prefix k < i, so they run it
  // with four accumulators, then finish their own columns in the same
  // k order.
  Vector y(n);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = rows + i * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double s0 = b[i], s1 = b[i + 1], s2 = b[i + 2], s3 = b[i + 3];
    for (size_t k = 0; k < i; ++k) {
      s0 -= r0[k] * y[k];
      s1 -= r1[k] * y[k];
      s2 -= r2[k] * y[k];
      s3 -= r3[k] * y[k];
    }
    y[i] = s0 / r0[i];
    s1 -= r1[i] * y[i];
    y[i + 1] = s1 / r1[i + 1];
    s2 -= r2[i] * y[i];
    s2 -= r2[i + 1] * y[i + 1];
    y[i + 2] = s2 / r2[i + 2];
    s3 -= r3[i] * y[i];
    s3 -= r3[i + 1] * y[i + 1];
    s3 -= r3[i + 2] * y[i + 2];
    y[i + 3] = s3 / r3[i + 3];
  }
  for (; i < n; ++i) {
    const double* ri = rows + i * n;
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= ri[k] * y[k];
    y[i] = sum / ri[i];
  }
  // Backward: L^T x = y. x[i] subtracts the terms k = i+1, ... in
  // ascending order, so a lower row's first terms are the block's own
  // unknowns: this sweep stays one row at a time.
  Vector x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t r = ii - 1;
    double sum = y[r];
    for (size_t k = r + 1; k < n; ++k) sum -= l_(k, r) * x[k];
    x[r] = sum / l_(r, r);
  }
  return x;
}

Result<Matrix> CholeskyDecomposition::Inverse() const {
  const size_t n = size();
  Matrix inverse(n, n);
  Vector unit(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    CROWD_ASSIGN_OR_RETURN(Vector column, Solve(unit));
    unit[j] = 0.0;
    for (size_t i = 0; i < n; ++i) inverse(i, j) = column[i];
  }
  return inverse;
}

double CholeskyDecomposition::Determinant() const {
  double det = 1.0;
  for (size_t i = 0; i < size(); ++i) det *= l_(i, i);
  return det * det;
}

bool IsPositiveDefinite(const Matrix& a) {
  return CholeskyDecomposition::Compute(a).ok();
}

}  // namespace crowd::linalg
