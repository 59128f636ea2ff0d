// The dot-product Cholesky factor and solve that every variant of
// linalg::CholeskyDecomposition's row-vectorized kernels must reproduce
// bit for bit: one row, one accumulator, at a time. Each entry is the
// same chain of subtractions in the same k order as in a vector lane,
// so the two agree exactly when the compiler contracts no multiply-add
// into an FMA (the build passes -ffp-contract=off).

#ifndef CROWD_TESTS_CHOLESKY_REFERENCE_H_
#define CROWD_TESTS_CHOLESKY_REFERENCE_H_

#include <cmath>
#include <cstddef>
#include <optional>

#include "linalg/matrix.h"

namespace crowd::linalg {

/// L with A = L L^T, or nullopt when a pivot is not above `pivot_tol`.
inline std::optional<Matrix> ReferenceCholeskyFactor(
    const Matrix& a, double pivot_tol = 1e-300) {
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > pivot_tol)) return std::nullopt;
    l(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
  }
  return l;
}

/// x with L L^T x = b.
inline Vector ReferenceCholeskySolve(const Matrix& l, const Vector& b) {
  const size_t n = l.rows();
  // Forward: L y = b.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Backward: L^T x = y.
  Vector x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

}  // namespace crowd::linalg

#endif  // CROWD_TESTS_CHOLESKY_REFERENCE_H_
