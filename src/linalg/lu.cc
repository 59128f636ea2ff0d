#include "linalg/lu.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace crowd::linalg {

Result<LuDecomposition> LuDecomposition::Compute(const Matrix& a,
                                                 double pivot_tol) {
  if (!a.IsSquare()) {
    return Status::Invalid("LU requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::Invalid("LU of an empty matrix");

  Matrix lu = a;
  double* m = &lu(0, 0);  // Row-major, n x n.
  SmallBuffer<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;

  // Scale factors for scaled partial pivoting; improves pivot choice on
  // badly row-scaled matrices (covariance matrices here can have rows
  // spanning several orders of magnitude).
  SmallBuffer<double> scale(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = m + i * n;
    double row_max = 0.0;
    for (size_t j = 0; j < n; ++j) {
      row_max = std::max(row_max, std::fabs(row[j]));
    }
    if (row_max == 0.0) {
      return Status::NumericalError(
          StrFormat("LU: row %zu is identically zero", i));
    }
    scale[i] = 1.0 / row_max;
  }

  for (size_t col = 0; col < n; ++col) {
    // Pick the pivot row.
    size_t pivot_row = col;
    double best = -1.0;
    for (size_t i = col; i < n; ++i) {
      double candidate = scale[i] * std::fabs(m[i * n + col]);
      if (candidate > best) {
        best = candidate;
        pivot_row = i;
      }
    }
    double* pivot_entries = m + col * n;
    if (pivot_row != col) {
      std::swap_ranges(pivot_entries, pivot_entries + n, m + pivot_row * n);
      std::swap(perm[pivot_row], perm[col]);
      std::swap(scale[pivot_row], scale[col]);
      sign = -sign;
    }
    double pivot = pivot_entries[col];
    if (std::fabs(pivot) < pivot_tol) {
      return Status::NumericalError(StrFormat(
          "LU: matrix is singular to working precision (pivot %.3e at "
          "column %zu)",
          pivot, col));
    }
    for (size_t i = col + 1; i < n; ++i) {
      double* row = m + i * n;
      double factor = row[col] / pivot;
      row[col] = factor;
      if (factor == 0.0) continue;
      for (size_t j = col + 1; j < n; ++j) {
        row[j] -= factor * pivot_entries[j];
      }
    }
  }
  return LuDecomposition(std::move(lu), std::move(perm), sign);
}

void LuDecomposition::Substitute(const double* b, size_t b_stride,
                                 double* x, size_t x_stride) const {
  const size_t n = size();
  const double* lu = lu_.data();
  // Forward substitution on L (unit diagonal), applying P to b.
  for (size_t i = 0; i < n; ++i) {
    const double* row = lu + i * n;
    double sum = b[perm_[i] * b_stride];
    for (size_t j = 0; j < i; ++j) sum -= row[j] * x[j * x_stride];
    x[i * x_stride] = sum;
  }
  // Back substitution on U.
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    const double* row = lu + i * n;
    double sum = x[i * x_stride];
    for (size_t j = i + 1; j < n; ++j) sum -= row[j] * x[j * x_stride];
    x[i * x_stride] = sum / row[i];
  }
}

Result<Vector> LuDecomposition::Solve(const Vector& b) const {
  if (b.size() != size()) {
    return Status::Invalid("LU solve: dimension mismatch");
  }
  Vector x(b.size());
  Substitute(b.data(), 1, x.data(), 1);
  return x;
}

Result<Matrix> LuDecomposition::Solve(const Matrix& b) const {
  if (b.rows() != size()) {
    return Status::Invalid("LU solve: dimension mismatch");
  }
  Matrix x(b.rows(), b.cols());
  if (x.empty()) return x;
  double* out = &x(0, 0);
  for (size_t j = 0; j < b.cols(); ++j) {
    Substitute(b.data() + j, b.cols(), out + j, x.cols());
  }
  return x;
}

Result<Matrix> LuDecomposition::Inverse() const {
  return Solve(Matrix::Identity(size()));
}

double LuDecomposition::Determinant() const {
  double det = perm_sign_;
  for (size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

Result<Vector> SolveLinearSystem(const Matrix& a, const Vector& b) {
  CROWD_ASSIGN_OR_RETURN(auto lu, LuDecomposition::Compute(a));
  return lu.Solve(b);
}

Result<Matrix> Inverse(const Matrix& a) {
  CROWD_ASSIGN_OR_RETURN(auto lu, LuDecomposition::Compute(a));
  return lu.Inverse();
}

Result<double> Determinant(const Matrix& a) {
  if (!a.IsSquare()) return Status::Invalid("determinant of non-square");
  auto lu = LuDecomposition::Compute(a);
  if (!lu.ok()) {
    // Singular to working precision means determinant ~zero rather than
    // an error.
    if (lu.status().IsNumericalError()) return 0.0;
    return lu.status();
  }
  return lu->Determinant();
}

}  // namespace crowd::linalg
